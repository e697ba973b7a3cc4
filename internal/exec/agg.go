package exec

// Host-side result operators: hash group-by with pooled aggregate
// state, streaming DISTINCT, and top-K / full ordering. GhostDB's
// aggregation runs on the secure display, after the device's ID-stream
// pipeline has materialized the physical result rows — so these
// operators never touch the simulated device and charge nothing to its
// clock (the cost model is the paper's contribution; host finishing is
// free by construction on every engine, which keeps the batch and row
// engines bit-identical in simulated time on aggregate queries too).
//
// All three operators are pooled and reusable: in steady state (a warm
// group/dedup table, a full top-K heap) processing a row performs no
// heap allocation, matching the O(1)-allocs-per-batch discipline of the
// device-side batch operators.

import (
	"hash/maphash"
	"math"
	"math/bits"
	"sort"
	"sync"

	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// AggOp describes one aggregate accumulator: Func over input row column
// Col (-1 for COUNT(*)). ArgKind is the argument column's kind; it
// decides whether SUM/AVG accumulate integer- or float-side.
type AggOp struct {
	Func    sql.AggFunc
	Col     int
	ArgKind value.Kind
}

// aggAcc is one accumulator's state: contribution count, integer and
// float sums, and the current MIN/MAX carrier.
type aggAcc struct {
	n int64
	i int64
	f float64
	v value.Value
}

// groupTable finds a key's index — a Grouper's group, a Distinct entry —
// by its hash. It is one open-addressed table: a power-of-two slot array
// probed linearly, each slot holding a key's full 32-bit hash (tableHash)
// and its index + 1 (0 marks an empty slot), 8 bytes a slot. The owner
// compares keys only when the full hash matches. The table grows at half
// load by re-placing the stored hashes, without rehashing a key.
//
// The hash picks the slot a probe starts at, never an order: indexes are
// handed out in first-seen order, and every result order comes from
// them. That is why the string hash may be seeded per process.
type groupTable struct {
	slots []slot
	n     int // occupied slots
}

type slot struct {
	hash uint32
	idx  uint32 // index + 1; 0 when empty
}

// minSlots is a fresh table's size.
const minSlots = 16

// reset empties the table, keeping its slots.
func (t *groupTable) reset() {
	if t.slots == nil {
		t.slots = make([]slot, minSlots)
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// put records idx under hash h in the empty slot i that h's probe ended
// on, growing the table once half of it is occupied.
func (t *groupTable) put(i int, h uint32, idx int) {
	t.slots[i] = slot{hash: h, idx: uint32(idx + 1)}
	if t.n++; 2*t.n <= len(t.slots) {
		return
	}
	old := t.slots
	t.slots = make([]slot, 2*len(old))
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.idx == 0 {
			continue
		}
		j := int(s.hash) & mask
		for t.slots[j].idx != 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = s
	}
}

// keyHashMask is ANDed into every table hash. Tests zero it so that
// every key collides with every other.
var keyHashMask = ^uint32(0)

// tableHash folds a running key hash to the table's 32 bits.
func tableHash(h uint64) uint32 { return (uint32(h) ^ uint32(h>>32)) & keyHashMask }

// strSeed seeds the string hash (see groupTable: a probe start, never an
// order).
var strSeed = maphash.MakeSeed()

// hashValue folds one value into a running key hash, consistent with ==
// on value.Value: its kind, then its payload word or its string, the
// string a word at a time by maphash.
func hashValue(h uint64, v value.Value) uint64 {
	h ^= uint64(v.Kind())
	switch v.Kind() {
	case value.String:
		return mix(h, maphash.String(strSeed, v.Str()))
	case value.Int, value.Date, value.Bool, value.Float:
		return mix(h, uint64(v.Word()))
	}
	return mix(h, 0)
}

// mix is the wyhash step: a 128-bit product of the two inputs, each
// xored with a constant, folded to 64 bits.
func mix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, w^0xe7037ed1a0b428db)
	return hi ^ lo
}

// AggState is one accumulator's raw state, exported for cross-shard
// partial aggregation: a shard finishes its physical rows into group
// partials, ships the accumulators host-side, and the coordinator
// merges them with Absorb. Merging raw state (not finalized values) is
// what keeps AVG and COUNT correct across shards — an average of
// per-shard averages would weight shards, not rows.
type AggState struct {
	N int64       // contribution count
	I int64       // integer-side running sum
	F float64     // float-side running sum
	V value.Value // current MIN/MAX carrier (invalid when none)
}

// Grouper is a pooled hash group-by: rows are added one at a time and
// groups appear in first-seen order, which — fed in root-ID order — makes
// the unordered aggregate result deterministic. Groups are found in the
// groupTable; a keyless grouper has at most group 0 and hashes nothing.
type Grouper struct {
	keyCols []int
	aggs    []AggOp

	tab   groupTable
	keys  []value.Value // flat: group * len(keyCols)
	accs  []aggAcc      // flat: group * len(aggs)
	first []int64       // per group: min seq seen (AddAt/Absorb only)
	n     int           // group count
}

var grouperPool = sync.Pool{New: func() any { return &Grouper{} }}

// GetGrouper returns a pooled Grouper configured for the given key
// columns and accumulators. The slices are retained (not copied).
func GetGrouper(keyCols []int, aggs []AggOp) *Grouper {
	g := grouperPool.Get().(*Grouper)
	g.keyCols, g.aggs = keyCols, aggs
	g.tab.reset()
	g.keys = g.keys[:0]
	g.accs = g.accs[:0]
	g.first = g.first[:0]
	g.n = 0
	return g
}

// PutGrouper returns the operator (and its table memory) to the pool.
func PutGrouper(g *Grouper) {
	if g == nil {
		return
	}
	g.keyCols, g.aggs = nil, nil
	clear(g.keys) // don't pin result strings
	g.keys = g.keys[:0]
	for i := range g.accs {
		g.accs[i] = aggAcc{}
	}
	g.accs = g.accs[:0]
	g.first = g.first[:0]
	grouperPool.Put(g)
}

// Add folds one row into its group, creating the group on first sight.
func (g *Grouper) Add(row []value.Value) error {
	gi := g.findOrAdd(row)
	return g.accumulate(gi, row)
}

// AddAt folds one row like Add and stamps the group with seq on first
// sight. Shard pipelines pass the row's global root identifier as seq,
// so FirstSeen later recovers the order the single-device engine would
// have created the groups in.
func (g *Grouper) AddAt(row []value.Value, seq int64) error {
	gi := g.findOrAdd(row)
	if len(g.first) < g.n {
		g.first = append(g.first, seq)
	}
	return g.accumulate(gi, row)
}

// Absorb merges one exported group partial: keys is the group's key
// tuple (len(keyCols) values), accs its raw accumulator states in AggOp
// order, seq its FirstSeen stamp. The group is created on first sight;
// otherwise the states merge accumulator-wise and the stamp keeps its
// minimum. The receiver must be configured with identity key columns
// (0..len(keys)-1) so the key tuple addresses itself.
func (g *Grouper) Absorb(keys []value.Value, accs []AggState, seq int64) error {
	gi := g.findOrAdd(keys)
	if len(g.first) < g.n {
		g.first = append(g.first, seq)
	} else if seq < g.first[gi] {
		g.first[gi] = seq
	}
	base := gi * len(g.aggs)
	for a := range g.aggs {
		op := &g.aggs[a]
		acc := &g.accs[base+a]
		in := accs[a]
		acc.n += in.N
		acc.i += in.I
		acc.f += in.F
		if !in.V.IsValid() {
			continue
		}
		if !acc.v.IsValid() {
			acc.v = in.V
			continue
		}
		c, err := value.Compare(in.V, acc.v)
		if err != nil {
			return err
		}
		if (op.Func == sql.AggMin && c < 0) || (op.Func == sql.AggMax && c > 0) {
			acc.v = in.V
		}
	}
	return nil
}

// Partial exports group gi's raw state for host-side merging: the key
// tuple, the accumulator states, and the FirstSeen stamp. The returned
// slices alias the grouper's storage — absorb them before PutGrouper.
func (g *Grouper) Partial(gi int) ([]value.Value, []AggState, int64) {
	keys := g.keys[gi*len(g.keyCols) : (gi+1)*len(g.keyCols)]
	base := gi * len(g.aggs)
	accs := make([]AggState, len(g.aggs))
	for a := range g.aggs {
		acc := g.accs[base+a]
		accs[a] = AggState{N: acc.n, I: acc.i, F: acc.f, V: acc.v}
	}
	return keys, accs, g.FirstSeen(gi)
}

// FirstSeen returns group gi's seq stamp (see AddAt/Absorb);
// math.MaxInt64 when the group was created without one (plain Add or
// AddEmptyGroup), which sorts such groups last.
func (g *Grouper) FirstSeen(gi int) int64 {
	if gi < len(g.first) {
		return g.first[gi]
	}
	return math.MaxInt64
}

// findOrAdd locates the row's group, appending a new one when unseen.
func (g *Grouper) findOrAdd(row []value.Value) int {
	if len(g.keyCols) == 0 {
		if g.n == 0 {
			g.addGroup(row)
		}
		return 0
	}
	var kh uint64
	for _, kc := range g.keyCols {
		kh = hashValue(kh, row[kc])
	}
	h := tableHash(kh)
	mask := len(g.tab.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.tab.slots[i]
		if s.idx == 0 {
			g.tab.put(i, h, g.n)
			return g.addGroup(row)
		}
		if s.hash == h && g.sameKey(int(s.idx-1), row) {
			return int(s.idx - 1)
		}
	}
}

// addGroup appends a group keyed by the row and returns its index.
func (g *Grouper) addGroup(row []value.Value) int {
	gi := g.n
	g.n++
	for _, kc := range g.keyCols {
		g.keys = append(g.keys, row[kc])
	}
	for range g.aggs {
		g.accs = append(g.accs, aggAcc{})
	}
	return gi
}

func (g *Grouper) sameKey(gi int, row []value.Value) bool {
	base := gi * len(g.keyCols)
	for k, kc := range g.keyCols {
		if g.keys[base+k] != row[kc] {
			return false
		}
	}
	return true
}

// accumulate folds the row into group gi's accumulators.
func (g *Grouper) accumulate(gi int, row []value.Value) error {
	base := gi * len(g.aggs)
	for a := range g.aggs {
		op := &g.aggs[a]
		acc := &g.accs[base+a]
		acc.n++
		if op.Col < 0 {
			continue // COUNT(*): the contribution count is the state
		}
		v := row[op.Col]
		switch op.Func {
		case sql.AggCount:
			// counted above
		case sql.AggSum, sql.AggAvg:
			if v.Kind() == value.Float {
				acc.f += v.Float()
			} else {
				acc.i += v.Int()
			}
		case sql.AggMin, sql.AggMax:
			if !acc.v.IsValid() {
				acc.v = v
				continue
			}
			c, err := value.Compare(v, acc.v)
			if err != nil {
				return err
			}
			if (op.Func == sql.AggMin && c < 0) || (op.Func == sql.AggMax && c > 0) {
				acc.v = v
			}
		}
	}
	return nil
}

// Groups reports the number of distinct groups seen so far.
func (g *Grouper) Groups() int { return g.n }

// Key returns grouping key k of group gi.
func (g *Grouper) Key(gi, k int) value.Value { return g.keys[gi*len(g.keyCols)+k] }

// AggValue finalizes accumulator a of group gi. Aggregates over an
// empty group (only possible for the global group of an empty result)
// yield COUNT = 0 and NULL (the invalid value) for everything else.
func (g *Grouper) AggValue(gi, a int) value.Value {
	op := g.aggs[a]
	acc := g.accs[gi*len(g.aggs)+a]
	switch op.Func {
	case sql.AggCount:
		return value.NewInt(acc.n)
	case sql.AggSum:
		if acc.n == 0 {
			return value.Value{}
		}
		if op.ArgKind == value.Float {
			return value.NewFloat(acc.f)
		}
		return value.NewInt(acc.i)
	case sql.AggAvg:
		if acc.n == 0 {
			return value.Value{}
		}
		return value.NewFloat((float64(acc.i) + acc.f) / float64(acc.n))
	case sql.AggMin, sql.AggMax:
		return acc.v
	}
	return value.Value{}
}

// AddEmptyGroup appends one group with zero contributions (the global
// group of an aggregate query whose pipeline matched no rows). The
// grouper must be keyless.
func (g *Grouper) AddEmptyGroup() { g.addGroup(nil) }

// Distinct is a pooled streaming duplicate filter over value rows, its
// entries found in a groupTable.
type Distinct struct {
	width int
	tab   groupTable
	rows  []value.Value // flat: entry * width
	n     int
}

var distinctPool = sync.Pool{New: func() any { return &Distinct{} }}

// GetDistinct returns a pooled filter for rows of the given width
// (only the first width columns of each row participate).
func GetDistinct(width int) *Distinct {
	d := distinctPool.Get().(*Distinct)
	d.width = width
	d.tab.reset()
	d.rows = d.rows[:0]
	d.n = 0
	return d
}

// PutDistinct returns the filter to the pool.
func PutDistinct(d *Distinct) {
	if d == nil {
		return
	}
	clear(d.rows)
	d.rows = d.rows[:0]
	distinctPool.Put(d)
}

// Seen reports whether the row's first width columns were already
// observed, recording them when new.
func (d *Distinct) Seen(row []value.Value) bool {
	var kh uint64
	for i := 0; i < d.width; i++ {
		kh = hashValue(kh, row[i])
	}
	h := tableHash(kh)
	mask := len(d.tab.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := d.tab.slots[i]
		if s.idx == 0 {
			d.tab.put(i, h, d.n)
			d.rows = append(d.rows, row[:d.width]...)
			d.n++
			return false
		}
		if s.hash == h && d.sameRow(int(s.idx-1), row) {
			return true
		}
	}
}

func (d *Distinct) sameRow(e int, row []value.Value) bool {
	base := e * d.width
	for i := 0; i < d.width; i++ {
		if d.rows[base+i] != row[i] {
			return false
		}
	}
	return true
}

// SortKey orders rows by column Col, descending when Desc.
type SortKey struct {
	Col  int
	Desc bool
}

// OrderCmp is the total order ORDER BY uses within one column: NULL
// (the invalid value) sorts first, then value.Compare; kinds that
// cannot be compared fall back to their kind number so the order is
// still total and deterministic.
func OrderCmp(a, b value.Value) int {
	av, bv := a.IsValid(), b.IsValid()
	switch {
	case !av && !bv:
		return 0
	case !av:
		return -1
	case !bv:
		return 1
	}
	c, err := value.Compare(a, b)
	if err != nil {
		switch {
		case a.Kind() < b.Kind():
			return -1
		case a.Kind() > b.Kind():
			return 1
		default:
			return 0
		}
	}
	return c
}

// Sorter is a pooled ORDER BY operator: unbounded it collects and
// stable-sorts every row; with a positive K it keeps only the K
// first-ordered rows in a bounded heap (ORDER BY ... LIMIT K). Ties are
// broken by arrival order, so the result is deterministic and matches a
// stable sort of the input.
type Sorter struct {
	keys []SortKey
	k    int

	rows [][]value.Value // references; rows must outlive the sorter's use
	seq  []int64
	n    int64 // arrival counter
}

var sorterPool = sync.Pool{New: func() any { return &Sorter{} }}

// GetSorter returns a pooled sorter. keys is retained, not copied;
// k <= 0 sorts everything.
func GetSorter(keys []SortKey, k int) *Sorter {
	s := sorterPool.Get().(*Sorter)
	s.keys, s.k = keys, k
	clear(s.rows)
	s.rows = s.rows[:0]
	s.seq = s.seq[:0]
	s.n = 0
	return s
}

// PutSorter returns the sorter to the pool.
func PutSorter(s *Sorter) {
	if s == nil {
		return
	}
	s.keys = nil
	clear(s.rows)
	s.rows = s.rows[:0]
	sorterPool.Put(s)
}

// before reports whether row a sorts strictly before row b.
func (s *Sorter) before(a, b []value.Value, seqA, seqB int64) bool {
	for _, k := range s.keys {
		c := OrderCmp(a[k.Col], b[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return seqA < seqB
}

// Push offers one row. The sorter stores the slice, not a copy.
func (s *Sorter) Push(row []value.Value) {
	seq := s.n
	s.n++
	if s.k <= 0 || len(s.rows) < s.k {
		s.rows = append(s.rows, row)
		s.seq = append(s.seq, seq)
		if s.k > 0 {
			s.siftUp(len(s.rows) - 1)
		}
		return
	}
	// Heap full: the root is the last-ordered kept row; replace it when
	// the newcomer sorts before it.
	if s.before(row, s.rows[0], seq, s.seq[0]) {
		s.rows[0], s.seq[0] = row, seq
		s.siftDown(0)
	}
}

// worse reports whether heap element i sorts after element j (max-heap
// on the sort order: the worst kept row sits at the root).
func (s *Sorter) worse(i, j int) bool {
	return s.before(s.rows[j], s.rows[i], s.seq[j], s.seq[i])
}

func (s *Sorter) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.worse(i, p) {
			return
		}
		s.rows[i], s.rows[p] = s.rows[p], s.rows[i]
		s.seq[i], s.seq[p] = s.seq[p], s.seq[i]
		i = p
	}
}

func (s *Sorter) siftDown(i int) {
	n := len(s.rows)
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < n && s.worse(l, w) {
			w = l
		}
		if r < n && s.worse(r, w) {
			w = r
		}
		if w == i {
			return
		}
		s.rows[i], s.rows[w] = s.rows[w], s.rows[i]
		s.seq[i], s.seq[w] = s.seq[w], s.seq[i]
		i = w
	}
}

// Finish sorts and returns the kept rows. The returned slice aliases
// the sorter's storage: consume it before PutSorter.
func (s *Sorter) Finish() [][]value.Value {
	sort.Sort((*sorterFinal)(s))
	return s.rows
}

// sorterFinal adapts the sorter's final ordering to sort.Interface
// without allocating a closure-captured comparator.
type sorterFinal Sorter

func (f *sorterFinal) Len() int { return len(f.rows) }
func (f *sorterFinal) Less(i, j int) bool {
	s := (*Sorter)(f)
	return s.before(s.rows[i], s.rows[j], s.seq[i], s.seq[j])
}
func (f *sorterFinal) Swap(i, j int) {
	f.rows[i], f.rows[j] = f.rows[j], f.rows[i]
	f.seq[i], f.seq[j] = f.seq[j], f.seq[i]
}
