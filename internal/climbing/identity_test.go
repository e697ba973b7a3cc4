package climbing

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// referenceBuild is the index build Build replaced, kept verbatim as the
// oracle for the region bytes: group the row IDs of every value through
// a map of slices, then climb each value's list level by level,
// re-sorting it at every level. What it writes is what CHECKPOINT has
// always programmed into flash, so Build must write exactly the same.
func referenceBuild(st *store.Store, sch *schema.Schema, table, column string, kind value.Kind, vals []value.Value, dense bool, edges Edges) (*Index, error) {
	tb, ok := sch.Table(table)
	if !ok {
		return nil, fmt.Errorf("climbing: unknown table %s", table)
	}
	var levels []string
	for _, t := range sch.PathToRoot(tb.Name) {
		levels = append(levels, t.Name)
	}
	ix := &Index{Table: tb.Name, Column: column, Levels: levels, kind: kind, dense: dense, st: st, entSize: 4 + 8*len(levels)}

	groups := map[value.Value][]uint32{}
	for i, v := range vals {
		cv, err := value.Coerce(v, kind)
		if err != nil {
			return nil, fmt.Errorf("climbing: %s.%s row %d: %w", table, column, i, err)
		}
		groups[cv] = append(groups[cv], uint32(i+1))
	}
	distinct := make([]value.Value, 0, len(groups))
	for v := range groups {
		distinct = append(distinct, v)
	}
	var sortErr error
	sort.Slice(distinct, func(i, j int) bool {
		c, err := value.Compare(distinct[i], distinct[j])
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c < 0
	})
	if sortErr != nil {
		return nil, fmt.Errorf("climbing: %s.%s: %w", table, column, sortErr)
	}
	ix.n = len(distinct)
	if !dense {
		ix.vals = distinct
	} else {
		if len(distinct) != len(vals) {
			return nil, fmt.Errorf("climbing: %s.%s: dense index requires unique values (%d distinct of %d rows)",
				table, column, len(distinct), len(vals))
		}
		if err := checkDense(distinct); err != nil {
			return nil, fmt.Errorf("climbing: %s.%s: %w", table, column, err)
		}
	}

	invs := make([][][]uint32, len(levels)-1)
	for l := 1; l < len(levels); l++ {
		edge, err := edges(levels[l], levels[l-1])
		if err != nil {
			return nil, fmt.Errorf("climbing: inverted %s->%s: %w", levels[l], levels[l-1], err)
		}
		invs[l-1] = edge.Inv
	}

	climbOnce := func(list []uint32, inv [][]uint32) []uint32 {
		var out []uint32
		for _, id := range list {
			if int(id) <= len(inv) {
				out = append(out, inv[id-1]...)
			}
		}
		slices.Sort(out)
		return out
	}

	var valuesBuf, listsBuf, entriesBuf []byte
	for _, v := range distinct {
		entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(valuesBuf)))
		valuesBuf = v.Append(valuesBuf)

		lists := make([][]uint32, len(levels))
		lists[0] = groups[v]
		for l := 1; l < len(levels); l++ {
			lists[l] = climbOnce(lists[l-1], invs[l-1])
		}
		for _, list := range lists {
			entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(listsBuf)))
			entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(list)))
			listsBuf = codec.AppendIDList(listsBuf, list)
		}
	}

	var err error
	if ix.entriesExt, err = st.AppendRegion(entriesBuf); err != nil {
		return nil, err
	}
	if ix.valuesExt, err = st.AppendRegion(valuesBuf); err != nil {
		return nil, err
	}
	if ix.listsExt, err = st.AppendRegion(listsBuf); err != nil {
		return nil, err
	}
	return ix, nil
}

// referenceEncode is Encode as it was before an upper level was counted
// on the level below and filled in one pass over its rows: the same
// ranking, then per level the ranks climbed with climbRanks and bucketed
// with bucketByRank, each list appended with codec.AppendIDList. The
// tests hold Encode to its bytes.
func referenceEncode(sch *schema.Schema, table, column string, col value.Column, dense bool, edges Edges) (*Encoded, error) {
	tb, ok := sch.Table(table)
	if !ok {
		return nil, fmt.Errorf("climbing: unknown table %s", table)
	}
	var levels []string
	for _, t := range sch.PathToRoot(tb.Name) {
		levels = append(levels, t.Name)
	}
	ix := &Index{Table: tb.Name, Column: column, Levels: levels, kind: col.Kind, dense: dense, entSize: 4 + 8*len(levels)}
	ranker := &Encoder{rank: make([]int32, col.Len())}
	ranker.rankColumn(col)
	rank, first := ranker.rank, ranker.first
	n := len(first)
	sorted := make([]value.Value, n)
	for r, i := range first {
		sorted[r] = col.Value(int(i))
	}
	ix.n = n
	if !dense {
		ix.vals = sorted
	}

	ids := make([][]uint32, len(levels))
	begin := make([][]int32, len(levels))
	for l := range levels {
		if l > 0 {
			edge, err := edges(levels[l], levels[l-1])
			if err != nil {
				return nil, fmt.Errorf("climbing: inverted %s->%s: %w", levels[l], levels[l-1], err)
			}
			rank = climbRanks(rank, edge.Inv)
		}
		ids[l], begin[l] = bucketByRank(rank, n)
	}
	var entriesBuf, valuesBuf, listsBuf []byte
	for r, v := range sorted {
		entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(valuesBuf)))
		valuesBuf = v.Append(valuesBuf)
		for l := range levels {
			list := ids[l][begin[l][r]:begin[l][r+1]]
			entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(listsBuf)))
			entriesBuf = binary.LittleEndian.AppendUint32(entriesBuf, uint32(len(list)))
			listsBuf = codec.AppendIDList(listsBuf, list)
		}
	}
	return &Encoded{ix: ix, entries: entriesBuf, values: valuesBuf, lists: listsBuf}, nil
}

// climbRanks carries the ranks of one level's rows (rank[i] for ID i+1,
// -1 for none) up an inverted edge: every parent row takes the rank of
// the one child row it references. Parent rows the edge never mentions
// and parents of unranked children get -1.
func climbRanks(rank []int32, inv [][]uint32) []int32 {
	var rows uint32
	for _, parents := range inv {
		for _, p := range parents {
			rows = max(rows, p)
		}
	}
	up := make([]int32, rows)
	for i := range up {
		up[i] = -1
	}
	for c, parents := range inv[:min(len(inv), len(rank))] {
		for _, p := range parents {
			up[p-1] = rank[c]
		}
	}
	return up
}

// bucketByRank groups row IDs by rank with a counting pass: rank r's
// IDs are ids[begin[r]:begin[r+1]], ascending because rows are visited
// in ID order. Unranked rows (-1) belong to no list.
func bucketByRank(rank []int32, n int) (ids []uint32, begin []int32) {
	begin = make([]int32, n+1)
	for _, r := range rank {
		if r >= 0 {
			begin[r+1]++
		}
	}
	for r := 0; r < n; r++ {
		begin[r+1] += begin[r]
	}
	ids = make([]uint32, begin[n])
	next := slices.Clone(begin[:n])
	for i, r := range rank {
		if r >= 0 {
			ids[next[r]] = uint32(i + 1)
			next[r]++
		}
	}
	return ids, begin
}

// assertSameEncoding encodes col with enc and with referenceEncode and
// compares the three regions byte for byte and the dictionaries.
func assertSameEncoding(t *testing.T, enc *Encoder, c *chain, column string, col value.Column, dense bool) {
	t.Helper()
	got, err := enc.Encode(c.sch, "L0", column, col, dense, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceEncode(c.sch, "L0", column, col, dense, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name      string
		got, want []byte
	}{{"entries", got.entries, want.entries}, {"values", got.values, want.values}, {"lists", got.lists, want.lists}} {
		if !bytes.Equal(r.got, r.want) {
			t.Fatalf("%s region differs from the climb-then-bucket encoding: %d bytes vs %d", r.name, len(r.got), len(r.want))
		}
	}
	if got.ix.n != want.ix.n || !reflect.DeepEqual(got.ix.vals, want.ix.vals) {
		t.Fatalf("dictionary differs: %d entries vs %d", got.ix.n, want.ix.n)
	}
}

// checkDense is the key check the dense build used to make, kept with the
// reference build.
func checkDense(distinct []value.Value) error {
	for i, v := range distinct {
		if v.Kind() != value.Int || v.Int() != int64(i+1) {
			return fmt.Errorf("dense index requires values 1..n, entry %d is %v", i, v)
		}
	}
	return nil
}

// boundary packs vals into a column the way the front door's boundary
// does: each cell coerced to kind.
func boundary(t testing.TB, kind value.Kind, vals []value.Value) value.Column {
	t.Helper()
	c := value.MakeColumn(kind, len(vals))
	for _, v := range vals {
		cv, err := value.Coerce(v, kind)
		if err != nil {
			t.Fatal(err)
		}
		c.Append(cv)
	}
	return c
}

// chain is a tree schema that is one path of the given depth: L0 is the
// indexed table, each Lk+1 references Lk, the last level is the root.
type chain struct {
	st   *store.Store
	sch  *schema.Schema
	rows []int          // cardinality per level
	inv  [][][]uint32   // inv[l][id-1] = rows of level l+1 referencing id of level l
	edge map[string]int // "Lparent<-Lchild" -> l
}

// newChain draws a random chain: level l+1 has about fan times the rows
// of level l, each referencing a random row below — so some rows are
// referenced by nobody and their lists are empty from there up.
func newChain(t testing.TB, rng *rand.Rand, depth, rows0 int, fan float64) *chain {
	t.Helper()
	dev, err := device.New(device.SmartUSB2007(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	c := &chain{st: st, sch: schema.New(), rows: []int{rows0}, edge: map[string]int{}}
	for l := 0; l < depth; l++ {
		cols := []schema.Column{
			{Name: "ID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true},
			{Name: "C", Type: schema.Type{Kind: value.Int}, Hidden: true},
		}
		if l > 0 {
			cols = append(cols, schema.Column{Name: "Ref", Type: schema.Type{Kind: value.Int}, RefTable: fmt.Sprintf("L%d", l-1)})
			below := c.rows[l-1]
			n := 0
			if below > 0 {
				n = int(float64(below)*fan) + rng.Intn(3)
			}
			inv := make([][]uint32, below)
			for id := 1; id <= n; id++ {
				ref := rng.Intn(below)
				inv[ref] = append(inv[ref], uint32(id))
			}
			c.rows = append(c.rows, n)
			c.inv = append(c.inv, inv)
			c.edge[fmt.Sprintf("L%d<-L%d", l, l-1)] = l - 1
		}
		tb, err := schema.NewTable(fmt.Sprintf("L%d", l), cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.sch.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.sch.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *chain) edges(parent, child string) (Edge, error) {
	l, ok := c.edge[parent+"<-"+child]
	if !ok {
		return Edge{}, fmt.Errorf("no inverted edge %s<-%s", parent, child)
	}
	return edgeOf(c.inv[l]), nil
}

// frozen is edges with every edge completed once up front, for the
// benchmarks: a CHECKPOINT's edges are built before its encoders run.
func (c *chain) frozen() Edges {
	done := map[string]Edge{}
	for k, l := range c.edge {
		done[k] = edgeOf(c.inv[l])
	}
	return func(parent, child string) (Edge, error) {
		e, ok := done[parent+"<-"+child]
		if !ok {
			return Edge{}, fmt.Errorf("no inverted edge %s<-%s", parent, child)
		}
		return e, nil
	}
}

func regionBytes(t *testing.T, ix *Index, ext flash.Extent) []byte {
	t.Helper()
	buf := make([]byte, ext.Len)
	if err := ix.st.Cache().ReadAt(buf, ext.Start); err != nil {
		t.Fatal(err)
	}
	return buf
}

// assertSameIndex compares the three flash regions byte for byte and
// every dictionary entry as a lookup returns it.
func assertSameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	for _, r := range []struct {
		name      string
		got, want flash.Extent
	}{
		{"entries", got.entriesExt, want.entriesExt},
		{"values", got.valuesExt, want.valuesExt},
		{"lists", got.listsExt, want.listsExt},
	} {
		if g, w := regionBytes(t, got, r.got), regionBytes(t, want, r.want); !bytes.Equal(g, w) {
			t.Fatalf("%s region differs: %d bytes vs %d", r.name, len(g), len(w))
		}
	}
	if got.n != want.n || !reflect.DeepEqual(got.Levels, want.Levels) {
		t.Fatalf("shape differs: %d entries %v vs %d entries %v", got.n, got.Levels, want.n, want.Levels)
	}
	for i := 0; i < want.n; i++ {
		ge, err := got.entry(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		we, err := want.entry(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ge.Value != we.Value || len(ge.Lists) != len(we.Lists) {
			t.Fatalf("entry %d: %v vs %v", i, ge.Value, we.Value)
		}
		for l := range we.Lists {
			gl, err := got.ReadList(ge.Lists[l])
			if err != nil {
				t.Fatal(err)
			}
			wl, err := want.ReadList(we.Lists[l])
			if err != nil {
				t.Fatal(err)
			}
			if ge.Lists[l].Count != we.Lists[l].Count || !slices.Equal(gl, wl) {
				t.Fatalf("entry %d level %d: %v vs %v", i, l, gl, wl)
			}
			if ge.Lists[l].Ext.Start-got.listsExt.Start != we.Lists[l].Ext.Start-want.listsExt.Start {
				t.Fatalf("entry %d level %d: list offset differs", i, l)
			}
		}
		le, ok, err := got.LookupEq(we.Value)
		if err != nil || !ok || le.Idx != i {
			t.Fatalf("LookupEq(%v) = entry %d ok=%v err=%v, want entry %d", we.Value, le.Idx, ok, err, i)
		}
	}
}

// TestBuildByteIdentity holds Build to the bytes of the map-and-sort
// build it replaced, over tree depths 1-4, every kind, dense and
// non-dense columns, and the value distributions that stress the
// grouping: heavy duplicates, one distinct value, all distinct, empty.
func TestBuildByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type gen func(i, n int) value.Value
	kinds := []struct {
		name string
		kind value.Kind
		pick func(domain int) gen
	}{
		{"int", value.Int, func(d int) gen { return func(i, n int) value.Value { return value.NewInt(int64(rng.Intn(d)) - 3) } }},
		// Int literals in a FLOAT column: Build coerces, 2 and 2.0 share an entry.
		{"float", value.Float, func(d int) gen {
			return func(i, n int) value.Value {
				if k := rng.Intn(d); k%2 == 0 {
					return value.NewInt(int64(k))
				} else {
					return value.NewFloat(float64(k) / 2)
				}
			}
		}},
		{"date", value.Date, func(d int) gen {
			return func(i, n int) value.Value { return value.NewDateDays(int64(13000 + rng.Intn(d))) }
		}},
		{"bool", value.Bool, func(d int) gen { return func(i, n int) value.Value { return value.NewBool(rng.Intn(min(d, 2)) == 1) } }},
		{"string", value.String, func(d int) gen {
			return func(i, n int) value.Value { return value.NewString(fmt.Sprintf("v%03d", rng.Intn(d))) }
		}},
		// The ranking paths by key type. A span under four slots a row is
		// ranked through the direct-address table, a wider one by sorting
		// (key, row) pairs — "int" above lands on either side with its shape.
		{"int-narrow-negative", value.Int, func(d int) gen {
			return func(i, n int) value.Value { return value.NewInt(int64(rng.Intn(min(d, 2*n+1))) - int64(n)) }
		}},
		{"int-wide", value.Int, func(d int) gen {
			return func(i, n int) value.Value { return value.NewInt(int64(rng.Intn(d)) * (math.MaxInt64 / int64(d))) }
		}},
		// MinInt64 and MaxInt64 in one column: max − min overflows int64.
		{"int-extremes", value.Int, func(d int) gen {
			return func(i, n int) value.Value {
				return []value.Value{value.NewInt(math.MinInt64), value.NewInt(math.MaxInt64), value.NewInt(0), value.NewInt(int64(rng.Intn(d)))}[rng.Intn(4)]
			}
		}},
		{"string-prefixes", value.String, func(d int) gen {
			return func(i, n int) value.Value {
				return value.NewString(strings.Repeat("ab", rng.Intn(min(d, 5))) + []string{"", "a", "b"}[rng.Intn(3)])
			}
		}},
		// Columns that need Coerce: day counts and date literals in a DATE
		// column, beside values that are dates already.
		{"date-coerced", value.Date, func(d int) gen {
			return func(i, n int) value.Value {
				switch days := int64(13000 + rng.Intn(d)); rng.Intn(3) {
				case 0:
					return value.NewInt(days)
				case 1:
					return value.NewString(value.NewDateDays(days).String())
				default:
					return value.NewDateDays(days)
				}
			}
		}},
		// Floats that used to break the grouping: NaNs of any payload are one
		// value sorting first, −0 and +0 are one value.
		{"float-nan-zero", value.Float, func(d int) gen {
			return func(i, n int) value.Value {
				return value.NewFloat([]float64{math.NaN(), -math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), float64(rng.Intn(d)) / 4}[rng.Intn(6)])
			}
		}},
	}
	shapes := []struct {
		name   string
		rows   int
		domain func(rows int) int
	}{
		{"heavy-duplicates", 200, func(int) int { return 4 }},
		{"one-distinct", 60, func(int) int { return 1 }},
		{"mostly-distinct", 150, func(n int) int { return 50 * n }},
		{"empty", 0, func(int) int { return 1 }},
	}
	for depth := 1; depth <= 4; depth++ {
		for _, k := range kinds {
			for _, sh := range shapes {
				t.Run(fmt.Sprintf("depth=%d/%s/%s", depth, k.name, sh.name), func(t *testing.T) {
					c := newChain(t, rng, depth, sh.rows, 1.7)
					pick := k.pick(sh.domain(sh.rows))
					vals := make([]value.Value, sh.rows)
					for i := range vals {
						vals[i] = pick(i, sh.rows)
					}
					want, err := referenceBuild(c.st, c.sch, "L0", "C", k.kind, vals, false, c.edges)
					if err != nil {
						t.Fatal(err)
					}
					col := boundary(t, k.kind, vals)
					got, err := Build(c.st, c.sch, "L0", "C", col, false, c.edges)
					if err != nil {
						t.Fatal(err)
					}
					assertSameIndex(t, got, want)
					assertSameEncoding(t, new(Encoder), c, "C", col, false)
				})
			}
		}
		// Dense translators: the key column in row order, and — the old
		// build accepted it, so the new one must — in permuted order.
		for _, permute := range []bool{false, true} {
			t.Run(fmt.Sprintf("depth=%d/dense/permuted=%v", depth, permute), func(t *testing.T) {
				c := newChain(t, rng, depth, 120, 2.2)
				vals := make([]value.Value, 120)
				for i := range vals {
					vals[i] = value.NewInt(int64(i + 1))
				}
				if permute {
					rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
				}
				want, err := referenceBuild(c.st, c.sch, "L0", "ID", value.Int, vals, true, c.edges)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Build(c.st, c.sch, "L0", "ID", columnOf(value.Int, vals), true, c.edges)
				if err != nil {
					t.Fatal(err)
				}
				assertSameIndex(t, got, want)
				assertSameEncoding(t, new(Encoder), c, "ID", columnOf(value.Int, vals), true)
				if !got.Dense() {
					t.Fatal("dense flag lost")
				}
			})
		}
	}
}

// TestBuildUnreferencedRows pins the shape the rank propagation must
// not lose: child rows that no parent row references have empty lists
// from that level up, and an upper level nobody reaches is all empty.
func TestBuildUnreferencedRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := newChain(t, rng, 3, 6, 1)
	c.inv[0] = [][]uint32{{2}, nil, {1, 3}, nil, nil, nil} // L1 rows 1..3 reference L0 rows 3, 1, 3
	c.inv[1] = [][]uint32{nil, {1, 2}, nil}                // L2 rows 1, 2 reference L1 row 2 only
	c.rows = []int{6, 3, 2}
	vals := []value.Value{value.NewInt(7), value.NewInt(8), value.NewInt(7), value.NewInt(9), value.NewInt(8), value.NewInt(7)}
	want, err := referenceBuild(c.st, c.sch, "L0", "C", value.Int, vals, false, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(c.st, c.sch, "L0", "C", columnOf(value.Int, vals), false, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, got, want)
	assertSameEncoding(t, new(Encoder), c, "C", columnOf(value.Int, vals), false)
	// 7 -> L0 {1,3,6}, L1 {1,2,3}, L2 {1,2}; 8 -> L0 {2,5}, nothing above; 9 -> L0 {4}.
	for i, wantLists := range [][][]uint32{{{1, 3, 6}, {1, 2, 3}, {1, 2}}, {{2, 5}, {}, {}}, {{4}, {}, {}}} {
		e, err := got.entry(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l, w := range wantLists {
			g, err := got.ReadList(e.Lists[l])
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g, w) {
				t.Fatalf("value %v level %d: %v, want %v", e.Value, l, g, w)
			}
		}
	}
}

// TestEncoderReuse runs one Encoder through jobs that shrink and then
// grow — rows, distinct values, depth and kind all changing — and holds
// every layout to a fresh reference encoding: scratch left from a larger
// job, or sized for a smaller one, would show in the bytes.
func TestEncoderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var enc Encoder
	for k, job := range []struct {
		depth, rows, domain int
		kind                value.Kind
		dense               bool
	}{
		{4, 400, 30, value.String, false},
		{3, 250, 250, value.Int, true},
		{2, 120, 7, value.Float, false},
		{1, 40, 40, value.Date, false},
		{3, 7, 2, value.String, false},
		{2, 0, 1, value.Int, false},
		{1, 1, 1, value.Bool, false},
		{2, 60, 9, value.Int, false},
		{4, 300, 300, value.Int, true},
		{3, 500, 60, value.String, false},
		{4, 900, 900, value.Int, false},
	} {
		c := newChain(t, rng, job.depth, job.rows, 1.9)
		vals := make([]value.Value, job.rows)
		for i := range vals {
			d := int64(rng.Intn(job.domain))
			switch {
			case job.dense:
				vals[i] = value.NewInt(int64(i + 1))
			case job.kind == value.String:
				vals[i] = value.NewString(fmt.Sprintf("s%03d", d))
			case job.kind == value.Float:
				vals[i] = value.NewFloat(float64(d) / 4)
			case job.kind == value.Date:
				vals[i] = value.NewDateDays(13000 + d)
			case job.kind == value.Bool:
				vals[i] = value.NewBool(d%2 == 1)
			case job.domain > 500: // spread too wide for rankWords' table
				vals[i] = value.NewInt(d * 1000003)
			default:
				vals[i] = value.NewInt(d - 3)
			}
		}
		t.Run(fmt.Sprintf("job=%d/rows=%d/depth=%d", k, job.rows, job.depth), func(t *testing.T) {
			assertSameEncoding(t, &enc, c, "C", boundary(t, job.kind, vals), job.dense)
		})
	}
}

// TestBuildFloatEquivalence: float equality is an equivalence, so a FLOAT
// column holding NaNs, both zeros and duplicates has one dictionary entry
// per distinct value — NaN first — and an equality lookup finds each. (A
// NaN used to compare equal to everything and unequal to itself: one entry
// per NaN row, in an order the sort was free to choose.)
func TestBuildFloatEquivalence(t *testing.T) {
	c := newChain(t, rand.New(rand.NewSource(3)), 2, 9, 1.5)
	negZero, payloadNaN := math.Copysign(0, -1), math.Float64frombits(0xFFF8000000000042)
	var vals []value.Value
	for _, f := range []float64{2.5, math.NaN(), negZero, payloadNaN, 0, 2.5, math.Inf(1), math.NaN(), -1} {
		vals = append(vals, value.NewFloat(f))
	}
	ix, err := Build(c.st, c.sch, "L0", "C", columnOf(value.Float, vals), false, c.edges)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := [][]uint32{{2, 4, 8}, {9}, {3, 5}, {1, 6}, {7}} // NaN, -1, 0, 2.5, +Inf
	if ix.DistinctValues() != len(wantRows) {
		t.Fatalf("%d entries, want %d", ix.DistinctValues(), len(wantRows))
	}
	for i, probe := range []float64{payloadNaN, -1, negZero, 2.5, math.Inf(1)} {
		e, ok, err := ix.LookupEq(value.NewFloat(probe))
		if err != nil || !ok || e.Idx != i {
			t.Fatalf("LookupEq(%v) = entry %d ok=%v err=%v, want entry %d", probe, e.Idx, ok, err, i)
		}
		rows, err := ix.ReadList(e.Lists[0])
		if err != nil || !slices.Equal(rows, wantRows[i]) {
			t.Fatalf("LookupEq(%v) rows %v (%v), want %v", probe, rows, err, wantRows[i])
		}
	}
}

// TestBuildErrorsReadTheSame runs the failure cases through both builds.
func TestBuildErrorsReadTheSame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ints := func(xs ...int64) []value.Value {
		out := make([]value.Value, len(xs))
		for i, x := range xs {
			out[i] = value.NewInt(x)
		}
		return out
	}
	cases := []struct {
		name  string
		kind  value.Kind
		vals  []value.Value
		table string
		edge  bool // drop the inverted edge
	}{
		{name: "unknown table", kind: value.Int, vals: ints(1), table: "Nope"},
		{name: "missing inverted edge", kind: value.Int, vals: ints(1, 1, 2), edge: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChain(t, rng, 2, len(tc.vals), 1.5)
			table := "L0"
			if tc.table != "" {
				table = tc.table
			}
			inv := Edges(c.edges)
			if tc.edge {
				inv = func(parent, child string) (Edge, error) { return Edge{}, errors.New("edge gone") }
			}
			_, wantErr := referenceBuild(c.st, c.sch, table, "C", tc.kind, tc.vals, false, inv)
			_, gotErr := Build(c.st, c.sch, table, "C", columnOf(tc.kind, tc.vals), false, inv)
			if wantErr == nil || gotErr == nil {
				t.Fatalf("expected both builds to fail: reference %v, Build %v", wantErr, gotErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text differs:\n got  %s\n want %s", gotErr, wantErr)
			}
			if errors.Is(wantErr, value.ErrIncomparable) != errors.Is(gotErr, value.ErrIncomparable) {
				t.Fatal("error chain differs")
			}
		})
	}
}

// BenchmarkClimbingBuild measures the index build on a depth-3 chain
// (2 000 rows, climbing to ~6 000 and ~20 000): a dense key translator,
// a low-cardinality column and a high-cardinality one.
func BenchmarkClimbingBuild(b *testing.B) {
	const rows = 2000
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name   string
		dense  bool
		domain int
	}{{"dense-pk", true, 0}, {"low-cardinality", false, 12}, {"high-cardinality", false, rows}} {
		b.Run(tc.name, func(b *testing.B) {
			c := newChain(b, rng, 3, rows, 3.2)
			col := value.MakeColumn(value.String, rows)
			if tc.dense {
				col = value.MakeColumn(value.Int, rows)
			}
			for i := range rows {
				if tc.dense {
					col.Append(value.NewInt(int64(i + 1)))
				} else {
					col.Append(value.NewString(fmt.Sprintf("v%05d", rng.Intn(tc.domain))))
				}
			}
			edges := c.frozen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(c.st, c.sch, "L0", "C", col, tc.dense, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClimbingEncode is BenchmarkClimbingBuild's layouts without the
// flash writes, through one Encoder the way a CHECKPOINT worker runs its
// jobs: what the rebuild pays on the host per index.
func BenchmarkClimbingEncode(b *testing.B) {
	const rows = 2000
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name   string
		dense  bool
		domain int
	}{{"dense-pk", true, 0}, {"low-cardinality", false, 12}, {"high-cardinality", false, rows}} {
		b.Run(tc.name, func(b *testing.B) {
			c := newChain(b, rng, 3, rows, 3.2)
			col := value.MakeColumn(value.String, rows)
			if tc.dense {
				col = value.MakeColumn(value.Int, rows)
			}
			for i := range rows {
				if tc.dense {
					col.Append(value.NewInt(int64(i + 1)))
				} else {
					col.Append(value.NewString(fmt.Sprintf("v%05d", rng.Intn(tc.domain))))
				}
			}
			var enc Encoder
			edges := c.frozen()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.Encode(c.sch, "L0", "C", col, tc.dense, edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
