// Package climbing implements the paper's climbing indexes (Section 4,
// Figure 4): a value index on column T.c that maps each value not only to
// the matching T identifiers "as usual", but also to precomputed lists of
// identifiers for every ancestor of T on the path to the tree root. The
// entry for "Spain" in the Doctor.Country index carries Doctor IDs, Visit
// IDs and Prescription IDs, so a selection deep in the tree reaches the
// root table in a single step.
//
// On flash an index is three regions:
//
//	entries — fixed-width records sorted by value:
//	          valueOff u32, then per level {listOff u32, count u32}
//	values  — concatenated self-delimiting value encodings
//	lists   — concatenated delta-varint ID lists (see codec)
//
// Lookups binary-search the entries region through the page cache;
// posting lists stream through one-page flash readers, so a lookup never
// needs more than a few hundred bytes of device RAM.
package climbing

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Index is a climbing index on Table.Column.
type Index struct {
	Table  string
	Column string
	// Levels[0] is Table itself; subsequent entries climb parent by
	// parent to the tree root.
	Levels []string

	kind    value.Kind
	dense   bool // values are exactly the dense IDs 1..n (primary keys)
	n       int  // distinct values
	entSize int

	// vals memoizes the decoded dictionary values host-side (they are
	// immutable after Build). Lookups still stream the encoded bytes
	// through the page cache — the simulated flash cost and the cache's
	// LRU state are untouched — but skip the per-probe re-decode and its
	// allocations.
	vals []value.Value

	st         *store.Store
	entriesExt flash.Extent
	valuesExt  flash.Extent
	listsExt   flash.Extent
	// entHint and valHint are the entries' and the values' page-cache
	// hints (see flash.Hint): they save the cache's scan, never a read.
	// Like the cache, they are touched only under the engine's device
	// gate.
	entHint flash.Hint
	valHint flash.Hint
}

// ListRef locates one posting list on flash.
type ListRef struct {
	Count int
	Ext   flash.Extent
}

// Entry is one dictionary entry: a value and its per-level posting lists,
// aligned with Index.Levels.
type Entry struct {
	Idx   int
	Value value.Value
	Lists []ListRef
}

// Inverted supplies, for a (parent, child) edge of the schema tree, the
// inverted foreign key: result[childID-1] is the sorted list of parent IDs
// referencing that child row. The engine computes each edge once at load.
type Inverted func(parent, child string) ([][]uint32, error)

// Build constructs a climbing index over col and programs it into st:
// Encode, then Program.
func Build(st *store.Store, sch *schema.Schema, table, column string, col value.Column, dense bool, inv Inverted) (*Index, error) {
	enc, err := Encode(sch, table, column, col, dense, inv)
	if err != nil {
		return nil, err
	}
	return enc.Program(st)
}

// Encoded is a climbing index laid out in host memory, not yet on
// flash: its dictionary and the bytes of its three regions.
type Encoded struct {
	ix                     *Index
	entries, values, lists []byte
}

// Encode lays out a climbing index over col, the column's values in row
// order (row i has ID i+1). dense marks a primary key, whose value i+1
// sits at entry i by construction, enabling O(1) lookups. The index
// climbs from table to the schema root using inv. Encode touches no
// device, so indexes over read-only columns and edges may be encoded
// concurrently.
//
// The posting lists are built by rank propagation. In a tree schema every
// row of a level references exactly one row of the level below, hence
// belongs to exactly one dictionary value: each row of table gets the
// rank of its value among the sorted distinct values (rankWords for Int,
// Date and Bool words, rankStrings, rankBySort over a FLOAT column's IEEE
// order), the ranks are carried up the inverted edges level by level, and
// each level is bucketed by rank in one counting pass filled in ascending
// row order — so every list comes out sorted and nothing is re-sorted. The
// three regions are a pure function of (col, inv): their bytes are what
// CHECKPOINT programs into flash, and the tests hold them identical to the
// map-grouping build this replaced.
func Encode(sch *schema.Schema, table, column string, col value.Column, dense bool, inv Inverted) (*Encoded, error) {
	tb, ok := sch.Table(table)
	if !ok {
		return nil, fmt.Errorf("climbing: unknown table %s", table)
	}
	var levels []string
	for _, t := range sch.PathToRoot(tb.Name) {
		levels = append(levels, t.Name)
	}
	ix := &Index{
		Table:   tb.Name,
		Column:  column,
		Levels:  levels,
		kind:    col.Kind,
		dense:   dense,
		entSize: 4 + 8*len(levels),
	}

	// rank[i] is the position of row i's value among the sorted distinct
	// values, first[r] a row holding the value of rank r.
	var rank, first []int32
	switch words := col.Words; col.Kind {
	case value.String:
		rank, first = rankStrings(col.Strs)
	case value.Float:
		rank, first = rankBySort(len(words), func(a, b int32) int {
			return cmp.Compare(math.Float64frombits(uint64(words[a])), math.Float64frombits(uint64(words[b])))
		})
	default:
		rank, first = rankWords(words)
	}
	n := len(first)
	sorted := make([]value.Value, n)
	for r, i := range first {
		sorted[r] = col.Value(int(i))
	}
	ix.n = n
	ix.vals = sorted

	// Per level: the row IDs grouped by rank (ids[begin[r]:begin[r+1]] is
	// rank r's list, ascending).
	ids := make([][]uint32, len(levels))
	begin := make([][]int32, len(levels))
	listsCap := 0
	for l := range levels {
		if l > 0 {
			iv, err := inv(levels[l], levels[l-1])
			if err != nil {
				return nil, fmt.Errorf("climbing: inverted %s->%s: %w", levels[l], levels[l-1], err)
			}
			rank = climbRanks(rank, iv)
		}
		ids[l], begin[l] = bucketByRank(rank, n)
		// No delta exceeds the level's row count, which bounds its varint.
		listsCap += len(ids[l]) * ((bits.Len(uint(len(rank))) + 6) / 7)
	}

	// The regions are sized once: exactly for entries and values, by that
	// bound for lists.
	valuesCap := 0
	for _, v := range sorted {
		valuesCap += v.EncodedSize()
	}
	entriesBuf := make([]byte, 0, n*ix.entSize)
	valuesBuf := make([]byte, 0, valuesCap)
	listsBuf := make([]byte, 0, listsCap)
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

// Program appends the encoded regions to st — entries, values, lists —
// and returns the index reading them there.
func (enc *Encoded) Program(st *store.Store) (*Index, error) {
	ix := enc.ix
	ix.st = st
	var err error
	if ix.entriesExt, err = st.AppendRegion(enc.entries); err != nil {
		return nil, err
	}
	if ix.valuesExt, err = st.AppendRegion(enc.values); err != nil {
		return nil, err
	}
	if ix.listsExt, err = st.AppendRegion(enc.lists); err != nil {
		return nil, err
	}
	return ix, nil
}

// rankBySort ranks rows 0..n-1 under a three-way comparison of their
// values: it sorts the rows by (value, row) and numbers the runs of equal
// values, so first[r] is the first row holding the value of rank r.
func rankBySort(n int, compare func(a, b int32) int) (rank, first []int32) {
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(compare(a, b), cmp.Compare(a, b)) })
	rank = make([]int32, n)
	for j, i := range order {
		if j == 0 || compare(order[j-1], i) != 0 {
			first = append(first, i)
		}
		rank[i] = int32(len(first) - 1)
	}
	return rank, first
}

// tableSpan bounds the direct-address table of rankWords at this many
// slots per row; a column spread wider than that is sorted instead.
const tableSpan = 4

// rankWords ranks a column of Int, Date or Bool payload words. Keys, dates
// and the small domains of a real schema sit in a range a few times the
// row count at most, so the usual column is ranked by one table indexed by
// value − min: no hashing, no comparison.
func rankWords(words []int64) (rank, first []int32) {
	n := len(words)
	if n == 0 {
		return nil, nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, w := range words {
		lo, hi = min(lo, w), max(hi, w)
	}
	// hi >= lo, so the unsigned difference is exact even when the signed
	// one would overflow (MinInt64 and MaxInt64 in one column).
	span := uint64(hi) - uint64(lo)
	if span >= tableSpan*uint64(n) {
		return rankBySort(n, func(a, b int32) int { return cmp.Compare(words[a], words[b]) })
	}
	slot := make([]int32, span+1) // first row holding lo+j, plus one; then its rank, plus one
	for i, w := range words {
		if s := &slot[uint64(w)-uint64(lo)]; *s == 0 {
			*s = int32(i + 1)
		}
	}
	first = make([]int32, 0, min(uint64(n), span+1))
	for j, s := range slot {
		if s != 0 {
			first = append(first, s-1)
			slot[j] = int32(len(first))
		}
	}
	rank = make([]int32, n)
	for i, w := range words {
		rank[i] = slot[uint64(w)-uint64(lo)] - 1
	}
	return rank, first
}

// rankStrings numbers the distinct strings as first seen through a map
// keyed by the string itself, then ranks only the distinct ones.
func rankStrings(strs []string) (rank, first []int32) {
	seen := map[string]int32{}
	var firstSeen []int32 // first-seen number -> row
	rank = make([]int32, len(strs))
	for i, str := range strs {
		k, ok := seen[str]
		if !ok {
			k = int32(len(firstSeen))
			seen[str] = k
			firstSeen = append(firstSeen, int32(i))
		}
		rank[i] = k
	}
	rankOf, order := rankBySort(len(firstSeen), func(a, b int32) int {
		return strings.Compare(strs[firstSeen[a]], strs[firstSeen[b]])
	})
	first = make([]int32, len(order))
	for r, k := range order {
		first[r] = firstSeen[k]
	}
	for i, k := range rank {
		rank[i] = rankOf[k]
	}
	return rank, first
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

// Kind reports the indexed column's value kind.
func (ix *Index) Kind() value.Kind { return ix.kind }

// Dense reports whether the index is a dense primary-key translator.
func (ix *Index) Dense() bool { return ix.dense }

// DistinctValues reports the dictionary size.
func (ix *Index) DistinctValues() int { return ix.n }

// Bytes reports the index's flash footprint.
func (ix *Index) Bytes() int64 {
	return ix.entriesExt.Len + ix.valuesExt.Len + ix.listsExt.Len
}

// LevelOf returns the position of table in Levels, or -1.
func (ix *Index) LevelOf(table string) int {
	for i, l := range ix.Levels {
		if strings.EqualFold(l, table) {
			return i
		}
	}
	return -1
}

// entryRecord reads dictionary record i through the page cache into the
// caller's scratch array (heap fallback for oversized records), so the
// two read paths — full entries and value-only probes — share one
// layout-aware reader.
func (ix *Index) entryRecord(i int, scratch *[64]byte) ([]byte, error) {
	cell, err := ix.st.Cache().Cell(&ix.entHint, ix.entriesExt.Start+int64(i)*int64(ix.entSize), ix.entSize, scratch[:0])
	if err != nil {
		return nil, err
	}
	// The record outlives the value reads that follow it, which may
	// reuse its frame: keep a copy.
	return append(scratch[:0], cell...), nil
}

// readEntry reads dictionary record i and its value through the page
// cache: the record, the next record's value offset, the value bytes, in
// that order. Every lookup goes through it, so the access pattern — and
// with it the cache's hit/miss sequence — is the same whether the caller
// wants the whole entry, one level's list or only the value.
func (ix *Index) readEntry(i int, scratch *[64]byte) ([]byte, value.Value, error) {
	if i < 0 || i >= ix.n {
		return nil, value.Value{}, fmt.Errorf("climbing: entry %d of %d", i, ix.n)
	}
	raw, err := ix.entryRecord(i, scratch)
	if err != nil {
		return nil, value.Value{}, err
	}
	v, err := ix.readValue(i, int64(binary.LittleEndian.Uint32(raw[0:4])))
	return raw, v, err
}

// listRef decodes level l's posting-list reference from a record.
func (ix *Index) listRef(raw []byte, l int) ListRef {
	off := binary.LittleEndian.Uint32(raw[4+8*l:])
	cnt := binary.LittleEndian.Uint32(raw[8+8*l:])
	start := ix.listsExt.Start + int64(off)
	// The list's byte length is bounded by the next list's offset; the
	// decoder stops after cnt elements, so the extent may safely extend to
	// the end of the lists region.
	return ListRef{Count: int(cnt), Ext: flash.Extent{Start: start, Len: ix.listsExt.End() - start}}
}

// listRefs decodes every level's reference from a record into lists, or
// into a fresh slice when lists is nil.
func (ix *Index) listRefs(raw []byte, lists []ListRef) []ListRef {
	if lists == nil {
		lists = make([]ListRef, len(ix.Levels))
	}
	for l := range lists {
		lists[l] = ix.listRef(raw, l)
	}
	return lists
}

// entry reads dictionary entry i; lists is as for listRefs.
func (ix *Index) entry(i int, lists []ListRef) (Entry, error) {
	var scratch [64]byte
	raw, v, err := ix.readEntry(i, &scratch)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Idx: i, Value: v, Lists: ix.listRefs(raw, lists)}, nil
}

// probeValue reads only the value of entry i — the binary-search path,
// which does not need the posting-list refs.
func (ix *Index) probeValue(i int) (value.Value, error) {
	var scratch [64]byte
	_, v, err := ix.readEntry(i, &scratch)
	return v, err
}

// readValue returns the value of entry i starting at valOff within the
// values region. The encoded bytes always stream through the page cache
// (that is the simulated device cost); the decode itself is served from
// the host-side memo when available.
func (ix *Index) readValue(i int, valOff int64) (value.Value, error) {
	// The value's length is bounded by the next entry's value offset.
	end := ix.valuesExt.Len
	if i+1 < ix.n {
		var spill [4]byte
		raw, err := ix.st.Cache().Cell(&ix.entHint, ix.entriesExt.Start+int64(i+1)*int64(ix.entSize), 4, spill[:0])
		if err != nil {
			return value.Value{}, err
		}
		end = int64(binary.LittleEndian.Uint32(raw))
	}
	var spill [128]byte
	enc, err := ix.st.Cache().Cell(&ix.valHint, ix.valuesExt.Start+valOff, int(end-valOff), spill[:0])
	if err != nil {
		return value.Value{}, err
	}
	if ix.vals != nil {
		return ix.vals[i], nil
	}
	v, _, err := value.Decode(enc)
	return v, err
}

// find locates v's dictionary record and reads it into scratch; i is -1
// when v is not in the dictionary.
func (ix *Index) find(v value.Value, scratch *[64]byte) (i int, raw []byte, val value.Value, err error) {
	if ix.dense {
		if v.Kind() != value.Int {
			return -1, nil, value.Value{}, fmt.Errorf("climbing: %s literal against the %s.%s key", v.Kind(), ix.Table, ix.Column)
		}
		id := v.Int()
		if id < 1 || id > int64(ix.n) {
			return -1, nil, value.Value{}, nil
		}
		i = int(id - 1)
	} else if i, err = ix.lowerBound(v); err != nil || i >= ix.n {
		return -1, nil, value.Value{}, err
	}
	if raw, val, err = ix.readEntry(i, scratch); err != nil {
		return -1, nil, value.Value{}, err
	}
	if !ix.dense {
		if c, err := value.Compare(val, v); err != nil || c != 0 {
			return -1, nil, value.Value{}, err
		}
	}
	return i, raw, val, nil
}

// LookupEq returns the entry for v, if present. The planner coerces query
// literals to the column kind once; what value.Compare reads across kinds
// (a string against a DATE index, an integer against a FLOAT one) is
// compared as it reads it.
func (ix *Index) LookupEq(v value.Value) (Entry, bool, error) {
	var scratch [64]byte
	i, raw, val, err := ix.find(v, &scratch)
	if err != nil || i < 0 {
		return Entry{}, false, err
	}
	return Entry{Idx: i, Value: val, Lists: ix.listRefs(raw, nil)}, true, nil
}

// LookupList is LookupEq for a caller that wants one level's posting
// list: the same page-cache reads in the same order (find), and no Entry
// built — key translation calls it once per identifier.
func (ix *Index) LookupList(v value.Value, level int) (ListRef, bool, error) {
	if level < 0 || level >= len(ix.Levels) {
		return ListRef{}, false, fmt.Errorf("climbing: level %d of %d", level, len(ix.Levels))
	}
	var scratch [64]byte
	i, raw, _, err := ix.find(v, &scratch)
	if err != nil || i < 0 {
		return ListRef{}, false, err
	}
	return ix.listRef(raw, level), true, nil
}

// lowerBound returns the first entry index whose value is >= v.
func (ix *Index) lowerBound(v value.Value) (int, error) {
	lo, hi := 0, ix.n
	for lo < hi {
		mid := (lo + hi) / 2
		mv, err := ix.probeValue(mid)
		if err != nil {
			return 0, err
		}
		c, err := value.Compare(mv, v)
		if err != nil {
			return 0, err
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Bound is a range endpoint; nil means unbounded.
type Bound struct {
	V         value.Value
	Inclusive bool
}

// Range returns an iterator over entries with lo <= value <= hi (subject
// to inclusivity). Either bound may be nil.
func (ix *Index) Range(lo, hi *Bound) (*EntryIter, error) {
	start := 0
	if lo != nil {
		var err error
		start, err = ix.lowerBound(lo.V)
		if err != nil {
			return nil, err
		}
		if !lo.Inclusive {
			// Skip entries equal to the bound.
			for start < ix.n {
				sv, err := ix.probeValue(start)
				if err != nil {
					return nil, err
				}
				c, err := value.Compare(sv, lo.V)
				if err != nil {
					return nil, err
				}
				if c > 0 {
					break
				}
				start++
			}
		}
	}
	it := &EntryIter{ix: ix, next: start, lists: make([]ListRef, len(ix.Levels))}
	if hi != nil {
		b := *hi
		it.hi = &b
	}
	return it, nil
}

// EntryIter streams dictionary entries in value order.
type EntryIter struct {
	ix    *Index
	next  int
	hi    *Bound
	lists []ListRef // backs every entry's Lists: one slice per scan, not per entry
}

// Next returns the next entry; ok is false when the range is exhausted.
// The entry's Lists are valid until the following call to Next: callers
// copy out the refs they keep.
func (it *EntryIter) Next() (Entry, bool, error) {
	if it.next >= it.ix.n {
		return Entry{}, false, nil
	}
	e, err := it.ix.entry(it.next, it.lists)
	if err != nil {
		return Entry{}, false, err
	}
	if it.hi != nil {
		c, err := value.Compare(e.Value, it.hi.V)
		if err != nil {
			return Entry{}, false, err
		}
		if c > 0 || (c == 0 && !it.hi.Inclusive) {
			it.next = it.ix.n
			return Entry{}, false, nil
		}
	}
	it.next++
	return e, true, nil
}

// OpenList returns a streaming decoder over a posting list. The decoder
// holds one flash page buffer; callers charge that against the device
// arena per concurrently open list.
func (ix *Index) OpenList(ref ListRef) *codec.ListDecoder {
	r := flash.NewReader(ix.st.Device().Flash, ref.Ext)
	return codec.NewListDecoder(r, ref.Count)
}

// ReadList materializes a posting list (test and small-list helper).
func (ix *Index) ReadList(ref ListRef) ([]uint32, error) {
	d := ix.OpenList(ref)
	out := make([]uint32, 0, ref.Count)
	for {
		id, ok, err := d.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, id)
	}
}

// CountRange sums the per-level counts of all entries in the range —
// the optimizer's exact selectivity statistic (it pays the device cost
// of the dictionary scan, as the real device would).
func (ix *Index) CountRange(lo, hi *Bound, level int) (int, error) {
	if level < 0 || level >= len(ix.Levels) {
		return 0, fmt.Errorf("climbing: level %d of %d", level, len(ix.Levels))
	}
	it, err := ix.Range(lo, hi)
	if err != nil {
		return 0, err
	}
	total := 0
	for {
		e, ok, err := it.Next()
		if err != nil {
			return 0, err
		}
		if !ok {
			return total, nil
		}
		total += e.Lists[level].Count
	}
}
