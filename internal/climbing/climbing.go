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
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
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

// Build constructs a climbing index over vals (the column values of Table
// in row order, so row i has ID i+1). dense marks primary-key columns
// whose value i+1 sits at entry i, enabling O(1) lookups. The index climbs
// from table to the schema root using inv.
func Build(st *store.Store, sch *schema.Schema, table, column string, kind value.Kind, vals []value.Value, dense bool, inv Inverted) (*Index, error) {
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
		kind:    kind,
		dense:   dense,
		st:      st,
		entSize: 4 + 8*len(levels),
	}

	// Group row IDs by value; appending in row order keeps lists sorted.
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
	ix.vals = distinct
	if dense {
		if len(distinct) != len(vals) {
			return nil, fmt.Errorf("climbing: %s.%s: dense index requires unique values (%d distinct of %d rows)",
				table, column, len(distinct), len(vals))
		}
		if err := checkDense(distinct); err != nil {
			return nil, fmt.Errorf("climbing: %s.%s: %w", table, column, err)
		}
	}

	// Fetch the inverted edges once per level.
	invs := make([][][]uint32, len(levels)-1)
	for l := 1; l < len(levels); l++ {
		iv, err := inv(levels[l], levels[l-1])
		if err != nil {
			return nil, fmt.Errorf("climbing: inverted %s->%s: %w", levels[l], levels[l-1], err)
		}
		invs[l-1] = iv
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

// climbOnce unions the parent lists of every ID in list. The per-child
// parent lists are disjoint (each parent row references one child), so
// the union is a merge of disjoint sorted lists.
func climbOnce(list []uint32, inv [][]uint32) []uint32 {
	var out []uint32
	for _, id := range list {
		if int(id) <= len(inv) {
			out = append(out, inv[id-1]...)
		}
	}
	slices.Sort(out)
	return out
}

func checkDense(distinct []value.Value) error {
	for i, v := range distinct {
		if v.Kind() != value.Int || v.Int() != int64(i+1) {
			return fmt.Errorf("dense index requires values 1..n, entry %d is %v", i, v)
		}
	}
	return nil
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
	raw := scratch[:]
	if ix.entSize > len(raw) {
		raw = make([]byte, ix.entSize)
	}
	raw = raw[:ix.entSize]
	if err := ix.st.Cache().ReadAt(raw, ix.entriesExt.Start+int64(i)*int64(ix.entSize)); err != nil {
		return nil, err
	}
	return raw, nil
}

// entry reads dictionary entry i.
func (ix *Index) entry(i int) (Entry, error) {
	if i < 0 || i >= ix.n {
		return Entry{}, fmt.Errorf("climbing: entry %d of %d", i, ix.n)
	}
	var scratch [64]byte
	raw, err := ix.entryRecord(i, &scratch)
	if err != nil {
		return Entry{}, err
	}
	valOff := binary.LittleEndian.Uint32(raw[0:4])
	v, err := ix.readValue(i, int64(valOff))
	if err != nil {
		return Entry{}, err
	}
	e := Entry{Idx: i, Value: v, Lists: make([]ListRef, len(ix.Levels))}
	for l := range ix.Levels {
		off := binary.LittleEndian.Uint32(raw[4+8*l:])
		cnt := binary.LittleEndian.Uint32(raw[8+8*l:])
		var ext flash.Extent
		ext.Start = ix.listsExt.Start + int64(off)
		// The list's byte length is bounded by the next list's offset;
		// the decoder stops after cnt elements, so the extent may safely
		// extend to the end of the lists region.
		ext.Len = ix.listsExt.End() - ext.Start
		e.Lists[l] = ListRef{Count: int(cnt), Ext: ext}
	}
	return e, nil
}

// probeValue reads only the value of entry i — the binary-search path,
// which does not need the posting-list refs. The flash traffic is
// identical to entry's (the full record and the value bytes stream
// through the page cache); only the host-side Entry construction is
// skipped.
func (ix *Index) probeValue(i int) (value.Value, error) {
	if i < 0 || i >= ix.n {
		return value.Value{}, fmt.Errorf("climbing: entry %d of %d", i, ix.n)
	}
	var scratch [64]byte
	raw, err := ix.entryRecord(i, &scratch)
	if err != nil {
		return value.Value{}, err
	}
	return ix.readValue(i, int64(binary.LittleEndian.Uint32(raw[0:4])))
}

// readValue returns the value of entry i starting at valOff within the
// values region. The encoded bytes always stream through the page cache
// (that is the simulated device cost); the decode itself is served from
// the host-side memo when available.
func (ix *Index) readValue(i int, valOff int64) (value.Value, error) {
	// The value's length is bounded by the next entry's value offset.
	end := ix.valuesExt.Len
	if i+1 < ix.n {
		var raw [4]byte
		if err := ix.st.Cache().ReadAt(raw[:], ix.entriesExt.Start+int64(i+1)*int64(ix.entSize)); err != nil {
			return value.Value{}, err
		}
		end = int64(binary.LittleEndian.Uint32(raw[:]))
	}
	var bufArr [128]byte
	buf := bufArr[:]
	if n := int(end - valOff); n <= len(buf) {
		buf = buf[:n]
	} else {
		buf = make([]byte, n)
	}
	if err := ix.st.Cache().ReadAt(buf, ix.valuesExt.Start+valOff); err != nil {
		return value.Value{}, err
	}
	if ix.vals != nil {
		return ix.vals[i], nil
	}
	v, _, err := value.Decode(buf)
	return v, err
}

// LookupEq returns the entry for v, if present. Query literals should be
// coerced to the column kind first; string literals against DATE columns
// are handled via value.Compare's coercion.
func (ix *Index) LookupEq(v value.Value) (Entry, bool, error) {
	cv, err := value.Coerce(v, ix.kind)
	if err != nil {
		return Entry{}, false, err
	}
	if ix.dense {
		id := cv.Int()
		if id < 1 || id > int64(ix.n) {
			return Entry{}, false, nil
		}
		e, err := ix.entry(int(id - 1))
		return e, err == nil, err
	}
	lo, err := ix.lowerBound(cv)
	if err != nil {
		return Entry{}, false, err
	}
	if lo >= ix.n {
		return Entry{}, false, nil
	}
	e, err := ix.entry(lo)
	if err != nil {
		return Entry{}, false, err
	}
	c, err := value.Compare(e.Value, cv)
	if err != nil {
		return Entry{}, false, err
	}
	if c != 0 {
		return Entry{}, false, nil
	}
	return e, true, nil
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
		cv, err := value.Coerce(lo.V, ix.kind)
		if err != nil {
			return nil, err
		}
		start, err = ix.lowerBound(cv)
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
				c, err := value.Compare(sv, cv)
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
	it := &EntryIter{ix: ix, next: start}
	if hi != nil {
		cv, err := value.Coerce(hi.V, ix.kind)
		if err != nil {
			return nil, err
		}
		it.hi = &Bound{V: cv, Inclusive: hi.Inclusive}
	}
	return it, nil
}

// EntryIter streams dictionary entries in value order.
type EntryIter struct {
	ix   *Index
	next int
	hi   *Bound
}

// Next returns the next entry; ok is false when the range is exhausted.
func (it *EntryIter) Next() (Entry, bool, error) {
	if it.next >= it.ix.n {
		return Entry{}, false, nil
	}
	e, err := it.ix.entry(it.next)
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
