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
	"slices"
	"strings"

	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/pred"
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
	// immutable after Build); a dense index keeps none, its entry i being
	// the value i+1. Lookups still stream the encoded bytes through the
	// page cache — the simulated flash cost and the cache's LRU state are
	// untouched — but skip the per-probe re-decode and its allocations.
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

// Edge is one (parent, child) edge of the schema tree, both ways: FK[p-1]
// is the child row that parent row p references, Inv[c-1] the parent rows
// referencing child row c, ascending. Every parent row references exactly
// one child row, so the lists of Inv hold each parent row once.
type Edge struct {
	FK  []uint32
	Inv [][]uint32
}

// Edges supplies the edge between parent and child. The engine keeps
// both directions of every edge of its load.
type Edges func(parent, child string) (Edge, error)

// Build constructs a climbing index over col and programs it into st:
// Encode, then Program.
func Build(st *store.Store, sch *schema.Schema, table, column string, col value.Column, dense bool, edges Edges) (*Index, error) {
	enc, err := new(Encoder).Encode(sch, table, column, col, dense, edges)
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

// Encoder lays out climbing indexes. It keeps the scratch a layout needs
// — the ranks, the per-level buckets, the ranking tables — and reuses it
// for the next Encode, so a goroutine encoding a run of indexes allocates
// little beyond what each index keeps. An Encoder serves one goroutine at
// a time, its zero value is ready, and it should die with the run it
// serves: it keeps the largest scratch it has needed.
type Encoder struct {
	rank, up []int32          // one level's ranks (-1: no list), then the next level's
	first    []int32          // a row of each rank, in rank order
	edges    []Edge           // the edges from the indexed table up
	ids      []uint32         // every level's IDs grouped by rank
	begin    []int32          // per level, n+1 bounds into ids
	next     []int32          // one level's fill cursors
	slot     []int32          // rankWords' direct-address table
	order    []int32          // rankBySort's permutation
	seen     map[string]int32 // rankStrings' first-seen numbers
	strs     []string         // rankStrings' distinct strings
}

// sized returns s with length n, reallocated when its capacity is short.
// The contents are neither kept nor cleared.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Encode lays out a climbing index over col, the column's values in row
// order (row i has ID i+1). dense marks a primary key, whose value i+1
// sits at entry i by construction, enabling O(1) lookups. The index
// climbs from table to the schema root along edges. Encode touches no
// device, so indexes over read-only columns and edges may be encoded
// concurrently, each goroutine with its own Encoder.
//
// The posting lists are built by rank propagation. In a tree schema every
// row of a level references exactly one row of the level below, hence
// belongs to exactly one dictionary value: each row of table gets the
// rank of its value among the sorted distinct values (rankWords for Int,
// Date and Bool words, rankStrings, rankBySort over a FLOAT column's IEEE
// order). Each level is then bucketed by rank: an upper level's buckets
// are counted on the level below, each child row adding its parent count
// to its rank's bucket, and filled in one ascending pass over the parent
// rows, each taking its child's rank through the foreign key — so every
// list comes out sorted and nothing is re-sorted. The three regions are a
// pure function of (col, edges): their bytes are what CHECKPOINT programs
// into flash, and the tests hold them identical to the map-grouping build
// and to the climb-then-bucket passes this replaced.
func (e *Encoder) Encode(sch *schema.Schema, table, column string, col value.Column, dense bool, edges Edges) (*Encoded, error) {
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

	// The edges up to the root, and the scratch sized for the largest
	// level and for all of them together.
	e.edges = e.edges[:0]
	rows, most, total := col.Len(), col.Len(), col.Len()
	for l := 1; l < len(levels); l++ {
		edge, err := edges(levels[l], levels[l-1])
		if err != nil {
			return nil, fmt.Errorf("climbing: inverted %s->%s: %w", levels[l], levels[l-1], err)
		}
		if len(edge.Inv) != rows {
			return nil, fmt.Errorf("climbing: edge %s->%s lists parents of %d rows, %s has %d", levels[l], levels[l-1], len(edge.Inv), levels[l-1], rows)
		}
		e.edges = append(e.edges, edge)
		rows = len(edge.FK)
		most, total = max(most, rows), total+rows
	}
	e.rank = sized(e.rank, most)[:col.Len()]
	e.up = sized(e.up, most)
	e.ids = sized(e.ids, total)

	// e.rank[i] is the position of row i's value among the sorted
	// distinct values, e.first[r] a row holding the value of rank r.
	e.rankColumn(col)
	n := len(e.first)
	valueOf := func(r int) value.Value { return col.Value(int(e.first[r])) }
	ix.n = n
	if !dense { // a dense index reads rank r's value as r+1 and keeps none
		ix.vals = make([]value.Value, n)
		for r := range n {
			ix.vals[r] = valueOf(r)
		}
	}

	// Per level l, the row IDs grouped by rank: rank r's list is
	// ids[begin[l][r]:begin[l][r+1]], ascending.
	e.begin = sized(e.begin, len(levels)*(n+1))
	clear(e.begin)
	e.next = sized(e.next, n)
	rank, up, ids, next := e.rank, e.up, e.ids, e.next
	off, listsCap := 0, 0
	for _, r := range rank {
		e.begin[r+1]++
	}
	for l := range levels {
		// Level l was counted on the level below (level 0 above); it is
		// filled here, and level l+1 counted on it: each row adds its
		// parent count to its rank's bucket.
		begin := e.begin[l*(n+1) : (l+1)*(n+1)]
		begin[0] = int32(off)
		for r := range n {
			begin[r+1] += begin[r]
		}
		off = int(begin[n])
		copy(next, begin[:n])
		var above []int32
		var inv [][]uint32
		if l+1 < len(levels) {
			above, inv = e.begin[(l+1)*(n+1):(l+2)*(n+1)], e.edges[l].Inv
		}
		if l == 0 {
			for i, r := range rank {
				ids[next[r]] = uint32(i + 1)
				next[r]++
				if above != nil {
					above[r+1] += int32(len(inv[i]))
				}
			}
		} else {
			// Every parent row takes its child's rank, -1 under an
			// unranked child.
			fk := e.edges[l-1].FK
			up = up[:len(fk)]
			for p, c := range fk {
				r := rank[c-1]
				up[p] = r
				if r >= 0 {
					ids[next[r]] = uint32(p + 1)
					next[r]++
					if above != nil {
						above[r+1] += int32(len(inv[p]))
					}
				}
			}
			rank, up = up, rank[:cap(rank)]
		}
		for r := range n {
			if lo, hi := begin[r], begin[r+1]; hi > lo {
				listsCap += listBound(int(hi-lo), ids[hi-1])
			}
		}
	}
	e.rank, e.up = rank, up

	// The regions are sized once: exactly for entries and values, by
	// listBound for lists.
	valuesCap := 0
	for r := range n {
		valuesCap += valueOf(r).EncodedSize()
	}
	entriesBuf := make([]byte, n*ix.entSize)
	valuesBuf := make([]byte, 0, valuesCap)
	listsBuf := make([]byte, listsCap)
	at := 0
	for r := range n {
		ent := entriesBuf[r*ix.entSize : (r+1)*ix.entSize]
		binary.LittleEndian.PutUint32(ent, uint32(len(valuesBuf)))
		valuesBuf = valueOf(r).Append(valuesBuf)
		for l := range levels {
			lo, hi := e.begin[l*(n+1)+r], e.begin[l*(n+1)+r+1]
			binary.LittleEndian.PutUint32(ent[4+8*l:], uint32(at))
			binary.LittleEndian.PutUint32(ent[8+8*l:], uint32(hi-lo))
			at += codec.PutIDList(listsBuf[at:], ids[lo:hi])
		}
	}

	return &Encoded{ix: ix, entries: entriesBuf, values: valuesBuf, lists: listsBuf[:at]}, nil
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

// listBound bounds the bytes codec.PutIDList writes for k ascending,
// distinct IDs the largest of which is m. The deltas it encodes are at
// least 1 and sum to m, so at most min(k, m>>7j) of them reach 2^7j and
// take a (j+1)-th byte — a bound as cheap as the list count, tight for a
// short list of large IDs and for a long one of small gaps alike.
func listBound(k int, m uint32) int {
	n := k
	for m >>= 7; m > 0; m >>= 7 {
		n += min(k, int(m))
	}
	return n
}

// rankColumn ranks col's rows into e.rank and lists a row of each rank,
// in rank order, in e.first.
func (e *Encoder) rankColumn(col value.Column) {
	switch words := col.Words; col.Kind {
	case value.String:
		e.rankStrings(col.Strs)
	case value.Float:
		e.order = sized(e.order, len(words))
		e.first = rankBySort(e.rank, e.order, e.first, func(a, b int32) int {
			return cmp.Compare(math.Float64frombits(uint64(words[a])), math.Float64frombits(uint64(words[b])))
		})
	default:
		e.rankWords(words)
	}
}

// rankBySort ranks rows 0..n-1 (n = len(rank) = len(order)) under a
// three-way comparison of their values: it sorts the rows by (value,
// row) in order and numbers the runs of equal values into rank. It
// returns first, refilled from first[:0]: first[r] is the first row
// holding the value of rank r.
func rankBySort(rank, order, first []int32, compare func(a, b int32) int) []int32 {
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Or(compare(a, b), cmp.Compare(a, b)) })
	first = first[:0]
	for j, i := range order {
		if j == 0 || compare(order[j-1], i) != 0 {
			first = append(first, i)
		}
		rank[i] = int32(len(first) - 1)
	}
	return first
}

// tableSpan bounds the direct-address table of rankWords at this many
// slots per row; a column spread wider than that is sorted instead.
const tableSpan = 4

// rankWords ranks a column of Int, Date or Bool payload words. Keys, dates
// and the small domains of a real schema sit in a range a few times the
// row count at most, so the usual column is ranked by one table indexed by
// value − min: no hashing, no comparison. A key column, 1..n in row
// order, is its own ranking, seen by the pass that finds the range.
func (e *Encoder) rankWords(words []int64) {
	n := len(words)
	e.first = e.first[:0]
	if n == 0 {
		return
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	keys := true // the words are 1..n in row order, as a key column's are
	for i, w := range words {
		lo, hi = min(lo, w), max(hi, w)
		keys = keys && w == int64(i+1)
	}
	if keys {
		first := slices.Grow(e.first, n)[:n]
		for i := range first {
			first[i] = int32(i)
			e.rank[i] = int32(i)
		}
		e.first = first
		return
	}
	// hi >= lo, so the unsigned difference is exact even when the signed
	// one would overflow (MinInt64 and MaxInt64 in one column).
	span := uint64(hi) - uint64(lo)
	if span >= tableSpan*uint64(n) {
		e.order = sized(e.order, n)
		e.first = rankBySort(e.rank, e.order, e.first, func(a, b int32) int { return cmp.Compare(words[a], words[b]) })
		return
	}
	e.slot = sized(e.slot, int(span+1)) // first row holding lo+j, plus one; then its rank, plus one
	slot := e.slot
	clear(slot)
	for i, w := range words {
		if s := &slot[uint64(w)-uint64(lo)]; *s == 0 {
			*s = int32(i + 1)
		}
	}
	first := slices.Grow(e.first, int(min(uint64(n), span+1)))
	for j, s := range slot {
		if s != 0 {
			first = append(first, s-1)
			slot[j] = int32(len(first))
		}
	}
	rank := e.rank
	for i, w := range words {
		rank[i] = slot[uint64(w)-uint64(lo)] - 1
	}
	e.first = first
}

// rankStrings numbers the distinct strings as first seen through a map
// keyed by the string itself, then sorts only the distinct ones. The
// first-seen rows and their ranks borrow e.next and e.up, which are free
// until the levels are bucketed.
func (e *Encoder) rankStrings(strs []string) {
	if e.seen == nil {
		e.seen = map[string]int32{}
	}
	clear(e.seen)
	seen := e.seen
	firstSeen := e.next[:0] // first-seen number -> row
	distinct := e.strs[:0]
	rank := e.rank
	for i, str := range strs {
		k, ok := seen[str]
		if !ok {
			k = int32(len(firstSeen))
			seen[str] = k
			firstSeen = append(firstSeen, int32(i))
			distinct = append(distinct, str)
		}
		rank[i] = k
	}
	slices.Sort(distinct)
	e.up = sized(e.up, len(distinct))
	rankOf := e.up // first-seen number -> rank
	first := slices.Grow(e.first[:0], len(distinct))
	for r, str := range distinct {
		k := seen[str]
		rankOf[k] = int32(r)
		first = append(first, firstSeen[k])
	}
	for i, k := range rank {
		rank[i] = rankOf[k]
	}
	e.next, e.strs, e.first = firstSeen, distinct, first
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
// (that is the simulated device cost); the value itself is i+1 in a
// dense index and the host-side memo's otherwise.
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
	if _, err := ix.st.Cache().Cell(&ix.valHint, ix.valuesExt.Start+valOff, int(end-valOff), spill[:0]); err != nil {
		return value.Value{}, err
	}
	if ix.dense {
		return value.NewInt(int64(i) + 1), nil
	}
	return ix.vals[i], nil
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

// Walk visits the dictionary entries p selects, span by span in the order
// pred.P.Spans gives them: a point through LookupEq, a range through
// Range, so a walk makes the reads those calls make, in the same order.
// The entry's Lists are valid until fn returns.
func (ix *Index) Walk(p pred.P, fn func(Entry) error) error {
	return p.Spans(func(s pred.Span) error {
		if s.Point {
			e, ok, err := ix.LookupEq(s.Lo)
			if err != nil || !ok {
				return err
			}
			return fn(e)
		}
		var lo, hi *Bound
		if !s.NoLo {
			lo = &Bound{V: s.Lo, Inclusive: s.LoIncl}
		}
		if !s.NoHi {
			hi = &Bound{V: s.Hi, Inclusive: s.HiIncl}
		}
		it, err := ix.Range(lo, hi)
		if err != nil {
			return err
		}
		for {
			e, ok, err := it.Next()
			if err != nil || !ok {
				return err
			}
			if err := fn(e); err != nil {
				return err
			}
		}
	})
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
