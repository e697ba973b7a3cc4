package exec

// The merge operators: union, intersection, multi-pass union and
// translation over batch streams. Heap pushes/pops and comparisons are
// counted during a batch and charged in one ChargeUnits call, one unit per
// element-level step — a drained union counts its heap steps without
// taking them — so the simulated cost does not depend on the batch
// length; only host dispatch is amortized. The per-element charges are
// those of the element-at-a-time merges this file replaced, whose outcomes
// testdata/twin_golden.txt keeps (see differential_test.go).

import (
	"math/bits"
	"slices"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// idxHeap is a binary min-heap of (id, cursor index) pairs that counts
// its operations instead of charging them one by one. A merge allocates
// ents once, at its fan-in. Entries are ordered by id, then by cursor
// index — one integer comparison on the packed pair — so equal IDs leave
// in input order whatever shape the heap is in: which input a merge
// advances next, and so what an abandoned merge has read, is a function
// of the inputs alone.
type idxHeap struct {
	ents []heapEnt
	ops  int64
}

// heapEnt packs an id (high word) over the cursor it came from.
type heapEnt uint64

func newHeapEnt(id uint32, i int) heapEnt { return heapEnt(id)<<32 | heapEnt(uint32(i)) }

func (e heapEnt) id() uint32 { return uint32(e >> 32) }
func (e heapEnt) idx() int   { return int(uint32(e)) }

// push counts one operation per entry; the entries form a heap once
// order has run (a merge pushes its inputs' first IDs, then orders once:
// a sorted array is a heap, and the order entries leave in is unique).
func (h *idxHeap) push(id uint32, i int) {
	h.ops++
	h.ents = append(h.ents, newHeapEnt(id, i))
}

func (h *idxHeap) order() { slices.Sort(h.ents) }

// replaceTop replaces the least entry by the next ID of the same cursor:
// the pop and the push of a merge step in one sift, counted as the two
// operations they are.
func (h *idxHeap) replaceTop(id uint32) {
	h.ops += 2
	h.siftDown(newHeapEnt(id, h.ents[0].idx()))
}

// pop removes the least entry.
func (h *idxHeap) pop() {
	h.ops++
	last := len(h.ents) - 1
	e := h.ents[last]
	h.ents = h.ents[:last]
	if last > 0 {
		h.siftDown(e)
	}
}

// siftDown places e at the root and sinks it to its level.
func (h *idxHeap) siftDown(e heapEnt) {
	ents := h.ents
	j := 0
	for {
		c := 2*j + 1
		if c >= len(ents) {
			break
		}
		if r := c + 1; r < len(ents) && ents[r] < ents[c] {
			c = r
		}
		if e <= ents[c] {
			break
		}
		ents[j] = ents[c]
		j = c
	}
	ents[j] = e
}

// takeOps returns and resets the pending heap-operation count.
func (h *idxHeap) takeOps() int64 {
	n := h.ops
	h.ops = 0
	return n
}

// unionBatch merges k sorted inputs, deduplicating equal IDs. A request
// for one ID steps the heap, pulling one ID from one input: the form that
// stays exact for a consumer that may abandon the stream (batch.go rule
// 1). The first request for more drains the union — the consumer has
// committed to reading it to its end — and that call and every later one
// sweep what the drain collected.
type unionBatch struct {
	env    *Env
	h      idxHeap
	curs   []unitCursor
	count  int // the inputs' summed cardinality, 0 if unknown
	last   uint32
	primed bool
	rest   idSet
	err    error // a failed drain's, returned from then on
}

// newUnion allocates a k-way merge's per-input state — cursors and heap
// at full capacity — so nothing is allocated or grown per input. count is
// the inputs' summed cardinality (0: unknown); it sizes a drain.
func (e *Env) newUnion(k, count int) *unionBatch {
	return &unionBatch{env: e, curs: make([]unitCursor, k), count: count, h: idxHeap{ents: make([]heapEnt, 0, k)}}
}

// mergeUnionBatch returns the sorted, deduplicated union of the batch
// iterators. It primes one element per input at construction time. The
// per-input heap slot costs a few words; the streams' page buffers
// dominate and are owned by the iterators themselves.
func (e *Env) mergeUnionBatch(its []BatchIter) (BatchIter, error) {
	u := e.newUnion(len(its), 0)
	for i, it := range its {
		u.curs[i].src = it
	}
	return u.prime()
}

// prime pulls the first element of every input into the heap; on error
// the merge is closed.
func (u *unionBatch) prime() (BatchIter, error) {
	for i := range u.curs {
		id, ok, err := u.curs[i].next()
		if err != nil {
			u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
			u.Close()
			return nil, err
		}
		if ok {
			u.h.push(id, i)
		}
	}
	u.h.order()
	u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
	return u, nil
}

func (u *unionBatch) Next(dst []uint32) (int, error) {
	if u.err != nil {
		return 0, u.err
	}
	if len(dst) > 1 && len(u.h.ents) > 0 {
		if u.err = u.drain(); u.err != nil {
			return 0, u.err
		}
	}
	if len(u.h.ents) == 0 {
		return u.rest.sweep(dst), nil
	}
	for len(dst) > 0 && len(u.h.ents) > 0 {
		top := u.h.ents[0]
		next, ok, err := u.curs[top.idx()].next()
		if err != nil {
			u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
			return 0, err
		}
		if ok {
			u.h.replaceTop(next)
		} else {
			u.h.pop()
		}
		id := top.id()
		if u.primed && id == u.last {
			continue // duplicate
		}
		u.last = id
		u.primed = true
		dst[0] = id
		u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
		return 1, nil
	}
	u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
	return 0, nil
}

// drain reads every live input to its end through its own Next, at the
// batch length, into u.rest, and empties the heap. Reading the inputs one
// after the other instead of interleaved is invisible to the device: each
// stream reads its own extent through its own page buffer — not the page
// cache, not the bus — so it reads the same pages and makes the same
// decode calls, the streams charge these themselves, and the clock only
// sums. The heap is paid in closed form: every remaining ID would have
// left it once, by replaceTop (two operations) or, as the last ID of its
// input, by pop (one).
func (u *unionBatch) drain() error {
	s, lim := &u.rest, u.env.batchCap()
	s.reset(u.h.ents[0].id(), u.count)
	remaining := int64(len(u.h.ents))
	for _, ent := range u.h.ents {
		src := u.curs[ent.idx()].src
		for {
			k, err := src.Next(s.room(lim))
			if err != nil {
				return err
			}
			if k == 0 {
				break
			}
			s.took(k)
			remaining += int64(k)
		}
	}
	// The heads go in last, so that the set sees how far the IDs spread
	// before it takes a bitmap word.
	for _, ent := range u.h.ents {
		s.room(1)[0] = ent.id()
		s.took(1)
	}
	u.env.cpuUnits(sim.CyclesHeapOp, 2*remaining-int64(len(u.h.ents)))
	u.h.ents = u.h.ents[:0]
	s.seal(u.last, u.primed)
	return nil
}

func (u *unionBatch) Close() {
	for i := range u.curs {
		if src := u.curs[i].src; src != nil {
			src.Close()
		}
	}
	u.rest.release()
}

// idSet holds the IDs a drain collected until the union emits them, as a
// bitmap or as a sorted slice. The bitmap lives in ID batches borrowed
// from the pool — bit j of word g is base+32g+j, 1 024 words a batch — and
// handed back when the union closes. It may not take more than 32 bits for
// each ID the union can meet, what holding the IDs costs, so memory
// follows the IDs drained, never the span of their values. A union of
// fewer IDs than a batch collects them in one borrowed batch and, once the
// drain is done, sets them as bits if they are that dense and sorts them
// otherwise; a larger union sets bits as it reads and turns into a slice
// if its IDs spread too far.
type idSet struct {
	base   uint32
	top    uint32 // the largest ID added
	count  int    // the union's cardinality, 0 if unknown
	n      int    // IDs added, duplicates included
	bitmap bool
	words  int          // bitmap words in use, all cleared
	pages  []*[]uint32  // the bitmap's batches
	dir    [8]*[]uint32 // backs pages up to 8 batches
	ids    []uint32
	batch  *[]uint32 // the small slice's backing, or the bitmap's read buffer
	i      int       // sweep: the next word, or the next index of ids
	cur    uint32    // sweep: the bits of word i-1 not yet emitted
}

// reset empties the set, every ID to come being at least base.
func (s *idSet) reset(base uint32, count int) {
	*s = idSet{base: base, top: base, count: count, bitmap: count <= 0 || count >= DefaultBatchSize, batch: GetIDBatch()}
	s.pages = s.dir[:0]
	if !s.bitmap {
		s.ids = (*s.batch)[:0]
	}
}

// room returns where up to lim IDs are read next: the slice's free tail,
// never empty, or the bitmap's read buffer.
func (s *idSet) room(lim int) []uint32 {
	if s.bitmap {
		return (*s.batch)[:lim]
	}
	if len(s.ids) == cap(s.ids) {
		s.ids = slices.Grow(s.ids, lim)
	}
	return s.ids[len(s.ids):min(cap(s.ids), len(s.ids)+lim)]
}

// took adds the k sorted IDs just read into room.
func (s *idSet) took(k int) {
	s.n += k
	if !s.bitmap {
		s.ids = s.ids[:len(s.ids)+k]
		s.top = max(s.top, s.ids[len(s.ids)-1])
		return
	}
	chunk := (*s.batch)[:k]
	s.top = max(s.top, chunk[k-1])
	if !s.cover() {
		s.toSlice()
		s.ids = append(s.ids, chunk...)
		return
	}
	s.set(chunk)
}

// cover clears bitmap words up to the one holding top, borrowing batches
// as it goes, unless that takes more than 32 bits an ID.
func (s *idSet) cover() bool {
	need := int((s.top-s.base)>>5) + 1
	if need > max(s.count, s.n)+32 {
		return false
	}
	for s.words < need {
		p := s.words >> 10
		if p == len(s.pages) {
			s.pages = append(s.pages, GetIDBatch())
		}
		end := min(need, (p+1)<<10)
		clear((*s.pages[p])[s.words&1023 : end-p<<10])
		s.words = end
	}
	return true
}

// set sets the bits of ids, which the bitmap covers.
func (s *idSet) set(ids []uint32) {
	for _, id := range ids {
		d := id - s.base
		(*s.pages[d>>15])[d>>5&1023] |= 1 << (d & 31)
	}
}

// word returns bitmap word g.
func (s *idSet) word(g int) uint32 { return (*s.pages[g>>10])[g&1023] }

// toSlice turns the bitmap into the slice of the IDs it holds and hands
// its batches back.
func (s *idSet) toSlice() {
	s.bitmap = false
	s.ids = make([]uint32, 0, max(s.count, s.n)+1)
	for g := 0; g < s.words; g++ {
		for word := s.word(g); word != 0; word &= word - 1 {
			s.ids = append(s.ids, s.base+uint32(g<<5+bits.TrailingZeros32(word)))
		}
	}
	for _, p := range s.pages {
		PutIDBatch(p)
	}
	s.pages, s.words = s.pages[:0], 0
}

// seal readies the sweep, leaving out the union's last emitted ID if it
// was collected again: no remaining ID is below it, so only base can be.
func (s *idSet) seal(last uint32, primed bool) {
	if !s.bitmap {
		if !s.cover() {
			slices.Sort(s.ids)
			s.ids = slices.Compact(s.ids)
			if primed && s.ids[0] == last {
				s.ids = s.ids[1:]
			}
			return
		}
		s.set(s.ids)
		s.bitmap, s.ids = true, nil
	}
	if primed && last == s.base {
		(*s.pages[0])[0] &^= 1
	}
}

// sweep moves the next IDs of the set, in order, into dst.
func (s *idSet) sweep(dst []uint32) int {
	if !s.bitmap {
		n := copy(dst, s.ids[s.i:])
		s.i += n
		return n
	}
	n := 0
	for n < len(dst) {
		for s.cur == 0 {
			if s.i == s.words {
				return n
			}
			s.cur = s.word(s.i)
			s.i++
		}
		dst[n] = s.base + uint32((s.i-1)<<5+bits.TrailingZeros32(s.cur))
		s.cur &= s.cur - 1
		n++
	}
	return n
}

// release hands every borrowed batch back; the set is empty afterwards.
func (s *idSet) release() {
	PutIDBatch(s.batch)
	for _, p := range s.pages {
		PutIDBatch(p)
	}
	*s = idSet{}
}

// unitCursor pulls one element at a time from a batch input — the
// exactness discipline for consumers that may abandon their inputs.
type unitCursor struct {
	src BatchIter
	one [1]uint32
}

func (c *unitCursor) next() (uint32, bool, error) {
	n, err := c.src.Next(c.one[:])
	if err != nil || n == 0 {
		return 0, false, err
	}
	return c.one[0], true, nil
}

// intersectBatch intersects k sorted deduplicated batch inputs. The
// intersection terminates as soon as any input is exhausted, abandoning
// the rest mid-stream; inputs are therefore pulled element by element so
// no simulated work is done for IDs the intersection never looks at.
// The output side is still batched — downstream operators consume the
// intersection in full batches.
type intersectBatch struct {
	env  *Env
	curs []unitCursor
	cur  []uint32
	done bool
}

// MergeIntersectBatch returns the sorted intersection of the iterators.
// Each input must itself be sorted; duplicates within one input are
// tolerated.
func (e *Env) MergeIntersectBatch(its []BatchIter) (BatchIter, error) {
	if len(its) == 0 {
		return EmptyBatch(), nil
	}
	if len(its) == 1 {
		return its[0], nil
	}
	x := &intersectBatch{env: e, curs: make([]unitCursor, len(its)), cur: make([]uint32, len(its))}
	for i, it := range its {
		x.curs[i].src = it
	}
	// Prime in input order, stopping at the first empty input: the
	// remaining inputs are never touched.
	for i := range x.curs {
		id, ok, err := x.curs[i].next()
		if err != nil {
			x.Close()
			return nil, err
		}
		if !ok {
			x.done = true
			break
		}
		x.cur[i] = id
	}
	return x, nil
}

func (x *intersectBatch) Next(dst []uint32) (int, error) {
	if x.done {
		return 0, nil
	}
	n := 0
	var compares int64
	for n < len(dst) {
		// Find the maximum of the current heads.
		max := x.cur[0]
		for _, id := range x.cur[1:] {
			compares++
			if id > max {
				max = id
			}
		}
		// Advance every cursor to >= max.
		equal := true
		for i := range x.curs {
			for x.cur[i] < max {
				id, ok, err := x.curs[i].next()
				if err != nil {
					x.env.cpuUnits(sim.CyclesCompare, compares)
					return n, err
				}
				if !ok {
					x.done = true
					x.env.cpuUnits(sim.CyclesCompare, compares)
					return n, nil
				}
				x.cur[i] = id
				compares++
			}
			if x.cur[i] != max {
				equal = false
			}
		}
		if !equal {
			continue
		}
		// Emit and advance all past max (uncharged).
		emitDone := false
		for i := range x.curs {
			id, ok, err := x.curs[i].next()
			if err != nil {
				x.env.cpuUnits(sim.CyclesCompare, compares)
				return n, err
			}
			if !ok {
				emitDone = true
				break
			}
			x.cur[i] = id
		}
		dst[n] = max
		n++
		if emitDone {
			x.done = true
			break
		}
	}
	x.env.cpuUnits(sim.CyclesCompare, compares)
	return n, nil
}

func (x *intersectBatch) Close() {
	for i := range x.curs {
		x.curs[i].src.Close()
	}
}

// UnionBatch merges any number of sources into one sorted deduplicated
// batch stream, spilling intermediate runs to scratch flash when more
// than fanin streams would need to be open at once — the multi-pass
// behaviour that makes low-selectivity pre-filtering expensive on the
// device.
func (e *Env) UnionBatch(sources []IDSource, fanin int, op *stats.Op) (BatchIter, error) {
	if len(sources) == 0 {
		return EmptyBatch(), nil
	}
	for len(sources) > e.clampFanin(fanin) {
		f := e.clampFanin(fanin)
		runs := make([]RunSource, 0, (len(sources)+f-1)/f)
		for start := 0; start < len(sources); start += f {
			end := start + f
			if end > len(sources) {
				end = len(sources)
			}
			merged, err := e.openAndMergeBatch(sources[start:end])
			if err != nil {
				return nil, err
			}
			run, err := e.SpillBatch(merged, op)
			if err != nil {
				return nil, err
			}
			runs = append(runs, run)
		}
		sources = byAddress(runs, make([]IDSource, 0, len(runs)))
	}
	return e.openAndMergeBatch(sources)
}

// ListSources adapts posting lists of one index as merge sources: one
// typed slab handed over by address, instead of a ClimbSource boxed into
// an interface per list.
func (e *Env) ListSources(ix *climbing.Index, refs []climbing.ListRef) []IDSource {
	slab := make([]ClimbSource, len(refs))
	for i, ref := range refs {
		slab[i] = ClimbSource{Env: e, Ix: ix, Ref: ref}
	}
	return byAddress(slab, make([]IDSource, 0, len(slab)))
}

// byAddress appends the address of every element of a typed slab of
// sources to out — the form in which a merge opens their streams in slabs
// of its own (openAndMergeBatch).
func byAddress[S any, P interface {
	*S
	IDSource
}](slab []S, out []IDSource) []IDSource {
	for i := range slab {
		out = append(out, P(&slab[i]))
	}
	return out
}

// openAndMergeBatch opens the sources and merges them. The streams of
// sources handed over by address (ListSources, a typed run slab) are opened
// in place in two slabs sized for this merge; any other source opens
// itself. Reservations are made in source order either way.
func (e *Env) openAndMergeBatch(sources []IDSource) (BatchIter, error) {
	if len(sources) == 1 {
		return sources[0].OpenBatch()
	}
	var nLists, nRuns, count int
	for _, s := range sources {
		count += s.Count()
		switch s.(type) {
		case *ClimbSource:
			nLists++
		case *RunSource:
			nRuns++
		}
	}
	lists, runs := make([]listBatch, nLists), make([]runBatch, nRuns)
	u := e.newUnion(len(sources), count)
	for i, s := range sources {
		var it BatchIter
		var err error
		switch s := s.(type) {
		case *ClimbSource:
			l := &lists[0]
			lists = lists[1:]
			it, err = l, l.open(*s)
		case *RunSource:
			r := &runs[0]
			runs = runs[1:]
			it, err = r, r.open(*s)
		default:
			it, err = s.OpenBatch()
		}
		if err != nil {
			u.Close()
			return nil, err
		}
		u.curs[i].src = it
	}
	return u.prime()
}

// TranslateBatch maps a sorted batch stream of table-T identifiers to the
// sorted union of their posting lists at the given level of a dense
// climbing index — the paper's pre-filtering step ("transforming these
// lists into lists of PreID thanks to the climbing index on Vis.VisID").
// Large inputs spill batches of merged lists as scratch runs. Dictionary
// probes are issued in input order, preserving the page-cache access
// pattern.
func (e *Env) TranslateBatch(input BatchIter, ix *climbing.Index, level int, fanin int, op *stats.Op) (BatchIter, error) {
	defer input.Close()
	var runs []RunSource
	// One fan-in batch of lists at a time, in a typed slab every flush
	// reuses: the merge a flush opens is drained and closed (SpillBatch)
	// before the next list is added.
	batch := make([]ClimbSource, 0, e.clampFanin(fanin))
	var srcs []IDSource
	open := func() (BatchIter, error) {
		srcs = byAddress(batch, srcs[:0])
		return e.openAndMergeBatch(srcs)
	}
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		merged, err := open()
		if err != nil {
			return err
		}
		run, err := e.SpillBatch(merged, op)
		if err != nil {
			return err
		}
		runs = append(runs, run)
		batch = batch[:0]
		return nil
	}
	sawAny := false
	bb := GetIDBatch()
	defer PutIDBatch(bb)
	buf := (*bb)[:e.batchCap()]
	for {
		k, err := input.Next(buf)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
		op.AddIn(int64(k))
		for _, id := range buf[:k] {
			ref, found, err := ix.LookupList(intValue(id), level)
			if err != nil {
				return nil, err
			}
			if !found || ref.Count == 0 {
				continue
			}
			sawAny = true
			batch = append(batch, ClimbSource{Env: e, Ix: ix, Ref: ref})
			if len(batch) >= e.clampFanin(fanin) {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if !sawAny {
		return EmptyBatch(), nil
	}
	if len(runs) == 0 {
		return open()
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return e.UnionBatch(byAddress(runs, nil), fanin, op)
}
