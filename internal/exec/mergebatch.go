package exec

// The merge operators: union, intersection, multi-pass union and
// translation over batch streams. Heap pushes/pops and comparisons are
// counted during a batch and charged in one ChargeUnits call, one unit per
// element-level step, so the simulated cost does not depend on the batch
// length; only host dispatch is amortized. The per-element charges are
// those of the element-at-a-time merges this file replaced, whose outcomes
// testdata/twin_golden.txt keeps (see differential_test.go).

import (
	"slices"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// batchCursor buffers one input of a batch merge. Refills request at most
// the consumer's current demand, so an abandoned merge never over-reads
// its inputs beyond one in-flight request.
type batchCursor struct {
	src BatchIter
	buf *[]uint32
	lim int // configured granularity cap on refills
	pos int
	n   int
}

// init attaches the cursor, a slot of its merge's slab, to src.
func (c *batchCursor) init(e *Env, src BatchIter) {
	*c = batchCursor{src: src, buf: GetIDBatch(), lim: e.batchCap()}
}

// next returns the cursor's next element, refilling with a request of at
// most want elements (clamped to [1, cap]).
func (c *batchCursor) next(want int) (uint32, bool, error) {
	if c.pos >= c.n {
		if want < 1 {
			want = 1
		}
		if want > c.lim {
			want = c.lim
		}
		k, err := c.src.Next((*c.buf)[:want])
		if err != nil {
			return 0, false, err
		}
		if k == 0 {
			return 0, false, nil
		}
		c.pos, c.n = 0, k
	}
	id := (*c.buf)[c.pos]
	c.pos++
	return id, true, nil
}

// close is a no-op on a slot no stream was opened for.
func (c *batchCursor) close() {
	if c.src == nil {
		return
	}
	c.src.Close()
	PutIDBatch(c.buf)
	c.buf = nil
}

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

// unionBatch merges k sorted batch inputs, deduplicating equal IDs.
type unionBatch struct {
	env    *Env
	h      idxHeap
	curs   []batchCursor
	last   uint32
	primed bool
}

// newUnion allocates a k-way merge's per-input state — cursors and heap
// at full capacity — so nothing is allocated or grown per input.
func (e *Env) newUnion(k int) *unionBatch {
	return &unionBatch{env: e, curs: make([]batchCursor, k), h: idxHeap{ents: make([]heapEnt, 0, k)}}
}

// MergeUnionBatch returns the sorted, deduplicated union of the batch
// iterators. It primes one element per input at construction time. The
// per-input heap slot costs a few words; the streams' page buffers
// dominate and are owned by the iterators themselves.
func (e *Env) MergeUnionBatch(its []BatchIter) (BatchIter, error) {
	u := e.newUnion(len(its))
	for i, it := range its {
		u.curs[i].init(e, it)
	}
	return u.prime()
}

// prime pulls the first element of every input into the heap; on error
// the merge is closed.
func (u *unionBatch) prime() (BatchIter, error) {
	for i := range u.curs {
		id, ok, err := u.curs[i].next(1)
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
	n := 0
	for n < len(dst) && len(u.h.ents) > 0 {
		top := u.h.ents[0]
		next, ok, err := u.curs[top.idx()].next(len(dst))
		if err != nil {
			u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
			return n, err
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
		dst[n] = id
		n++
	}
	u.env.cpuUnits(sim.CyclesHeapOp, u.h.takeOps())
	return n, nil
}

func (u *unionBatch) Close() {
	for i := range u.curs {
		u.curs[i].close()
	}
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
	var nLists, nRuns int
	for _, s := range sources {
		switch s.(type) {
		case *ClimbSource:
			nLists++
		case *RunSource:
			nRuns++
		}
	}
	lists, runs := make([]listBatch, nLists), make([]runBatch, nRuns)
	u := e.newUnion(len(sources))
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
		u.curs[i].init(e, it)
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
