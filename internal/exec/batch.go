package exec

// Vectorized execution. Every operator of this package is a *Batch
// operator: BatchIter hands over up to len(dst) IDs per call and charges
// the simulated CPU once per batch via sim.CPU.ChargeUnits, which sums to
// exactly what one charge per element would. There is no
// element-at-a-time form to fall back on or to compare with at run time;
// differential_test.go holds every operator to the frozen outcome of the
// one there was (testdata/twin_golden.txt: output, clock, flash traffic,
// RAM high-water) at batch lengths 1, 7 and 1024.
//
// The invariance contract (the cost model is the paper's contribution;
// the batch length must only change host CPU time) imposes two
// disciplines on every batch operator, and host cost two more:
//
//  1. Exactness: a consumer that asks for more than one ID commits to
//     draining the stream; one that may abandon it early — the k-way
//     intersection is the one such operator — pulls its inputs one
//     element at a time, and for it an operator never performs more
//     simulated device work (flash reads, page-cache probes,
//     decode/compare/heap charges) than needed to produce the IDs it
//     returned, so the abandoned tail is never decoded. Draining
//     consumers (spill, materialize, Bloom build, projection merges) pull
//     full batches, and an operator may then do the rest of the stream's
//     work at once: the k-way union reads every input to its end on the
//     first such request and pays its heap steps in closed form. Where
//     that moves work earlier it moves it inside the same consumer's
//     operator span, and it changes no order rule 2 guards — a merge
//     input reads its own extent through its own page buffer, not the
//     page cache and not the bus, so the order the inputs are read in is
//     invisible to the device. What a pipeline had spent when an error
//     aborted it is outside the contract: it depends on how far the
//     drains had read ahead.
//  2. Order preservation for the shared page cache: accesses that go
//     through the device's LRU page cache (SKT lookups, hidden column
//     fetches, climbing dictionary probes) must be issued in the same
//     per-row order at every batch length, since the cache's hit/miss
//     pattern — and hence the flash charge — depends on it.
//     Pure CPU charges may be grouped freely: the clock only sums.
//  3. Ownership: a k-way merge allocates its per-input state — cursors,
//     heap, and the listBatch / runBatch streams of the sources handed to
//     it by address — as slabs sized by k, once, when it opens; an input
//     costs the host no object of its own. A stream's page grant is held
//     by value inside the stream (ram.Arena.AllocInto), so the device
//     accounting is what it always was. Slab state is valid until the
//     merge's Close, which closes every stream it opened; nothing retains
//     a pointer into it afterwards, nothing is pooled across merges, and
//     a stream that failed to open holds nothing. OpenBatch is the same
//     open routine run on a slab of one.
//  4. Bytes are lent, not copied: a record is encoded once, in the page it
//     is programmed from, and decoded in the page it was read into. A
//     stream lends its one page buffer (flash.Writer.Tail / Commit,
//     flash.Reader.Window / Advance) and record.go holds the only encoder
//     and the only decoder; only a record that straddles a page boundary
//     is staged, through the streams' byte-shaped Write / Read. A page is
//     programmed the moment it is full and read when its first byte is
//     needed — where the byte-shaped calls program and read it. The
//     external sort does not decode records at all: run formation copies
//     them from the page into the sort buffer — the simulated device's
//     run buffer — reads one word of each, the key, and moves the records
//     from there into the run writer's tail; a merge moves the winning
//     records from their run's lent page to the output page, a streak at
//     a time. The projection merge copies a row batch's records from
//     their pages into a record buffer, so the batch's pages are read when
//     it starts, reads two words of each, key and sequence number, and
//     moves consecutive survivors from there to the rewrite as one run.
//     Those two buffers are the only places a record is copied out of its
//     page; the key and sequence reads and the moves are record.go's too.

import (
	"fmt"
	"sync"

	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// DefaultBatchSize is the number of IDs moved per BatchIter.Next call.
// One batch of uint32s is 4KB — it amortizes dispatch without
// blowing the host caches.
const DefaultBatchSize = 1024

// BatchIter streams sorted row identifiers in batches. Next fills dst
// with up to len(dst) IDs and returns how many were produced; n == 0 with
// a nil error means the stream is exhausted. The IDs written to dst are
// owned by the caller. Implementations follow the exactness rule above: a
// caller that asks for more than one ID commits to draining the stream,
// and may be charged for all of it at once; a caller that must not
// over-consume its input (an intersection) passes a one-element dst, and
// is charged for no more than the IDs it received. Close releases RAM
// grants and pooled buffers; it is safe to call more than once.
type BatchIter interface {
	Next(dst []uint32) (int, error)
	Close()
}

// idBatchPool recycles ID batch buffers across queries.
var idBatchPool = sync.Pool{
	New: func() any {
		s := make([]uint32, DefaultBatchSize)
		return &s
	},
}

// GetIDBatch returns a pooled ID buffer of DefaultBatchSize capacity.
func GetIDBatch() *[]uint32 { return idBatchPool.Get().(*[]uint32) }

// PutIDBatch returns a buffer obtained from GetIDBatch to the pool.
func PutIDBatch(b *[]uint32) {
	if b != nil {
		idBatchPool.Put(b)
	}
}

// emptyBatch is a BatchIter with no elements.
type emptyBatch struct{}

func (emptyBatch) Next([]uint32) (int, error) { return 0, nil }
func (emptyBatch) Close()                     {}

// EmptyBatch returns a batch iterator over nothing.
func EmptyBatch() BatchIter { return emptyBatch{} }

// CollectBatch materializes a batch iterator into a host slice (tests and
// tiny lists; production paths stream).
func CollectBatch(b BatchIter) ([]uint32, error) {
	defer b.Close()
	var out []uint32
	buf := GetIDBatch()
	defer PutIDBatch(buf)
	for {
		n, err := b.Next(*buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, (*buf)[:n]...)
	}
}

// OpenBatch implements IDSource: an in-RAM slice is copied out in
// whole chunks.
func (s SliceSource) OpenBatch() (BatchIter, error) {
	return &sliceBatch{ids: s.IDs}, nil
}

type sliceBatch struct {
	ids []uint32
	i   int
}

func (s *sliceBatch) Next(dst []uint32) (int, error) {
	n := copy(dst, s.ids[s.i:])
	s.i += n
	return n, nil
}

func (s *sliceBatch) Close() {}

// OpenBatch implements IDSource: posting-list decoding is amortized to
// one decode charge per batch. The stream owns one page buffer, charged
// to the device arena until Close.
func (c ClimbSource) OpenBatch() (BatchIter, error) {
	l := new(listBatch)
	if err := l.open(c); err != nil {
		return nil, err
	}
	return l, nil
}

// listBatch streams one posting list. Its zero value is closed; a merge
// keeps its listBatches side by side in one slab (rule 3).
type listBatch struct {
	env    *Env
	dec    codec.ListDecoder
	reader *flash.Reader
	grant  ram.Grant
	done   bool
}

// open reserves the stream's page buffer and positions it on src's list.
// A failed open holds nothing.
func (l *listBatch) open(src ClimbSource) error {
	e := src.Env
	if err := e.Dev.RAM.AllocInto(&l.grant, e.pageSize(), "list-stream"); err != nil {
		return err
	}
	l.env = e
	l.reader = flash.NewReader(e.Dev.Flash, src.Ref.Ext)
	l.dec.Reset(l.reader, src.Ref.Count)
	return nil
}

func (l *listBatch) Next(dst []uint32) (int, error) {
	if l.done {
		return 0, nil
	}
	// The cost model charges one decode per dec.Next call — including the
	// final failed probe of an exhausted list — so count calls, not
	// elements, and pay the whole batch in one charge.
	n := 0
	calls := int64(0)
	for n < len(dst) {
		calls++
		id, ok, err := l.dec.Next()
		if err != nil {
			l.env.cpuUnits(sim.CyclesDecode, calls)
			return n, err
		}
		if !ok {
			l.done = true
			break
		}
		dst[n] = id
		n++
	}
	l.env.cpuUnits(sim.CyclesDecode, calls)
	return n, nil
}

func (l *listBatch) Close() {
	l.grant.Free()
	if l.reader != nil {
		l.reader.Release()
		l.reader = nil
	}
}

// OpenBatch implements IDSource: raw uint32 runs are decoded a batch at a
// time from the page the stream's reader holds.
func (r RunSource) OpenBatch() (BatchIter, error) {
	b := new(runBatch)
	if err := b.open(r); err != nil {
		return nil, err
	}
	return b, nil
}

// runBatch streams one spilled run; same ownership as listBatch.
type runBatch struct {
	env   *Env
	rr    recordReader
	left  int
	grant ram.Grant
}

func (r *runBatch) open(src RunSource) error {
	if err := src.Env.Dev.RAM.AllocInto(&r.grant, src.Env.pageSize(), "run-stream"); err != nil {
		return err
	}
	r.env = src.Env
	r.rr.r = flash.NewReader(src.Env.Dev.Flash, src.Ext)
	r.left = src.N
	return nil
}

func (r *runBatch) Next(dst []uint32) (int, error) {
	n := min(len(dst), r.left)
	if n <= 0 {
		return 0, nil
	}
	if err := r.rr.next(dst[:n], nil, 0); err != nil {
		return 0, fmt.Errorf("exec: run read: %w", err)
	}
	r.left -= n
	r.env.cpuUnits(sim.CyclesCopyWord, int64(n))
	return n, nil
}

func (r *runBatch) Close() {
	r.grant.Free()
	if r.rr.r != nil {
		r.rr.r.Release()
		r.rr.r = nil
	}
}

// SpillBatch drains a batch stream into a sorted run in scratch space and
// returns a re-openable source, with one copy charge per batch. The
// writer's page buffer is charged while active.
func (e *Env) SpillBatch(b BatchIter, op *stats.Op) (RunSource, error) {
	defer b.Close()
	var grant ram.Grant
	if err := e.Dev.RAM.AllocInto(&grant, e.pageSize(), "spill-writer"); err != nil {
		return RunSource{}, err
	}
	defer grant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		return RunSource{}, err
	}
	ids := GetIDBatch()
	defer PutIDBatch(ids)
	buf := (*ids)[:e.batchCap()]
	n := 0
	for {
		k, err := b.Next(buf)
		if err != nil {
			return RunSource{}, err
		}
		if k == 0 {
			break
		}
		if err := w.put(buf[:k], nil, 0); err != nil {
			return RunSource{}, err
		}
		n += k
		e.cpuUnits(sim.CyclesCopyWord, int64(k))
	}
	ext, err := w.close()
	if err != nil {
		return RunSource{}, err
	}
	op.AddOut(int64(n))
	return RunSource{Env: e, Ext: ext, N: n}, nil
}

// cpuUnits charges cycles per unit for units items in one clock advance,
// bit-identical to charging each unit separately.
func (e *Env) cpuUnits(cycles, units int64) { e.Dev.CPU.ChargeUnits(cycles, units) }
