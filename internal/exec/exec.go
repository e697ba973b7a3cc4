// Package exec implements the smart USB device's physical query operators:
// streaming ID-list iterators over climbing-index posting lists, n-way
// merge union/intersection, multi-pass unions that spill sorted runs to
// scratch flash when the merge fan-in exceeds RAM, key translation through
// dense climbing indexes (the pre-filtering strategy), Bloom filter build
// and probe (the post-filtering strategy), SKT join access, hidden
// attribute filters, external row sorts and the projection/verification
// merge against visible streams.
//
// Every operator follows the tiny-RAM discipline: each concurrently open
// flash stream owns exactly one page buffer charged to the device arena,
// and anything that cannot fit spills to the scratch space — paying the
// flash write/read cost asymmetry the paper's Section 3 describes.
package exec

import (
	"encoding/binary"
	"fmt"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Env bundles the device resources the operators run against.
type Env struct {
	Dev *device.Device

	// batchLen is the configured vectorization granularity for the
	// *Batch operators (IDs per batch), clamped to [1, DefaultBatchSize];
	// 0 means DefaultBatchSize. It only affects host buffer sizes — the
	// simulated device cost is granularity-invariant by construction.
	batchLen int
}

// NewEnv returns an execution environment on the device.
func NewEnv(dev *device.Device) *Env { return &Env{Dev: dev} }

// SetBatchLen configures the vectorization granularity of the batch
// operators (clamped to [1, DefaultBatchSize]). It is not an option:
// production runs at DefaultBatchSize, and tests call it to hold several
// lengths to the same simulated cost.
func (e *Env) SetBatchLen(n int) {
	if n < 1 {
		n = 1
	}
	if n > DefaultBatchSize {
		n = DefaultBatchSize
	}
	e.batchLen = n
}

// batchCap is the effective ID-batch granularity.
func (e *Env) batchCap() int {
	if e.batchLen == 0 {
		return DefaultBatchSize
	}
	return e.batchLen
}

// rowBatchCap is the effective row-batch granularity.
func (e *Env) rowBatchCap() int {
	if n := e.batchCap(); n < DefaultRowBatchRows {
		return n
	}
	return DefaultRowBatchRows
}

func (e *Env) cpu(cycles int64) { e.Dev.CPU.Charge(cycles) }

// pageSize is the device flash page size, the unit of stream buffers.
func (e *Env) pageSize() int { return e.Dev.Profile.Flash.PageSize }

// Fanin computes how many streams can be open concurrently given the
// arena's free space, reserving share (0..1] of it for stream buffers.
// At least 2 (a merge needs two inputs), at most 128 (heap bookkeeping).
func (e *Env) Fanin(share float64) int {
	avail := float64(e.Dev.RAM.Available())
	f := int(avail * share / float64(e.pageSize()))
	if f < 2 {
		f = 2
	}
	if f > 128 {
		f = 128
	}
	return f
}

// clampFanin bounds a requested fan-in by what currently fits: half the
// free arena space as stream pages. Operators recompute it before every
// pass, so concurrently open pipelines self-throttle instead of
// overrunning the budget.
func (e *Env) clampFanin(requested int) int {
	f := e.Fanin(0.5)
	if requested > 0 && requested < f {
		f = requested
	}
	if f < 2 {
		f = 2
	}
	return f
}

// IDIter streams sorted row identifiers. Close releases its RAM grant;
// it is safe to call more than once.
type IDIter interface {
	Next() (id uint32, ok bool, err error)
	Close()
}

// emptyIter is an IDIter with no elements.
type emptyIter struct{}

func (emptyIter) Next() (uint32, bool, error) { return 0, false, nil }
func (emptyIter) Close()                      {}

// Empty returns an iterator over nothing.
func Empty() IDIter { return emptyIter{} }

// SliceIter iterates an in-RAM ID slice. The caller is responsible for
// having charged the slice to an arena if it lives on the device; the
// optional grant is released on Close.
type SliceIter struct {
	ids   []uint32
	i     int
	grant *ram.Grant
}

// NewSliceIter returns an iterator over ids, releasing grant on Close.
func NewSliceIter(ids []uint32, grant *ram.Grant) *SliceIter {
	return &SliceIter{ids: ids, grant: grant}
}

// Next implements IDIter.
func (s *SliceIter) Next() (uint32, bool, error) {
	if s.i >= len(s.ids) {
		return 0, false, nil
	}
	id := s.ids[s.i]
	s.i++
	return id, true, nil
}

// Close implements IDIter.
func (s *SliceIter) Close() { s.grant.Free() }

// IDSource is a re-openable sorted ID list (posting list, spilled run or
// in-RAM slice) with a known cardinality. Open and OpenBatch stream the
// same IDs at the same simulated cost, one element or one batch per call.
type IDSource interface {
	Count() int
	Open() (IDIter, error)
	OpenBatch() (BatchIter, error)
}

// ClimbSource adapts a climbing-index posting list.
type ClimbSource struct {
	Env *Env
	Ix  *climbing.Index
	Ref climbing.ListRef
}

// Count implements IDSource.
func (c ClimbSource) Count() int { return c.Ref.Count }

// Open implements IDSource: the stream owns one page buffer.
func (c ClimbSource) Open() (IDIter, error) {
	grant, err := c.Env.Dev.RAM.Alloc(c.Env.pageSize(), "list-stream")
	if err != nil {
		return nil, err
	}
	return &listIter{env: c.Env, dec: c.Ix.OpenList(c.Ref), grant: grant}, nil
}

type listIter struct {
	env *Env
	dec interface {
		Next() (uint32, bool, error)
	}
	grant *ram.Grant
}

func (l *listIter) Next() (uint32, bool, error) {
	l.env.cpu(sim.CyclesDecode)
	return l.dec.Next()
}

func (l *listIter) Close() { l.grant.Free() }

// SliceSource is an in-RAM ID list source (small lists only; the caller
// accounts for the memory if it lives on the device).
type SliceSource struct {
	IDs []uint32
}

// Count implements IDSource.
func (s SliceSource) Count() int { return len(s.IDs) }

// Open implements IDSource.
func (s SliceSource) Open() (IDIter, error) { return NewSliceIter(s.IDs, nil), nil }

// RunSource is a spilled sorted run of raw little-endian uint32 IDs in
// the scratch space.
type RunSource struct {
	Env *Env
	Ext flash.Extent
	N   int
}

// Count implements IDSource.
func (r RunSource) Count() int { return r.N }

// Open implements IDSource.
func (r RunSource) Open() (IDIter, error) {
	grant, err := r.Env.Dev.RAM.Alloc(r.Env.pageSize(), "run-stream")
	if err != nil {
		return nil, err
	}
	return &runIter{
		env:    r.Env,
		reader: flash.NewReader(r.Env.Dev.Flash, r.Ext),
		left:   r.N,
		grant:  grant,
	}, nil
}

type runIter struct {
	env    *Env
	reader *flash.Reader
	left   int
	grant  *ram.Grant
}

func (r *runIter) Next() (uint32, bool, error) {
	if r.left <= 0 {
		return 0, false, nil
	}
	var b [4]byte
	if _, err := fullRead(r.reader, b[:]); err != nil {
		return 0, false, fmt.Errorf("exec: run read: %w", err)
	}
	r.left--
	r.env.cpu(sim.CyclesCopyWord)
	return binary.LittleEndian.Uint32(b[:]), true, nil
}

func (r *runIter) Close() { r.grant.Free() }

func fullRead(r *flash.Reader, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// SpillIDs drains it into a sorted run in scratch space and returns a
// re-openable source. The writer's page buffer is charged while active.
func (e *Env) SpillIDs(it IDIter, op *stats.Op) (RunSource, error) {
	defer it.Close()
	grant, err := e.Dev.RAM.Alloc(e.pageSize(), "spill-writer")
	if err != nil {
		return RunSource{}, err
	}
	defer grant.Free()
	w, err := e.Dev.Scratch.NewWriter()
	if err != nil {
		return RunSource{}, err
	}
	n := 0
	var b [4]byte
	for {
		id, ok, err := it.Next()
		if err != nil {
			return RunSource{}, err
		}
		if !ok {
			break
		}
		binary.LittleEndian.PutUint32(b[:], id)
		if _, err := w.Write(b[:]); err != nil {
			return RunSource{}, err
		}
		n++
		e.cpu(sim.CyclesCopyWord)
	}
	ext, err := w.Close()
	if err != nil {
		return RunSource{}, err
	}
	op.AddOut(int64(n))
	return RunSource{Env: e, Ext: ext, N: n}, nil
}

// Collect materializes an iterator into a host slice (tests and tiny
// lists; production paths stream).
func Collect(it IDIter) ([]uint32, error) {
	defer it.Close()
	var out []uint32
	for {
		id, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, id)
	}
}

// intValue wraps a row ID as an integer value for dense index lookups.
func intValue(id uint32) value.Value { return value.NewInt(int64(id)) }

// KV is one element of a visible projection stream.
type KV struct {
	ID  uint32
	Val value.Value
}

// KVIter streams (id, value) pairs sorted by ascending unique ID — the
// shape of the projection streams the untrusted side sends in.
type KVIter interface {
	Next() (KV, bool, error)
	Close()
}
