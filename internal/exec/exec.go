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
//
// There is one operator set, the batch one (batch.go states its contract);
// the query executor, DML target resolution and internal/baseline all
// compose it. The element-at-a-time operators it grew out of are gone.
// Their verdict — what they produced and spent — is frozen in three
// goldens (testdata/twin_golden.txt here, internal/core/testdata/
// rowengine_golden.txt, internal/baseline/testdata/baseline_golden.txt),
// and the tests hold every operator to them at batch lengths 1, 7 and
// 1024: the simulated cost model is pinned by those files and by length
// invariance, not by a second implementation.
package exec

import (
	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
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

// IDSource is a re-openable sorted ID list (posting list, spilled run or
// in-RAM slice) with a known cardinality.
type IDSource interface {
	Count() int
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

// SliceSource is an in-RAM ID list source (small lists only; the caller
// accounts for the memory if it lives on the device).
type SliceSource struct {
	IDs []uint32
}

// Count implements IDSource.
func (s SliceSource) Count() int { return len(s.IDs) }

// RunSource is a spilled sorted run of raw little-endian uint32 IDs in
// the scratch space.
type RunSource struct {
	Env *Env
	Ext flash.Extent
	N   int
}

// Count implements IDSource.
func (r RunSource) Count() int { return r.N }

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
