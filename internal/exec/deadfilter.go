package exec

// Tombstone subtraction: the live-DML operator that drops identifiers
// whose base version is dead for the pipeline (deleted, shadowed by a
// delta image, or dangling through a deleted ancestor). The climbing
// indexes, Bloom filters and SKTs answer for the immutable base segments
// only, so the engine subtracts these IDs from the root stream and
// re-evaluates them against the RAM delta separately.
//
// It charges sim.CyclesTombstone per probed input ID, one ChargeUnits
// call per batch — the same total at every batch length, preserving the
// invariance contract of batch.go.

import (
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// FilterDeadBatch drops IDs for which dead reports true: it fills dst
// with survivors, pulling input in dst-sized batches and compacting in
// place. It never performs more simulated work than its input demands —
// every input ID must be probed regardless of batch shape — and charges
// one CyclesTombstone unit per probed ID.
func (e *Env) FilterDeadBatch(in BatchIter, dead func(uint32) bool, op *stats.Op) BatchIter {
	return &deadFilterBatch{env: e, in: in, dead: dead, op: op}
}

type deadFilterBatch struct {
	env  *Env
	in   BatchIter
	dead func(uint32) bool
	op   *stats.Op
}

func (f *deadFilterBatch) Next(dst []uint32) (int, error) {
	for {
		n, err := f.in.Next(dst)
		if err != nil || n == 0 {
			return 0, err
		}
		f.op.AddIn(int64(n))
		f.env.cpuUnits(sim.CyclesTombstone, int64(n))
		k := 0
		for i := 0; i < n; i++ {
			if f.dead(dst[i]) {
				continue
			}
			dst[k] = dst[i]
			k++
		}
		if k > 0 {
			f.op.AddOut(int64(k))
			return k, nil
		}
		// The whole batch was dead; pull the next one.
	}
}

func (f *deadFilterBatch) Close() { f.in.Close() }
