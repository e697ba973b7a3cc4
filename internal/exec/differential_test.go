package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
)

// The operator-level cost differential. The executor composes the batch
// operators only; the row operators below stay in production for
// internal/baseline and DML target resolution, which makes each of them a
// reference twin: same algorithm, one element per call. Every case runs
// the row twin and the batch operator at lengths 1, 7 and 1024 on
// identical seeded inputs, each on its own fresh device, and requires
// identical output, simulated clock, flash statistics and RAM high-water
// — batching may only change host time.

// diffLens are the batch lengths held to the row twin; 0 selects the twin.
var diffLens = []int{0, 1, 7, 1024}

// diffProfiles are the devices every case runs on: the paper's, and the
// 16KB one on which every merge spills.
func diffProfiles() map[string]device.Profile {
	tiny := device.SmartUSB2007().WithRAM(16 << 10)
	tiny.CacheFrames = 2
	return map[string]device.Profile{"default": device.SmartUSB2007(), "tiny": tiny}
}

// diffOutcome is everything a case may produce or spend.
type diffOutcome struct {
	Out     []uint32
	Err     string
	Clock   time.Duration
	Flash   flash.Stats
	RAMHigh int64
	RAMUsed int64 // after the case: a leaked grant is a cost too
}

// diffCase builds its inputs on e from rng (identically on every device:
// setup is part of the compared cost) and runs the row twin or the batch
// operator.
type diffCase func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error)

func runDifferential(t *testing.T, c diffCase) {
	t.Helper()
	for name, prof := range diffProfiles() {
		t.Run(name, func(t *testing.T) {
			var want diffOutcome
			for _, n := range diffLens {
				dev, err := device.New(prof, nil)
				if err != nil {
					t.Fatal(err)
				}
				e := NewEnv(dev)
				if n > 0 {
					e.SetBatchLen(n)
				}
				out, err := c(t, e, rand.New(rand.NewSource(15)), n > 0)
				got := diffOutcome{
					Out: out, Clock: dev.Clock.Now(), Flash: dev.Flash.Stats(),
					RAMHigh: dev.RAM.High(), RAMUsed: dev.RAM.Used(),
				}
				if err != nil {
					got.Err = err.Error()
				}
				if n == 0 {
					if len(out) == 0 && err == nil {
						t.Fatal("the row twin produced nothing: the case compares nothing")
					}
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					got.Out, want.Out = nil, nil
					t.Fatalf("batch length %d diverges from the row twin:\n got %+v\nwant %+v", n, got, want)
				}
			}
		})
	}
}

// randomSorted returns n distinct ascending IDs drawn from 1..max.
func randomSorted(rng *rand.Rand, n, max int) []uint32 {
	picked := rng.Perm(max)[:n]
	out := make([]uint32, n)
	for i, p := range picked {
		out[i] = uint32(p + 1)
	}
	return sorted(out)
}

// spillRuns spills k random lists with the row operator, so every device
// starts the measured operator from the same scratch state.
func spillRuns(t *testing.T, e *Env, rng *rand.Rand, k, n, max int) []RunSource {
	t.Helper()
	runs := make([]RunSource, k)
	for i := range runs {
		run, err := e.SpillIDs(NewSliceIter(randomSorted(rng, n, max), nil), op())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	return runs
}

// drainBatch collects a batch stream at the environment's batch length.
func drainBatch(e *Env, it BatchIter) ([]uint32, error) {
	defer it.Close()
	buf := make([]uint32, e.batchCap())
	var out []uint32
	for {
		n, err := it.Next(buf)
		if err != nil {
			return out, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// unionCase merges k spilled runs, an in-RAM list and the posting lists
// of a climbing index under the given fan-in.
func unionCase(k, fanin int) diffCase {
	return func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error) {
		ix := translateFixtureOn(t, e, 60)
		var sources []IDSource
		for _, run := range spillRuns(t, e, rng, k, 120, 900) {
			sources = append(sources, run)
		}
		sources = append(sources, SliceSource{IDs: randomSorted(rng, 50, 900)})
		for _, c := range randomSorted(rng, 6, 60) {
			entry, ok, err := ix.LookupEq(intValue(c))
			if err != nil || !ok {
				t.Fatalf("lookup %d: %v %v", c, ok, err)
			}
			sources = append(sources, ClimbSource{Env: e, Ix: ix, Ref: entry.Lists[1]})
		}
		if batched {
			it, err := e.UnionBatch(sources, fanin, op())
			if err != nil {
				return nil, err
			}
			return drainBatch(e, it)
		}
		it, err := e.Union(sources, fanin, op())
		if err != nil {
			return nil, err
		}
		return Collect(it)
	}
}

func TestDifferentialUnionSinglePass(t *testing.T) { runDifferential(t, unionCase(2, 64)) }
func TestDifferentialUnionMultiPass(t *testing.T)  { runDifferential(t, unionCase(30, 4)) }

// TestDifferentialMergeIntersect intersects a union with two runs: the
// intersection abandons its inputs mid-stream, so a batch input that
// read ahead of the demand would show up as extra flash and clock.
func TestDifferentialMergeIntersect(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error) {
		runs := spillRuns(t, e, rng, 4, 700, 1000)
		short, err := e.SpillIDs(NewSliceIter(randomSorted(rng, 300, 600), nil), op())
		if err != nil {
			t.Fatal(err)
		}
		unioned := []IDSource{runs[0], runs[1]}
		if batched {
			u, err := e.UnionBatch(unioned, 8, op())
			if err != nil {
				return nil, err
			}
			its := []BatchIter{u}
			for _, r := range []RunSource{runs[2], short, runs[3]} {
				it, err := r.OpenBatch()
				if err != nil {
					return nil, err
				}
				its = append(its, it)
			}
			x, err := e.MergeIntersectBatch(its)
			if err != nil {
				return nil, err
			}
			return drainBatch(e, x)
		}
		u, err := e.Union(unioned, 8, op())
		if err != nil {
			return nil, err
		}
		its := []IDIter{u}
		for _, r := range []RunSource{runs[2], short, runs[3]} {
			it, err := r.Open()
			if err != nil {
				return nil, err
			}
			its = append(its, it)
		}
		x, err := e.MergeIntersect(its)
		if err != nil {
			return nil, err
		}
		return Collect(x)
	})
}

// TestDifferentialTranslate climbs a spilled child list one level, with
// a fan-in small enough to spill batches of merged posting lists and
// with one large enough not to.
func TestDifferentialTranslate(t *testing.T) {
	for _, fanin := range []int{3, 64} {
		t.Run(fmt.Sprintf("fanin=%d", fanin), func(t *testing.T) {
			runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error) {
				ix := translateFixtureOn(t, e, 1500)
				// IDs past the dictionary are skipped, not errors.
				run := spillRuns(t, e, rng, 1, 400, 1600)[0]
				o := op()
				var out []uint32
				if batched {
					in, err := run.OpenBatch()
					if err != nil {
						return nil, err
					}
					it, err := e.TranslateBatch(in, ix, 1, fanin, o)
					if err != nil {
						return nil, err
					}
					if out, err = drainBatch(e, it); err != nil {
						return nil, err
					}
				} else {
					in, err := run.Open()
					if err != nil {
						return nil, err
					}
					it, err := e.Translate(in, ix, 1, fanin, o)
					if err != nil {
						return nil, err
					}
					if out, err = Collect(it); err != nil {
						return nil, err
					}
				}
				return append(out, uint32(o.TuplesIn), uint32(o.TuplesOut)), nil
			})
		})
	}
}

// TestDifferentialSpillAndReopen spills a list and streams it back twice.
func TestDifferentialSpillAndReopen(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error) {
		ids := randomSorted(rng, 5000, 1<<20)
		var out []uint32
		if batched {
			run, err := e.SpillBatch(&sliceBatch{ids: ids}, op())
			if err != nil {
				return nil, err
			}
			for pass := 0; pass < 2; pass++ {
				it, err := run.OpenBatch()
				if err != nil {
					return nil, err
				}
				got, err := drainBatch(e, it)
				if err != nil {
					return nil, err
				}
				out = append(out, got...)
			}
			return out, nil
		}
		run, err := e.SpillIDs(NewSliceIter(ids, nil), op())
		if err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			it, err := run.Open()
			if err != nil {
				return nil, err
			}
			got, err := Collect(it)
			if err != nil {
				return nil, err
			}
			out = append(out, got...)
		}
		return out, nil
	})
}

// TestDifferentialMaterializeAndIterate stores a row stream (fresh
// sequence numbers) and scans the row file back.
func TestDifferentialMaterializeAndIterate(t *testing.T) {
	runDifferential(t, func(t *testing.T, e *Env, rng *rand.Rand, batched bool) ([]uint32, error) {
		rows := make([][]uint32, 3000)
		for i := range rows {
			rows[i] = []uint32{uint32(i + 1), rng.Uint32(), rng.Uint32()}
		}
		var seqs []uint32
		var got [][]uint32
		if batched {
			rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, 3, true, op())
			if err != nil {
				return nil, err
			}
			it, err := rf.IterBatch()
			if err != nil {
				return nil, err
			}
			if seqs, got, err = collectBatchRows(e, it, 3); err != nil {
				return nil, err
			}
		} else {
			rf, err := e.MaterializeRows(&sliceRowIter{rows: rows}, 3, true, op())
			if err != nil {
				return nil, err
			}
			it, err := rf.Iter()
			if err != nil {
				return nil, err
			}
			seqs, got = collectRows(t, it)
		}
		var out []uint32
		for i, ids := range got {
			out = append(append(out, seqs[i]), ids...)
		}
		return out, nil
	})
}
