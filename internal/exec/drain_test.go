package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/codec"
)

// The drain differential. A union asked for one ID at a time (the
// intersection's pull) must stay exact for a consumer that may abandon it;
// a union asked for more than one is drained to its end. Whatever form the
// drain takes, a stream that was pulled m times and then drained must
// produce and spend exactly what m unit pulls followed by a drain at batch
// length 1 — one heap step per call — produce and spend.

// Input kinds of a drain case.
const (
	drainList  = iota // posting list on 64-byte pages
	drainRun          // spilled run on 64-byte pages
	drainSlice        // in-RAM slice
)

// drainInput is one input of a union under test.
type drainInput struct {
	kind int
	ids  []uint32
}

// drainOutcome is everything one union run produced and spent.
type drainOutcome struct {
	out     []uint32
	spent   spent
	perIn   [][2]int // IDs pulled, decode calls
	ramHigh int64
	ramUsed int64
}

// countedSource opens its source's stream behind a countedList.
type countedSource struct {
	src IDSource
	c   *countedList
}

func (s countedSource) Count() int { return s.src.Count() }

func (s countedSource) OpenBatch() (BatchIter, error) {
	it, err := s.src.OpenBatch()
	if err != nil {
		return nil, err
	}
	s.c.in = it
	return s.c, nil
}

// runDrain builds inputs on a fresh device with 64-byte pages at batch
// length batchLen and opens their single-pass union. counted wraps every
// stream in a countedList; otherwise posting lists and runs are handed to
// the merge by address, as the executor hands them. It takes m IDs through
// a one-element dst, then drains the rest at the batch length.
func runDrain(t *testing.T, inputs []drainInput, m, batchLen int, counted bool) drainOutcome {
	t.Helper()
	e := pagedEnv(t, 64)
	e.SetBatchLen(batchLen)
	lists := make([]ClimbSource, 0, len(inputs))
	runs := make([]RunSource, 0, len(inputs))
	sources := make([]IDSource, 0, len(inputs))
	counts := make([]*countedList, len(inputs))
	for i, in := range inputs {
		var src IDSource
		switch in.kind {
		case drainList:
			ext, err := e.Dev.Main.AppendRegion(codec.AppendIDList(nil, in.ids))
			if err != nil {
				t.Fatal(err)
			}
			lists = append(lists, ClimbSource{Env: e, Ref: climbing.ListRef{Ext: ext, Count: len(in.ids)}})
			src = &lists[len(lists)-1]
		case drainRun:
			run, err := e.SpillBatch(&sliceBatch{ids: in.ids}, op())
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run)
			src = &runs[len(runs)-1]
		default:
			src = SliceSource{IDs: in.ids}
		}
		if counted {
			counts[i] = new(countedList)
			src = countedSource{src: src, c: counts[i]}
		}
		sources = append(sources, src)
	}
	e.Dev.Flash.ResetStats()
	e.Dev.RAM.ResetHigh()
	start := e.Dev.Clock.Now()
	u, err := e.UnionBatch(sources, len(sources), op())
	if err != nil {
		t.Fatal(err)
	}
	var o drainOutcome
	var one [1]uint32
	for len(o.out) < m {
		n, err := u.Next(one[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		o.out = append(o.out, one[0])
	}
	rest, err := drainBatch(e, u)
	if err != nil {
		t.Fatal(err)
	}
	o.out = append(o.out, rest...)
	o.spent = spent{e.Dev.Clock.Now() - start, e.Dev.Flash.Stats()}
	if counted {
		for _, c := range counts {
			o.perIn = append(o.perIn, [2]int{c.ids, c.decodes})
		}
	}
	o.ramHigh, o.ramUsed = e.Dev.RAM.High(), e.Dev.RAM.Used()
	return o
}

// checkDrain holds the union of inputs, pulled m times and then drained at
// batch lengths 7 and 1024, to the same pulls followed by a drain at
// length 1, and the output to the sorted deduplicated reference.
func checkDrain(t *testing.T, inputs []drainInput, m int) {
	t.Helper()
	var all []uint32
	for _, in := range inputs {
		all = append(all, in.ids...)
	}
	ref := dedup(sorted(all))
	for _, counted := range []bool{true, false} {
		want := runDrain(t, inputs, m, 1, counted)
		if !slices.Equal(want.out, ref) {
			t.Fatalf("m=%d counted=%v: unit pulls give %d IDs, the reference %d", m, counted, len(want.out), len(ref))
		}
		for _, batchLen := range []int{7, 1024} {
			what := fmt.Sprintf("m=%d of %d, drained at %d, counted=%v", m, len(ref), batchLen, counted)
			got := runDrain(t, inputs, m, batchLen, counted)
			if !slices.Equal(got.out, want.out) {
				t.Fatalf("%s: output differs from unit pulls (%d IDs, want %d)", what, len(got.out), len(want.out))
			}
			if got.spent != want.spent {
				t.Errorf("%s: spent %+v, unit pulls %+v", what, got.spent, want.spent)
			}
			if !reflect.DeepEqual(got.perIn, want.perIn) {
				t.Errorf("%s: per input (IDs, decode calls) %v, unit pulls %v", what, got.perIn, want.perIn)
			}
			if got.ramHigh != want.ramHigh || got.ramUsed != want.ramUsed {
				t.Errorf("%s: RAM high %d, left %d; unit pulls %d, %d", what, got.ramHigh, got.ramUsed, want.ramHigh, want.ramUsed)
			}
		}
	}
}

// drainTakes are the pull counts a case is cut at before its drain: none,
// one, one per input, the middle, all but one, all, and the first cut
// whose last ID is held by more than one input (the drain must not emit
// it again).
func drainTakes(inputs []drainInput) []int {
	holders := map[uint32]int{}
	var all []uint32
	for _, in := range inputs {
		for _, id := range in.ids {
			holders[id]++
		}
		all = append(all, in.ids...)
	}
	ids := dedup(sorted(all))
	n := len(ids)
	takes := []int{0, 1, len(inputs), n / 2, n - 1, n}
	for m := 2; m < n; m++ {
		if holders[ids[m-1]] > 1 {
			takes = append(takes, m)
			break
		}
	}
	return takes
}

// overlapping returns six inputs of every kind whose IDs mostly overlap,
// the shortest n long, then an empty list and a one-element tie.
func overlapping(rng *rand.Rand, n int) []drainInput {
	var inputs []drainInput
	for i := 0; i < 6; i++ {
		var ids []uint32
		id := uint32(0)
		for len(ids) < n+n/3*i {
			id += uint32(1 + rng.Intn(3))
			ids = append(ids, id)
		}
		inputs = append(inputs, drainInput{kind: i % 3, ids: ids})
	}
	return append(inputs, drainInput{kind: drainList}, drainInput{kind: drainList, ids: []uint32{inputs[0].ids[0]}})
}

// fullRange returns inputs whose IDs spread over the whole uint32 range,
// both ends included, about n of them.
func fullRange(rng *rand.Rand, n int) []drainInput {
	inputs := []drainInput{
		{kind: drainSlice, ids: []uint32{0, 1, math.MaxUint32}},
		{kind: drainList, ids: []uint32{0, math.MaxUint32 / 2, math.MaxUint32}},
	}
	for i := 0; i < 3; i++ {
		ids := make([]uint32, n/3)
		for j := range ids {
			ids[j] = rng.Uint32()
		}
		inputs = append(inputs, drainInput{kind: i % 3, ids: dedup(sorted(ids))})
	}
	return inputs
}

// drainCases are the unions the differential runs, each on both sides of
// the batch size below which a drain collects IDs instead of setting bits.
func drainCases() map[string][]drainInput {
	rng := rand.New(rand.NewSource(28))
	cases := map[string][]drainInput{
		"overlap-small":    overlapping(rng, 60),
		"overlap":          overlapping(rng, 150),
		"full-range-small": fullRange(rng, 300),
		"full-range":       fullRange(rng, 1500),
	}

	// Disjoint posting lists, as one level of a climbing index has.
	perm := rng.Perm(1500)
	var disjoint []drainInput
	for i := 0; i < 5; i++ {
		var ids []uint32
		for _, p := range perm[i*300 : (i+1)*300] {
			ids = append(ids, uint32(p+1))
		}
		disjoint = append(disjoint, drainInput{kind: drainList, ids: sorted(ids)})
	}
	cases["disjoint"] = disjoint

	// Dense inputs and one far outlier met after most of them: the bitmap
	// turns into a slice midway.
	cases["dense-outlier"] = []drainInput{
		{kind: drainList, ids: seqIDs(100, 1000)},
		{kind: drainRun, ids: seqIDs(300, 1000)},
		{kind: drainSlice, ids: append(seqIDs(50, 500), 1<<30)},
	}
	return cases
}

// TestUnionDrainMatchesUnitPulls holds every drained union to unit pulls:
// output, clock, flash.Stats, per-input IDs and decode calls, RAM
// high-water and RAM left granted — on posting lists, runs and slices, cut
// at every pull count drainTakes names. Under -short it cuts at none and
// at the first shared ID only.
func TestUnionDrainMatchesUnitPulls(t *testing.T) {
	for name, inputs := range drainCases() {
		t.Run(name, func(t *testing.T) {
			takes := drainTakes(inputs)
			if testing.Short() {
				takes = []int{0, takes[len(takes)-1]}
			}
			for _, m := range takes {
				checkDrain(t, inputs, m)
			}
		})
	}
}

// FuzzUnionDrain runs the drain differential on random unions: up to eight
// sorted deduplicated inputs of mixed kinds over a span the fuzzer picks
// (0: the whole uint32 range), cut after m unit pulls.
func FuzzUnionDrain(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(200), uint32(1000), uint16(5))
	f.Add(int64(2), uint8(8), uint16(40), uint32(0), uint16(0))
	f.Add(int64(3), uint8(1), uint16(1), uint32(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, k uint8, n uint16, span uint32, m uint16) {
		rng := rand.New(rand.NewSource(seed))
		inputs := make([]drainInput, 1+int(k)%8)
		for i := range inputs {
			ids := make([]uint32, rng.Intn(int(n)%300+1))
			for j := range ids {
				if span == 0 {
					ids[j] = rng.Uint32()
				} else {
					ids[j] = uint32(rng.Int63n(int64(span) + 1))
				}
			}
			inputs[i] = drainInput{kind: i % 3, ids: dedup(sorted(ids))}
		}
		checkDrain(t, inputs, int(m)%600)
	})
}
