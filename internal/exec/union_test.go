package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/sim"
)

// refHeap and refUnion are the union's merge loop as it stood before
// replaceTop: one pop then one push per merged ID, on a heap ordered by id
// alone — whichever of two equal IDs sat higher in the array left first.
// byInput orders equal IDs by input, as idxHeap does, and changes nothing
// else. It pulls its inputs one ID at a time and steps the heap for every
// ID it returns, whatever the request: drained at batch length 7 or 1024,
// the union under test sweeps a bitmap instead and must still agree. Kept
// as the in-process reference of TestUnionOneSiftPerID.
type refHeap struct {
	ents    []refEnt
	ops     int64
	byInput bool
}

type refEnt struct {
	id  uint32
	idx int32
}

func (h *refHeap) less(a, b int) bool {
	if h.ents[a].id != h.ents[b].id {
		return h.ents[a].id < h.ents[b].id
	}
	return h.byInput && h.ents[a].idx < h.ents[b].idx
}

func (h *refHeap) push(id uint32, i int) {
	h.ops++
	h.ents = append(h.ents, refEnt{id, int32(i)})
	j := len(h.ents) - 1
	for j > 0 {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			break
		}
		h.ents[parent], h.ents[j] = h.ents[j], h.ents[parent]
		j = parent
	}
}

func (h *refHeap) pop() (uint32, int) {
	h.ops++
	top := h.ents[0]
	last := len(h.ents) - 1
	h.ents[0] = h.ents[last]
	h.ents = h.ents[:last]
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		small := j
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == j {
			break
		}
		h.ents[small], h.ents[j] = h.ents[j], h.ents[small]
		j = small
	}
	return top.id, int(top.idx)
}

type refUnion struct {
	env    *Env
	h      refHeap
	curs   []unitCursor
	last   uint32
	primed bool
}

func newRefUnion(e *Env, its []BatchIter, byInput bool) (*refUnion, error) {
	u := &refUnion{env: e, curs: make([]unitCursor, len(its)), h: refHeap{byInput: byInput}}
	for i, it := range its {
		u.curs[i].src = it
	}
	for i := range u.curs {
		id, ok, err := u.curs[i].next()
		if err != nil {
			return nil, err
		}
		if ok {
			u.h.push(id, i)
		}
	}
	u.env.cpuUnits(sim.CyclesHeapOp, u.h.ops)
	u.h.ops = 0
	return u, nil
}

func (u *refUnion) Next(dst []uint32) (int, error) {
	n := 0
	for n < len(dst) && len(u.h.ents) > 0 {
		id, ci := u.h.pop()
		next, ok, err := u.curs[ci].next()
		if err != nil {
			return n, err
		}
		if ok {
			u.h.push(next, ci)
		}
		if u.primed && id == u.last {
			continue // duplicate
		}
		u.last = id
		u.primed = true
		dst[n] = id
		n++
	}
	u.env.cpuUnits(sim.CyclesHeapOp, u.h.ops)
	u.h.ops = 0
	return n, nil
}

func (u *refUnion) Close() {
	for i := range u.curs {
		u.curs[i].src.Close()
	}
}

// countedList counts what a merge asks of one posting list: IDs handed
// over and decode calls made (one per ID, plus the probe that finds the
// list exhausted).
type countedList struct {
	in      BatchIter
	ids     int
	decodes int
	dry     bool
}

func (c *countedList) Next(dst []uint32) (int, error) {
	n, err := c.in.Next(dst)
	c.ids += n
	c.decodes += n
	if n < len(dst) && !c.dry {
		c.decodes++
		c.dry = true
	}
	return n, err
}

func (c *countedList) Close() { c.in.Close() }

// unionRun is everything one merge produced and spent.
type unionRun struct {
	out     []uint32
	perList [][2]int // IDs pulled, decode calls
	spent   spent
	heapOps int64
}

// The three merges TestUnionOneSiftPerID runs.
const (
	mergeReplaceTop    = iota // Env.mergeUnionBatch
	mergePopPush              // refUnion, equal IDs in input order
	mergePopPushParent        // refUnion, equal IDs in heap-array order
)

// runUnion merges lists (posting lists on 64-byte pages, so each spans
// several) on a fresh device and pulls take IDs through a one-element
// dst — the intersection's pull — or drains the merge at the batch length
// when take < 0.
func runUnion(t *testing.T, lists [][]uint32, batchLen, take, merge int) unionRun {
	t.Helper()
	e := pagedEnv(t, 64)
	e.SetBatchLen(batchLen)
	counted := make([]*countedList, len(lists))
	its := make([]BatchIter, len(lists))
	for i, ids := range lists {
		ext, err := e.Dev.Main.AppendRegion(codec.AppendIDList(nil, ids))
		if err != nil {
			t.Fatal(err)
		}
		it, err := ClimbSource{Env: e, Ref: climbing.ListRef{Ext: ext, Count: len(ids)}}.OpenBatch()
		if err != nil {
			t.Fatal(err)
		}
		counted[i] = &countedList{in: it}
		its[i] = counted[i]
	}
	e.Dev.Flash.ResetStats()
	start := e.Dev.Clock.Now()
	var u BatchIter
	var err error
	if merge == mergeReplaceTop {
		u, err = e.mergeUnionBatch(its)
	} else {
		u, err = newRefUnion(e, its, merge == mergePopPush)
	}
	if err != nil {
		t.Fatal(err)
	}
	var run unionRun
	if take < 0 {
		if run.out, err = drainBatch(e, u); err != nil {
			t.Fatal(err)
		}
	} else {
		var one [1]uint32
		for len(run.out) < take {
			n, err := u.Next(one[:])
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
			run.out = append(run.out, one[0])
		}
		u.Close()
	}
	run.spent = spent{e.Dev.Clock.Now() - start, e.Dev.Flash.Stats()}
	cpu := run.spent.clock - run.spent.flash.ReadTime
	perCycle := time.Second / time.Duration(e.Dev.CPU.Hz())
	for _, c := range counted {
		run.perList = append(run.perList, [2]int{c.ids, c.decodes})
		cpu -= time.Duration(c.decodes) * sim.CyclesDecode * perCycle
	}
	run.heapOps = int64(cpu / (sim.CyclesHeapOp * perCycle))
	if e.Dev.RAM.Used() != 0 {
		t.Fatalf("%d bytes of RAM still granted", e.Dev.RAM.Used())
	}
	return run
}

// TestUnionOneSiftPerID holds the replaceTop merge to the pop-then-push
// loop on lists that share IDs, drained whole and abandoned early through
// a one-element dst: same output, same heap-operation count, same decode
// calls on every list, same clock and flash traffic. Against the loop with
// the parent's heap, which let the array decide between equal IDs, the
// same holds wherever that choice cannot show: drained whole, or abandoned
// on an ID only one list holds. Abandoned on a shared ID the two have
// advanced different holders of it — found by this test, and the reason
// idxHeap orders equal IDs by input: what an abandoned merge has read is
// then a function of its inputs, not of the heap's shape. (No operator
// unions overlapping lists: the posting lists of distinct values at one
// level are disjoint.)
func TestUnionOneSiftPerID(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const k = 6
	lists := make([][]uint32, k)
	holders := map[uint32]int{}
	for i := range lists {
		id := uint32(0)
		for len(lists[i]) < 150+40*i {
			id += uint32(1 + rng.Intn(3)) // dense enough that most IDs are shared
			lists[i] = append(lists[i], id)
			holders[id]++
		}
	}
	lists = append(lists, nil, []uint32{lists[0][0]}) // an empty list and a one-element tie
	holders[lists[0][0]]++
	whole := runUnion(t, lists, 1024, -1, mergePopPushParent).out
	total := len(whole)
	takes := []int{-1, 0, 1, 2, k, total / 2, total - 1, total, total + 1}
	for _, shared := range []bool{false, true} { // and one abandonment of each kind for sure
		for m := k + 1; m < total; m++ {
			if (holders[whole[m-1]] > 1) == shared {
				takes = append(takes, m)
				break
			}
		}
	}
	equal := func(what string, got, want unionRun) {
		t.Helper()
		if got.heapOps != want.heapOps {
			t.Errorf("%s: %d heap operations charged, not %d", what, got.heapOps, want.heapOps)
		}
		if !reflect.DeepEqual(got.perList, want.perList) {
			t.Errorf("%s: per list (IDs, decode calls) %v, not %v", what, got.perList, want.perList)
		}
		if got.spent != want.spent {
			t.Errorf("%s: spent %+v, not %+v", what, got.spent, want.spent)
		}
	}
	tiedAbandonments := 0
	for _, batchLen := range diffLens {
		for _, take := range takes {
			what := fmt.Sprintf("batch length %d, take %d of %d", batchLen, take, total)
			got := runUnion(t, lists, batchLen, take, mergeReplaceTop)
			want := runUnion(t, lists, batchLen, take, mergePopPush)
			parent := runUnion(t, lists, batchLen, take, mergePopPushParent)
			if !reflect.DeepEqual(got.out, want.out) || !reflect.DeepEqual(got.out, parent.out) {
				t.Fatalf("%s: output differs", what)
			}
			equal(what+" vs pop-then-push", got, want)
			if take > 0 && take < total && holders[whole[take-1]] > 1 {
				if !reflect.DeepEqual(parent.perList, got.perList) {
					tiedAbandonments++
				}
				continue
			}
			equal(what+" vs the parent's heap", got, parent)
		}
	}
	if tiedAbandonments == 0 {
		t.Error("no abandonment on a shared ID told the two tie orders apart: the lists no longer exercise it")
	}
}
