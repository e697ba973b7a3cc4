package climbing

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// lookupFixture builds, on a fresh two-frame-cache device, a dense index
// on Visit.VisID and a non-dense one on Visit.Purpose (both climbing to
// Prescription), large enough that their three regions span many pages:
// with two cache frames nearly every read order has its own hit/miss
// sequence. The build is deterministic, so two fixtures are two identical
// devices.
func lookupFixture(t *testing.T) (dev *device.Device, st *store.Store, dense, sparse *Index) {
	t.Helper()
	const visits = 900
	prof := device.SmartUSB2007()
	prof.CacheFrames = 2
	dev, err := device.New(prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := newFixture(t)
	if f.st, err = store.New(dev); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	pres := make([][]uint32, visits) // visit v -> its prescriptions
	next := uint32(1)
	for v := range pres {
		for k := rng.Intn(4); k > 0; k-- { // some visits have none
			pres[v] = append(pres[v], next)
			next++
		}
	}
	f.inv["Prescription->Visit"] = pres
	ids := make([]value.Value, visits)
	purposes := make([]value.Value, visits)
	for v := range ids {
		ids[v] = value.NewInt(int64(v + 1))
		// 120 distinct strings of 20..140 bytes: some outgrow readValue's
		// stack buffer.
		p := rng.Intn(120)
		purposes[v] = strv(fmt.Sprintf("purpose-%03d-%0*d", p, 8+p, p))
	}
	if dense, err = Build(f.st, f.sch, "Visit", "VisID", columnOf(value.Int, ids), true, f.edges); err != nil {
		t.Fatal(err)
	}
	if sparse, err = Build(f.st, f.sch, "Visit", "Purpose", columnOf(value.String, purposes), false, f.edges); err != nil {
		t.Fatal(err)
	}
	return dev, f.st, dense, sparse
}

// deviceCost is everything a lookup sequence spends on a device.
type deviceCost struct {
	Clock        time.Duration
	Flash        flash.Stats
	Hits, Misses int64
}

func costOf(dev *device.Device, st *store.Store) deviceCost {
	return deviceCost{dev.Clock.Now(), dev.Flash.Stats(), st.Cache().Hits(), st.Cache().Misses()}
}

// TestLookupListSameReadsSameOrder holds the one-level lookup to LookupEq:
// for every probe — every dictionary value, and keys below, between and
// past them — and every level it returns LookupEq's Lists[level], and a
// fresh device driven through LookupList alone ends with the clock, flash
// statistics and page-cache hit/miss counts of one driven through LookupEq.
func TestLookupListSameReadsSameOrder(t *testing.T) {
	for _, kind := range []string{"dense", "non-dense"} {
		t.Run(kind, func(t *testing.T) {
			devA, stA, denseA, sparseA := lookupFixture(t)
			devB, stB, denseB, sparseB := lookupFixture(t)
			ixA, ixB := denseA, denseB
			var probes []value.Value
			if kind == "dense" {
				for id := 0; id <= denseA.n+1; id++ { // 0 and n+1 miss
					probes = append(probes, value.NewInt(int64(id)))
				}
			} else {
				ixA, ixB = sparseA, sparseB
				probes = append(probes, strv(""), strv("purpose-050-x"), strv("zzz")) // misses: below, between, past
				probes = append(probes, sparseA.vals...)
			}
			// Not in dictionary order: neighbours would share cached pages.
			rand.New(rand.NewSource(22)).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
			if costOf(devA, stA) != costOf(devB, stB) {
				t.Fatal("the two fixtures differ before any lookup")
			}
			for level := range ixA.Levels {
				for _, p := range probes {
					e, okA, errA := ixA.LookupEq(p)
					ref, okB, errB := ixB.LookupList(p, level)
					if okA != okB || (errA == nil) != (errB == nil) {
						t.Fatalf("level %d, %v: LookupEq found=%v err=%v, LookupList found=%v err=%v", level, p, okA, errA, okB, errB)
					}
					if okA && !reflect.DeepEqual(ref, e.Lists[level]) {
						t.Fatalf("level %d, %v: LookupList = %+v, LookupEq's list = %+v", level, p, ref, e.Lists[level])
					}
					if a, b := costOf(devA, stA), costOf(devB, stB); a != b {
						t.Fatalf("level %d, %v: devices diverge\n LookupEq   %+v\n LookupList %+v", level, p, a, b)
					}
				}
			}
			if c := costOf(devA, stA); c.Misses == 0 || c.Hits == 0 {
				t.Fatalf("vacuous: %d hits, %d misses", c.Hits, c.Misses)
			}
			if _, _, err := ixB.LookupList(probes[0], len(ixB.Levels)); err == nil {
				t.Fatal("LookupList accepted a level past the root")
			}
		})
	}
}

// refWalk is the per-operator dictionary walk Index.Walk replaced,
// kept as the reference for the calls a walk makes and their order.
func refWalk(ix *Index, p pred.P, fn func(Entry) error) error {
	visitRange := func(lo, hi *Bound) error {
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
	}
	lookup := func(v value.Value) error {
		e, ok, err := ix.LookupEq(v)
		if err != nil || !ok {
			return err
		}
		return fn(e)
	}
	switch p.Form {
	case pred.FormCompare:
		switch p.Op {
		case sql.OpEq:
			return lookup(p.Val)
		case sql.OpNe:
			if err := visitRange(nil, &Bound{V: p.Val}); err != nil {
				return err
			}
			return visitRange(&Bound{V: p.Val}, nil)
		case sql.OpLt:
			return visitRange(nil, &Bound{V: p.Val})
		case sql.OpLe:
			return visitRange(nil, &Bound{V: p.Val, Inclusive: true})
		case sql.OpGt:
			return visitRange(&Bound{V: p.Val}, nil)
		case sql.OpGe:
			return visitRange(&Bound{V: p.Val, Inclusive: true}, nil)
		}
	case pred.FormBetween:
		return visitRange(&Bound{V: p.Lo, Inclusive: true}, &Bound{V: p.Hi, Inclusive: true})
	case pred.FormIn:
		for _, v := range p.Set {
			if err := lookup(v); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown predicate %v", p)
}

// TestWalkSelectsWhatEvalSelects holds Index.Walk, on a dense and a
// non-dense index, for every operator, BETWEEN and IN over literals
// below, inside, between and past the dictionary: it yields exactly the
// entries whose value satisfies Eval, in value order (an IN list's in
// list order), they and their lists are refWalk's, and a twin device
// driven through refWalk ends with the same clock, flash statistics and
// page-cache hit/miss counts.
func TestWalkSelectsWhatEvalSelects(t *testing.T) {
	for _, kind := range []string{"dense", "non-dense"} {
		t.Run(kind, func(t *testing.T) {
			devA, stA, denseA, sparseA := lookupFixture(t)
			devB, stB, denseB, sparseB := lookupFixture(t)
			ixA, ixB := denseA, denseB
			var dict, lits []value.Value
			if kind == "dense" {
				for id := 1; id <= denseA.n; id++ {
					dict = append(dict, value.NewInt(int64(id)))
				}
				lits = []value.Value{value.NewInt(0), value.NewInt(1), value.NewInt(450), value.NewInt(900), value.NewInt(901)}
			} else {
				ixA, ixB = sparseA, sparseB
				dict = sparseA.vals
				lits = []value.Value{strv(""), dict[0], dict[60], strv("purpose-050-x"), dict[len(dict)-1], strv("zzz")}
			}
			var preds []pred.P
			for _, v := range lits {
				for op := sql.OpEq; op <= sql.OpGe; op++ {
					preds = append(preds, pred.Compare(op, v))
				}
				for _, w := range lits {
					preds = append(preds, pred.Between(v, w))
				}
			}
			preds = append(preds, pred.In(lits), pred.In([]value.Value{lits[3], lits[1], lits[4]}), pred.In(nil))

			for _, p := range preds {
				var want []value.Value
				if p.Form == pred.FormIn {
					for _, v := range p.Set {
						if slices.Contains(dict, v) {
							want = append(want, v)
						}
					}
				} else {
					for _, v := range dict {
						if ok, err := p.Eval(v); err != nil {
							t.Fatal(err)
						} else if ok {
							want = append(want, v)
						}
					}
				}
				collect := func(walk func(*Index, pred.P, func(Entry) error) error, ix *Index) []Entry {
					var out []Entry
					err := walk(ix, p, func(e Entry) error {
						e.Lists = slices.Clone(e.Lists)
						out = append(out, e)
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", p, err)
					}
					return out
				}
				got := collect((*Index).Walk, ixA)
				ref := collect(refWalk, ixB)
				var gotVals []value.Value
				for _, e := range got {
					gotVals = append(gotVals, e.Value)
				}
				if !slices.Equal(gotVals, want) {
					t.Fatalf("%s: walk yields %d entries %v, Eval selects %d", p, len(got), gotVals, len(want))
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("%s: walk and reference walk yield different entries", p)
				}
				if a, b := costOf(devA, stA), costOf(devB, stB); a != b {
					t.Fatalf("%s: devices diverge\n Walk      %+v\n reference %+v", p, a, b)
				}
			}
			if c := costOf(devA, stA); c.Misses == 0 || c.Hits == 0 {
				t.Fatalf("vacuous: %d hits, %d misses", c.Hits, c.Misses)
			}
		})
	}
}
