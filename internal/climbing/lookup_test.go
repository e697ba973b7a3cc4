package climbing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
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
	if dense, err = Build(f.st, f.sch, "Visit", "VisID", columnOf(value.Int, ids), true, f.inverted); err != nil {
		t.Fatal(err)
	}
	if sparse, err = Build(f.st, f.sch, "Visit", "Purpose", columnOf(value.String, purposes), false, f.inverted); err != nil {
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
