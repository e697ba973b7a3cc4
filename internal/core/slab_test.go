package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/testenv"
	"github.com/ghostdb/ghostdb/internal/value"
)

// demoShape is the paper's Section 4 query; purposeShape drops its hidden
// predicate and projects the hidden string instead, so every visit the
// visible side selects is a posting list to translate and every result
// row a hidden string to fetch.
const (
	demoShape = `SELECT Med.Name, Pre.Quantity, Vis.Date FROM Medicine Med, Prescription Pre, Visit Vis ` +
		`WHERE Vis.Date > 05-11-2006 AND Vis.Purpose = "Sclerosis" AND Med.Type = "Antibiotic" ` +
		`AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`
	purposeShape = `SELECT Vis.Purpose, Med.Name, Pre.Quantity FROM Medicine Med, Prescription Pre, Visit Vis ` +
		`WHERE Vis.Date > 05-11-2006 AND Med.Type = "Antibiotic" ` +
		`AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`
)

// TestQueryAllocationFloor pins what a demo-shaped query may allocate as
// the database doubles: the distinct hidden strings it projects (the scan
// interns the repeats) plus the merges' slabs — under half an object per
// extra posting list — and nothing per list or per row. Before the slabs
// every translated list cost six objects and every fetched string two.
func TestQueryAllocationFloor(t *testing.T) {
	testenv.SkipFloorUnderRace(t)
	type load struct{ objects, lists, rows, distinct uint64 }
	measure := func(prescriptions int) load {
		db := loadScale(t, prescriptions)
		defer db.Close()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		l := load{objects: ^uint64(0)}
		for i := 0; i < 6; i++ {
			var res *Result
			objects, _ := allocsDuring(func() {
				var err error
				if res, err = db.Query(purposeShape); err != nil {
					t.Fatal(err)
				}
			})
			if i > 0 && objects < l.objects {
				l.objects = objects // run 0 warms the plan cache and the pools
			}
			l.lists, l.rows = 0, uint64(len(res.Rows))
			for _, o := range res.Report.Ops {
				if o.Name == "Translate" {
					l.lists += uint64(o.TuplesIn)
				}
			}
			seen := map[string]bool{}
			for _, r := range res.Rows {
				seen[r[0].Str()] = true
			}
			l.distinct = uint64(len(seen))
		}
		return l
	}
	lo, hi := measure(20_000), measure(40_000)
	t.Logf("20k: %+v\n40k: %+v", lo, hi)
	dLists, dRows := hi.lists-lo.lists, hi.rows-lo.rows
	if dLists < 200 || dRows < 1000 {
		t.Fatalf("vacuous: only %d more posting lists and %d more rows at twice the scale", dLists, dRows)
	}
	allowed := hi.distinct - lo.distinct + dLists/2
	if hi.objects > lo.objects+allowed {
		t.Fatalf("objects per query grew by %d (%d more lists, %d more rows, %d more distinct strings): allowed %d",
			hi.objects-lo.objects, dLists, dRows, hi.distinct-lo.distinct, allowed)
	}

	// The projection store: a projected column is a stripe of the one
	// slab, not a slice of its own, and a fixed-width cell is 9 bytes.
	// Every column below is fetched on the device, so the store is all a
	// further projection adds per candidate row; LIMIT 0 keeps the result
	// rows out of the count.
	const rows, extra = 20_000, 2
	db := loadScale(t, rows)
	defer db.Close()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cost := func(sqlText string) (objects, bytes uint64) {
		objects, bytes = ^uint64(0), ^uint64(0)
		for i := 0; i < 6; i++ {
			o, b := allocsDuring(func() {
				if _, err := db.Query(sqlText); err != nil {
					t.Fatal(err)
				}
			})
			if i > 0 {
				objects, bytes = min(objects, o), min(bytes, b)
			}
		}
		return objects, bytes
	}
	for _, where := range []string{"", " WHERE Pre.PreID = 17"} {
		o1, b1 := cost(`SELECT Pre.Quantity FROM Prescription Pre` + where + ` LIMIT 0`)
		o3, b3 := cost(`SELECT Pre.Quantity, Pre.WhenWritten, Pre.PreID FROM Prescription Pre` + where + ` LIMIT 0`)
		t.Logf("1 projection%s: %d objects, %d B; 3 projections: %d objects, %d B", where, o1, b1, o3, b3)
		if o3 > o1+extra {
			t.Errorf("%d more objects for %d more projected columns%s: the store allocates per column", o3-o1, extra, where)
		}
		if where == "" && (b3 < b1 || b3-b1 > 10*extra*rows) {
			t.Errorf("%d more bytes for %d more projected columns over %d candidate rows: over 10 B a cell", b3-b1, extra, rows)
		}
	}
}

// hogSource is a merge input whose stream, while open, leaves the arena
// less room than one more page: the stream opened after it cannot fit.
type hogSource struct{ arena *ram.Arena }

func (h hogSource) Count() int { return 0 }

func (h hogSource) OpenBatch() (exec.BatchIter, error) { return newHog(h.arena, 0) }

type hogIter struct {
	arena *ram.Arena
	pages int // on exhaustion, squeeze the arena down to this many free pages (and a half)
	ids   []uint32
	grant *ram.Grant
}

// newHog squeezes the arena to pages free pages and a half.
func newHog(arena *ram.Arena, pages int) (*hogIter, error) {
	h := &hogIter{arena: arena, pages: pages}
	return h, h.squeeze()
}

func (h *hogIter) squeeze() (err error) {
	const page = 2048
	h.grant, err = h.arena.Alloc(int(h.arena.Available())-h.pages*page-page/2, "hog")
	return err
}

// Next yields the IDs; a hog built by hand (TranslateBatch's input)
// squeezes only once they are all handed over.
func (h *hogIter) Next(dst []uint32) (int, error) {
	n := copy(dst, h.ids)
	h.ids = h.ids[n:]
	if n == 0 && h.grant == nil {
		return 0, h.squeeze()
	}
	return n, nil
}

func (h *hogIter) Close() { h.grant.Free() }

// TestNoGrantSurvivesFailedOpen proves the error paths of the slab-backed
// merges: whichever stream's page is the one that does not fit — the
// first, the second, one in the middle, the last — the failed call hands
// back every byte it reserved, a successful one does so on Close (twice is
// once), and the engine answers the next query as a fresh device does.
// The same for a scratch space that fills while TranslateBatch spills.
func TestNoGrantSurvivesFailedOpen(t *testing.T) {
	prof := device.SmartUSB2007()
	prof.ScratchBlocks = 2 // 128 pages: small enough to fill
	db := loadScale(t, 20_000, WithProfile(prof))
	defer db.Close()
	fresh := loadScale(t, 20_000, WithProfile(prof))
	defer fresh.Close()
	wantRes, err := fresh.Query(demoShape)
	if err != nil || len(wantRes.Rows) == 0 {
		t.Fatalf("fresh device: %d rows, %v", len(wantRes.Rows), err)
	}
	want := fmt.Sprint(wantRes.Rows)

	e := db.shards.engines[0]
	env, arena := e.env, e.dev.RAM
	tr, err := e.translator("Visit")
	if err != nil {
		t.Fatal(err)
	}
	fanin := env.Fanin(0.5)
	n := (fanin - 1) &^ 1 // with the hog, one single-pass merge; even, to pair up
	ids := make([]uint32, n)
	refs := make([]climbing.ListRef, n)
	for i := range refs {
		ids[i] = uint32(i + 1)
		ref, ok, err := tr.LookupList(value.NewInt(int64(i+1)), 1)
		if err != nil || !ok || ref.Count == 0 {
			t.Fatalf("visit %d: list %+v found=%v err=%v", i+1, ref, ok, err)
		}
		refs[i] = ref
	}
	base := arena.Used()
	op := &stats.Op{}

	// check holds one call to the contract. A failed call must fail for
	// the stated reason and hold nothing; a successful one is drained and
	// closed twice. Either way the arena is back where it was and the
	// engine still answers.
	check := func(t *testing.T, it exec.BatchIter, err error, reason error) {
		t.Helper()
		if reason != nil {
			if !errors.Is(err, reason) {
				t.Fatalf("err = %v, want %v", err, reason)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			if arena.Used() == base {
				t.Fatal("an open merge holds no page")
			}
			buf := make([]uint32, 64)
			for {
				k, err := it.Next(buf)
				if err != nil {
					t.Fatal(err)
				}
				if k == 0 {
					break
				}
			}
			it.Close()
			if got := arena.Used(); got != base {
				t.Fatalf("Close left %d bytes reserved", got-base)
			}
			it.Close()
		}
		if got := arena.Used(); got != base {
			t.Fatalf("%d bytes still reserved (%v)", got-base, arena.Snapshot())
		}
		if err := e.dev.ResetScratch(); err != nil { // what the engine does after every query
			t.Fatal(err)
		}
		res, err := db.Query(demoShape)
		if err != nil {
			t.Fatalf("the following query: %v", err)
		}
		if got := fmt.Sprint(res.Rows); got != want {
			t.Fatalf("the following query answers differently from a fresh device")
		}
		if got := arena.Used(); got != base {
			t.Fatalf("the following query left %d bytes reserved", got-base)
		}
	}
	// withHog places a hog before the k-th list (1-based).
	withHog := func(k int, lists []exec.IDSource) []exec.IDSource {
		out := append([]exec.IDSource{}, lists[:k-1]...)
		return append(append(out, hogSource{arena}), lists[k-1:]...)
	}
	ks := []int{1, 2, n / 2, n}

	for _, k := range ks {
		t.Run(fmt.Sprintf("UnionBatch/k=%d", k), func(t *testing.T) {
			it, err := env.UnionBatch(withHog(k, env.ListSources(tr, refs)), fanin, op)
			check(t, it, err, ram.ErrBudget)
		})
		t.Run(fmt.Sprintf("TranslateBatch/k=%d", k), func(t *testing.T) {
			// The input hands over every identifier, then squeezes the
			// arena to k-1 pages: the final merge opens n lists.
			in := &hogIter{arena: arena, pages: k - 1, ids: append([]uint32{}, ids...)}
			it, err := env.TranslateBatch(in, tr, 1, fanin, op)
			check(t, it, err, ram.ErrBudget)
		})
		t.Run(fmt.Sprintf("MergeIntersectBatch/k=%d", k), func(t *testing.T) {
			// rootStream's shape: open the contributions one after the
			// other (here unions of two lists each, the k-th list behind
			// a hog), close what is open when one fails, else intersect.
			var its []exec.BatchIter
			var err error
			for at := 0; at+2 <= n && err == nil; at += 2 {
				group := env.ListSources(tr, refs[at:at+2])
				if at < k && k <= at+2 {
					group = withHog(k-at, group)
				}
				var it exec.BatchIter
				if it, err = env.UnionBatch(group, fanin, op); err == nil {
					its = append(its, it)
				}
			}
			for _, it := range its {
				it.Close()
			}
			check(t, nil, err, ram.ErrBudget)
		})
	}
	t.Run("UnionBatch/fits", func(t *testing.T) {
		it, err := env.UnionBatch(env.ListSources(tr, refs), fanin, op)
		check(t, it, err, nil)
	})
	t.Run("TranslateBatch/fits", func(t *testing.T) {
		it, err := env.TranslateBatch(&hogIter{arena: arena, pages: n, ids: append([]uint32{}, ids...)}, tr, 1, fanin, op)
		check(t, it, err, nil)
	})
	t.Run("MergeIntersectBatch/fits", func(t *testing.T) {
		var its []exec.BatchIter
		for at := 0; at+2 <= n; at += 2 {
			it, err := env.UnionBatch(env.ListSources(tr, refs[at:at+2]), fanin, op)
			if err != nil {
				t.Fatal(err)
			}
			its = append(its, it)
		}
		it, err := env.MergeIntersectBatch(its)
		check(t, it, err, nil)
	})

	// The scratch space fills during a flush's SpillBatch: fan-in 2 makes
	// every pair of lists a one-page run, so with j pages free the
	// (j+1)-th flush is the one that fails.
	many := make([]uint32, 60)
	for i := range many {
		many[i] = uint32(i + 1)
	}
	for _, j := range []int{0, 1, 9, 29} {
		t.Run(fmt.Sprintf("TranslateBatch/scratch-free=%d", j), func(t *testing.T) {
			w, err := db.shards.engines[0].dev.Scratch.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(make([]byte, int(db.shards.engines[0].dev.Scratch.FreeBytes())-j*prof.Flash.PageSize)); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Close(); err != nil {
				t.Fatal(err)
			}
			in, err := exec.SliceSource{IDs: many}.OpenBatch()
			if err != nil {
				t.Fatal(err)
			}
			it, err := env.TranslateBatch(in, tr, 1, 2, op)
			check(t, it, err, flash.ErrSpaceFull)
		})
	}
}
