package exec

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/codec"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/testenv"
)

// objectsOf reports the heap objects one call of fn allocates: the
// smallest of a few single-threaded runs after a warm-up (pool refills
// and the runtime's own background allocations only ever add).
func objectsOf(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := after.Mallocs - before.Mallocs; i > 0 && d < best {
			best = d
		}
	}
	return best
}

// translateOnce climbs ids one level and closes the result, then erases
// the scratch space as the engine does after every query.
func translateOnce(tb testing.TB, e *Env, ix *climbing.Index, ids []uint32) {
	it, err := e.TranslateBatch(&sliceBatch{ids: ids}, ix, 1, e.Fanin(0.5), op())
	if err != nil {
		tb.Fatal(err)
	}
	it.Close()
	if err := e.Dev.ResetScratch(); err != nil {
		tb.Fatal(err)
	}
}

// listRefs looks up the parent-level posting lists of children 1..n.
func listRefs(tb testing.TB, ix *climbing.Index, n int) []climbing.ListRef {
	refs := make([]climbing.ListRef, n)
	for i := range refs {
		ref, ok, err := ix.LookupList(intValue(uint32(i+1)), 1)
		if err != nil || !ok {
			tb.Fatalf("list %d: found=%v err=%v", i+1, ok, err)
		}
		refs[i] = ref
	}
	return refs
}

// unionOnce opens the union of the lists and closes it unread.
func unionOnce(tb testing.TB, e *Env, ix *climbing.Index, refs []climbing.ListRef) {
	it, err := e.UnionBatch(e.ListSources(ix, refs), e.Fanin(0.5), op())
	if err != nil {
		tb.Fatal(err)
	}
	it.Close()
}

// TestTranslateAllocationFloor pins what translating one more identifier
// may cost the host: its posting list is a slot in its merge's slabs, so
// the objects of a whole translation — lookups, merges, spills, the
// multi-pass union of the spilled runs — grow by less than one per list.
// Before the slabs each list cost six (Entry.Lists, a boxed ClimbSource, a
// grant, a listBatch, a batchCursor, heap growth).
func TestTranslateAllocationFloor(t *testing.T) {
	testenv.SkipFloorUnderRace(t)
	const small, large = 256, 2048
	e, ix := translateFixture(t, large)
	lo := objectsOf(func() { translateOnce(t, e, ix, seqIDs(1, small)) })
	hi := objectsOf(func() { translateOnce(t, e, ix, seqIDs(1, large)) })
	t.Logf("TranslateBatch: %d objects over %d lists, %d over %d: %.2f per list (fan-in %d)",
		lo, small, hi, large, float64(hi-lo)/(large-small), e.Fanin(0.5))
	if hi < lo || hi-lo >= large-small {
		t.Fatalf("objects grew by %d from %d to %d lists: a posting list costs the host a heap object again", hi-lo, small, large)
	}
}

// TestUnionListsAllocationFloor: a single-pass union of k posting lists
// allocates the same number of objects whatever k is — the merge's slabs
// are longer, not more numerous — and, drained, whatever the number of IDs.
func TestUnionListsAllocationFloor(t *testing.T) {
	testenv.SkipFloorUnderRace(t)
	e, ix := translateFixture(t, 64)
	fanin := e.Fanin(0.5)
	refs := listRefs(t, ix, fanin)
	want := objectsOf(func() { unionOnce(t, e, ix, refs[:2]) })
	for _, k := range []int{3, fanin / 2, fanin} {
		if got := objectsOf(func() { unionOnce(t, e, ix, refs[:k]) }); got != want {
			t.Errorf("union of %d lists allocates %d objects, of 2 lists %d", k, got, want)
		}
	}
	t.Logf("UnionBatch over ListSources: %d objects for any k in 2..%d", want, fanin)

	// Drained, a union holds its IDs as bits in batches borrowed from the
	// pool: 50 times the IDs cost no more objects. Spread over the whole
	// uint32 range they are held as a slice instead, one word an ID, never
	// as bits over the span (the allocator rounds that slice up to its
	// 8 KB pages).
	e = newEnv(t)
	const k, few, many = 12, 1000, 50_000
	dense := spreadLists(t, e, k, few, 1)
	lo := objectsOf(func() { drainListsOnce(t, e, dense) })
	dense = spreadLists(t, e, k, many, 1)
	if hi := objectsOf(func() { drainListsOnce(t, e, dense) }); hi > lo {
		t.Errorf("a drained %d-way union of %d IDs allocates %d objects, of %d IDs %d", k, many, hi, few, lo)
	}
	sparse := spreadLists(t, e, k, many, 1<<32/many)
	extra := bytesOf(func() { drainListsOnce(t, e, sparse) }) - bytesOf(func() { drainListsOnce(t, e, dense) })
	if extra > 4*many+8<<10 {
		t.Errorf("a drained union of %d IDs over the uint32 range allocates %d bytes more than a dense one, over one word an ID", many, extra)
	}
	t.Logf("drained %d-way union: %d objects at %d or %d IDs; %d bytes more for %d IDs over the uint32 range", k, lo, few, many, extra, many)
}

// bytesOf reports the heap bytes one call of fn allocates, the smallest
// of a few single-threaded runs after a warm-up.
func bytesOf(fn func()) int64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := int64(math.MaxInt64)
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		if d := int64(after.TotalAlloc - before.TotalAlloc); i > 0 && d < best {
			best = d
		}
	}
	return best
}

// spreadLists writes k disjoint posting lists of n IDs in all, ID j of
// the union being j·stride, and returns their references.
func spreadLists(tb testing.TB, e *Env, k, n int, stride uint32) []climbing.ListRef {
	tb.Helper()
	refs := make([]climbing.ListRef, k)
	for i := range refs {
		var ids []uint32
		for j := i; j < n; j += k {
			ids = append(ids, uint32(j)*stride)
		}
		ext, err := e.Dev.Main.AppendRegion(codec.AppendIDList(nil, ids))
		if err != nil {
			tb.Fatal(err)
		}
		refs[i] = climbing.ListRef{Ext: ext, Count: len(ids)}
	}
	return refs
}

// drainListsOnce opens the single-pass union of the lists and drains it a
// batch at a time.
func drainListsOnce(tb testing.TB, e *Env, refs []climbing.ListRef) {
	it, err := e.UnionBatch(e.ListSources(nil, refs), len(refs), op())
	if err != nil {
		tb.Fatal(err)
	}
	defer it.Close()
	buf := GetIDBatch()
	defer PutIDBatch(buf)
	for {
		n, err := it.Next(*buf)
		if err != nil {
			tb.Fatal(err)
		}
		if n == 0 {
			return
		}
	}
}

// benchEnvs runs fn at batch lengths 1/7/1024 on the default and the 16 KB
// device, each on a fresh device holding a translator over children lists.
func benchEnvs(b *testing.B, children int, fn func(b *testing.B, e *Env, ix *climbing.Index)) {
	for _, name := range []string{"default", "tiny"} {
		for _, batchLen := range diffLens {
			b.Run(fmt.Sprintf("%s/len=%d", name, batchLen), func(b *testing.B) {
				dev, err := device.New(diffProfiles()[name], nil)
				if err != nil {
					b.Fatal(err)
				}
				e := NewEnv(dev)
				e.SetBatchLen(batchLen)
				ix := translateFixtureOn(b, e, children)
				b.ReportAllocs()
				b.ResetTimer()
				fn(b, e, ix)
			})
		}
	}
}

// BenchmarkTranslate climbs 1,000 identifiers one level: on either device
// that is a multi-pass translation (fan-in 12 and 2).
func BenchmarkTranslate(b *testing.B) {
	benchEnvs(b, 1000, func(b *testing.B, e *Env, ix *climbing.Index) {
		ids := seqIDs(1, 1000)
		for i := 0; i < b.N; i++ {
			translateOnce(b, e, ix, ids)
		}
	})
}

// BenchmarkUnionLists opens and drains the union of 100 posting lists.
func BenchmarkUnionLists(b *testing.B) {
	benchEnvs(b, 100, func(b *testing.B, e *Env, ix *climbing.Index) {
		refs := listRefs(b, ix, 100)
		for i := 0; i < b.N; i++ {
			it, err := e.UnionBatch(e.ListSources(ix, refs), e.Fanin(0.5), op())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := drainBatch(e, it); err != nil {
				b.Fatal(err)
			}
			if err := e.Dev.ResetScratch(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
