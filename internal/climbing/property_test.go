package climbing

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/value"
)

// naiveIndex is the reference: a map from value to sorted own-level IDs
// plus the climbed parent IDs.
type naiveIndex struct {
	own    map[int64][]uint32
	parent map[int64][]uint32
}

func buildNaive(vals []int64, inv [][]uint32) *naiveIndex {
	n := &naiveIndex{own: map[int64][]uint32{}, parent: map[int64][]uint32{}}
	for i, v := range vals {
		n.own[v] = append(n.own[v], uint32(i+1))
	}
	for v, ids := range n.own {
		var parents []uint32
		for _, id := range ids {
			parents = append(parents, inv[id-1]...)
		}
		sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
		n.parent[v] = parents
	}
	return n
}

// TestPropertyIndexMatchesNaive builds random single-edge datasets and
// checks every lookup and range against the reference.
func TestPropertyIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 25; round++ {
		f := newFixture(t)
		nChild := 5 + rng.Intn(60)
		domain := int64(1 + rng.Intn(12))
		// Random child values; random inverted edge child -> parents.
		vals := make([]value.Value, nChild)
		raw := make([]int64, nChild)
		for i := range vals {
			raw[i] = int64(rng.Intn(int(domain)))
			vals[i] = value.NewInt(raw[i])
		}
		inv := make([][]uint32, nChild)
		next := uint32(1)
		for i := range inv {
			k := rng.Intn(4)
			for j := 0; j < k; j++ {
				inv[i] = append(inv[i], next)
				next++
			}
		}
		f.inv["Prescription->Visit"] = inv

		ix, err := Build(f.st, f.sch, "Visit", "Quantity", columnOf(value.Int, vals), false, f.edges)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		naive := buildNaive(raw, inv)

		if ix.DistinctValues() != len(naive.own) {
			t.Fatalf("round %d: %d distinct, want %d", round, ix.DistinctValues(), len(naive.own))
		}

		// Equality probes over the whole domain (hits and misses).
		for v := int64(-1); v <= domain; v++ {
			e, ok, err := ix.LookupEq(value.NewInt(v))
			if err != nil {
				t.Fatal(err)
			}
			want, exists := naive.own[v]
			if ok != exists {
				t.Fatalf("round %d: LookupEq(%d) ok=%v want %v", round, v, ok, exists)
			}
			if !ok {
				continue
			}
			got, err := ix.ReadList(e.Lists[0])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: own list of %d = %v, want %v", round, v, got, want)
			}
			gotP, err := ix.ReadList(e.Lists[1])
			if err != nil {
				t.Fatal(err)
			}
			wantP := naive.parent[v]
			if len(gotP) != len(wantP) {
				t.Fatalf("round %d: parent list of %d = %v, want %v", round, v, gotP, wantP)
			}
			for i := range gotP {
				if gotP[i] != wantP[i] {
					t.Fatalf("round %d: parent list of %d = %v, want %v", round, v, gotP, wantP)
				}
			}
		}

		// Random range probes, verified against a scan of the reference.
		for probe := 0; probe < 10; probe++ {
			lo := int64(rng.Intn(int(domain)+2)) - 1
			hi := lo + int64(rng.Intn(int(domain)))
			it, err := ix.Range(
				&Bound{V: value.NewInt(lo), Inclusive: true},
				&Bound{V: value.NewInt(hi), Inclusive: false})
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for {
				e, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got = append(got, e.Value.Int())
			}
			var want []int64
			for v := range naive.own {
				if v >= lo && v < hi {
					want = append(want, v)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: range [%d,%d) = %v, want %v", round, lo, hi, got, want)
			}
			// A walk over the same values sums the own lists.
			n := 0
			if err := ix.Walk(pred.Between(value.NewInt(lo), value.NewInt(hi-1)), func(e Entry) error {
				n += e.Lists[0].Count
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, v := range want {
				total += len(naive.own[v])
			}
			if n != total {
				t.Fatalf("round %d: walk over [%d,%d) counts %d, want %d", round, lo, hi, n, total)
			}
		}
	}
}
