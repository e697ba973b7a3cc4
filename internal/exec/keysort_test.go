package exec

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// keysort_golden.txt was written from the slices.SortFunc kernel formRuns
// ran before keySorter replaced it — comparator cmp.Compare(a.key, b.key),
// one count per call — and is never regenerated: it pins the comparison
// count (the simulated clock) and the tie order independently of the
// toolchain. The helpers below are the ones that wrote it.

// keySortShapes are the differential's key shapes plus sawtooth and
// organ-pipe, two patterns pdqsort's pivot choice reacts to.
var keySortShapes = func() map[string]func(rng *rand.Rand, i, n int) uint32 {
	shapes := map[string]func(rng *rand.Rand, i, n int) uint32{
		"sawtooth":   func(_ *rand.Rand, i, _ int) uint32 { return uint32(i % 17) },
		"organ-pipe": func(_ *rand.Rand, i, n int) uint32 { return uint32(min(i, n-1-i)) },
	}
	for name, keyOf := range sortKeyShapes {
		shapes[name] = keyOf
	}
	return shapes
}()

// keySortCase is one record of testdata/keysort_golden.txt.
type keySortCase struct {
	shape string
	n     int
	seed  int64
}

// keySortCases lists the golden's cases in file order: every shape, by
// name, × sizes around the insertion cutoff (12), the ninther threshold
// (50), the executor's run size on the default device (1 564) and beyond
// × seeds 1–3.
func keySortCases() []keySortCase {
	var cases []keySortCase
	for _, shape := range slices.Sorted(maps.Keys(keySortShapes)) {
		for _, n := range []int{0, 1, 2, 12, 13, 63, 64, 65, 500, 1564, 5000} {
			for seed := int64(1); seed <= 3; seed++ {
				cases = append(cases, keySortCase{shape, n, seed})
			}
		}
	}
	return cases
}

// input builds the case's keys, positions in input order.
func (c keySortCase) input() []sortKey {
	rng := rand.New(rand.NewSource(c.seed))
	keyOf := keySortShapes[c.shape]
	keys := make([]sortKey, c.n)
	for i := range keys {
		keys[i] = sortKey{key: keyOf(rng, i, c.n), pos: uint32(i)}
	}
	return keys
}

// record renders the sorted keys as a golden line: the comparison count
// and a digest of the output permutation, which pins the tie order.
func (c keySortCase) record(sorted []sortKey, compares int64) string {
	h := fnv.New64a()
	var word [4]byte
	for _, k := range sorted {
		binary.LittleEndian.PutUint32(word[:], k.pos)
		h.Write(word[:])
	}
	return fmt.Sprintf("%s n=%d seed=%d compares=%d perm=%016x", c.shape, c.n, c.seed, compares, h.Sum64())
}

// TestKeySortGolden replays every golden case through keySorter.
func TestKeySortGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/keysort_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	cases := keySortCases()
	if len(want) != len(cases) {
		t.Fatalf("the golden has %d records, the cases are %d", len(want), len(cases))
	}
	for i, c := range cases {
		keys := c.input()
		var s keySorter
		s.sort(keys)
		if got := c.record(keys, s.compares); got != want[i] {
			t.Errorf("record %d:\n got %s\nwant %s", i+1, got, want[i])
		}
	}
}

// FuzzKeySort holds keySorter to slices.SortFunc on arbitrary keys: the
// same output permutation (ties included) and the same comparison count.
// Each input byte is one key, so short inputs are dense in ties.
func FuzzKeySort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("pattern-defeating quicksort"))
	f.Add(slices.Repeat([]byte{3, 1, 2}, 40))
	f.Fuzz(func(t *testing.T, in []byte) {
		keys := make([]sortKey, len(in))
		for i, b := range in {
			keys[i] = sortKey{key: uint32(b), pos: uint32(i)}
		}
		want := slices.Clone(keys)
		var wantCompares int64
		slices.SortFunc(want, func(a, b sortKey) int {
			wantCompares++
			return cmp.Compare(a.key, b.key)
		})
		var s keySorter
		s.sort(keys)
		if !slices.Equal(keys, want) || s.compares != wantCompares {
			t.Fatalf("keySorter: %d compares, order %v\nslices.SortFunc: %d compares, order %v", s.compares, keys, wantCompares, want)
		}
	})
}
