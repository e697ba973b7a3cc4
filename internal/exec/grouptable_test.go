package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// collideAll makes every key hash the same until the test ends, so that
// every probe walks past every occupied slot and only key comparison
// tells groups apart.
func collideAll(t *testing.T) {
	t.Helper()
	keyHashMask = 0
	t.Cleanup(func() { keyHashMask = ^uint32(0) })
}

// canonKey encodes a key tuple the way SQL compares it, independently of
// value.Value's own representation: −0 is 0, every NaN is one NaN, NULL
// is its own value.
func canonKey(row []value.Value, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		v := row[c]
		switch v.Kind() {
		case value.Invalid:
			b.WriteString("null|")
		case value.String:
			fmt.Fprintf(&b, "s%d:%s|", len(v.Str()), v.Str())
		case value.Float:
			switch f := v.Float(); {
			case f != f:
				b.WriteString("fNaN|")
			case f == 0:
				b.WriteString("f0|")
			default:
				fmt.Fprintf(&b, "f%x|", math.Float64bits(f))
			}
		default:
			fmt.Fprintf(&b, "%d:%d|", v.Kind(), v.Word())
		}
	}
	return b.String()
}

// randKey draws one key cell from a domain of about domain values per
// kind: ints, dates, booleans, strings (the empty one too), floats with
// −0, +0 and NaN, and NULL.
func randKey(rng *rand.Rand, domain int) value.Value {
	d := rng.Intn(domain)
	switch rng.Intn(6) {
	case 0:
		return value.NewInt(int64(d) - int64(domain)/2)
	case 1:
		return value.NewDateDays(int64(18000 + d))
	case 2:
		return value.NewBool(d%2 == 0)
	case 3:
		if d%7 == 0 {
			return value.NewString("")
		}
		return value.NewString(strings.Repeat("ab", d%9) + string(rune('a'+d%26)))
	case 4:
		return []value.Value{
			value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)), value.NewFloat(math.NaN()),
			value.NewFloat(-math.NaN()), value.NewFloat(1.5), value.NewFloat(-1.5), value.NewFloat(math.Inf(1)),
		}[d%7]
	}
	return value.Value{}
}

// refGroups is the reference group-by: a map from canonKey to the group's
// index, groups in first-seen order.
type refGroups struct {
	idx   map[string]int
	keys  [][]value.Value
	count []int64
	sum   []int64
	min   []int64
	max   []int64
	first []int64
}

func (r *refGroups) add(key []value.Value, arg, seq int64) {
	k := canonKey(key, identity(len(key)))
	gi, ok := r.idx[k]
	if !ok {
		gi = len(r.keys)
		r.idx[k] = gi
		r.keys = append(r.keys, key)
		r.count = append(r.count, 0)
		r.sum = append(r.sum, 0)
		r.min = append(r.min, arg)
		r.max = append(r.max, arg)
		r.first = append(r.first, seq)
	}
	r.count[gi]++
	r.sum[gi] += arg
	r.min[gi] = min(r.min[gi], arg)
	r.max[gi] = max(r.max[gi], arg)
	r.first[gi] = min(r.first[gi], seq)
}

func identity(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// groupAggs is COUNT(*), SUM, MIN and MAX over the integer column arg.
func groupAggs(arg int) []AggOp {
	return []AggOp{
		{Func: sql.AggCount, Col: -1},
		{Func: sql.AggSum, Col: arg, ArgKind: value.Int},
		{Func: sql.AggMin, Col: arg, ArgKind: value.Int},
		{Func: sql.AggMax, Col: arg, ArgKind: value.Int},
	}
}

// checkGroups holds g's groups — order, keys, FirstSeen, aggregates — to
// the reference.
func checkGroups(t *testing.T, g *Grouper, ref *refGroups) {
	t.Helper()
	if g.Groups() != len(ref.keys) {
		t.Fatalf("%d groups, reference has %d", g.Groups(), len(ref.keys))
	}
	for gi, key := range ref.keys {
		for k, want := range key {
			if got := g.Key(gi, k); canonKey([]value.Value{got}, []int{0}) != canonKey([]value.Value{want}, []int{0}) {
				t.Fatalf("group %d key %d = %v, reference %v", gi, k, got, want)
			}
		}
		if got := g.FirstSeen(gi); got != ref.first[gi] {
			t.Fatalf("group %d first seen at %d, reference %d", gi, got, ref.first[gi])
		}
		want := []int64{ref.count[gi], ref.sum[gi], ref.min[gi], ref.max[gi]}
		for a, w := range want {
			if got := g.AggValue(gi, a).Int(); got != w {
				t.Fatalf("group %d aggregate %d = %d, reference %d", gi, a, got, w)
			}
		}
	}
}

// runGroupTable feeds n random rows of width key cells plus one integer
// argument to a Grouper (AddAt), to two shard groupers merged by Absorb,
// and to a Distinct over the key cells, each against its reference.
func runGroupTable(t *testing.T, rng *rand.Rand, width, n, domain int) {
	t.Helper()
	keyCols := identity(width)
	g := GetGrouper(keyCols, groupAggs(width))
	defer PutGrouper(g)
	shards := [2]*Grouper{GetGrouper(keyCols, groupAggs(width)), GetGrouper(keyCols, groupAggs(width))}
	defer PutGrouper(shards[0])
	defer PutGrouper(shards[1])
	d := GetDistinct(width)
	defer PutDistinct(d)
	ref := &refGroups{idx: map[string]int{}}
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		row := make([]value.Value, width+1)
		for c := 0; c < width; c++ {
			row[c] = randKey(rng, domain)
		}
		arg := rng.Int63n(1000) - 500
		row[width] = value.NewInt(arg)
		seq := int64(i)
		if err := g.AddAt(row, seq); err != nil {
			t.Fatal(err)
		}
		if err := shards[rng.Intn(2)].AddAt(row, seq); err != nil {
			t.Fatal(err)
		}
		ref.add(row[:width], arg, seq)
		k := canonKey(row, keyCols)
		if got := d.Seen(row); got != seen[k] {
			t.Fatalf("row %d: Seen = %v, reference %v (key %v)", i, got, seen[k], row[:width])
		}
		seen[k] = true
	}
	checkGroups(t, g, ref)

	// Absorbing the shards' partials builds the same groups, created in
	// absorption order; FirstSeen then restores the single grouper's.
	merged := GetGrouper(keyCols, groupAggs(width))
	defer PutGrouper(merged)
	for _, sg := range shards {
		for gi := 0; gi < sg.Groups(); gi++ {
			keys, accs, first := sg.Partial(gi)
			if err := merged.Absorb(keys, accs, first); err != nil {
				t.Fatal(err)
			}
		}
	}
	if merged.Groups() != len(ref.keys) {
		t.Fatalf("absorbed %d groups, reference has %d", merged.Groups(), len(ref.keys))
	}
	for gi := 0; gi < merged.Groups(); gi++ {
		want := ref.idx[canonKey(merged.keys[gi*width:(gi+1)*width], keyCols)]
		if merged.FirstSeen(gi) != ref.first[want] {
			t.Fatalf("absorbed group %d first seen at %d, reference %d", gi, merged.FirstSeen(gi), ref.first[want])
		}
		for a, w := range []int64{ref.count[want], ref.sum[want], ref.min[want], ref.max[want]} {
			if got := merged.AggValue(gi, a).Int(); got != w {
				t.Fatalf("absorbed group %d aggregate %d = %d, reference %d", gi, a, got, w)
			}
		}
	}
}

// FuzzGroupTable holds Grouper and Distinct to a map keyed by a canonical
// encoding of the key tuple, with real hashes or with every hash equal.
func FuzzGroupTable(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(200), uint8(8), false)
	f.Add(int64(2), uint8(3), uint16(500), uint8(40), false)
	f.Add(int64(3), uint8(0), uint16(50), uint8(1), false)
	f.Add(int64(4), uint8(2), uint16(300), uint8(200), true)
	f.Fuzz(func(t *testing.T, seed int64, width uint8, n uint16, domain uint8, collide bool) {
		if collide {
			collideAll(t)
		}
		rng := rand.New(rand.NewSource(seed))
		runGroupTable(t, rng, int(width)%4, int(n)%2000, 1+int(domain))
	})
}

// TestGroupTableCollisions runs every probe into every other key: past
// several resizes, through a pooled grouper reused after a large query,
// keyless with AddEmptyGroup, and merging shard partials by Absorb.
func TestGroupTableCollisions(t *testing.T) {
	collideAll(t)
	rng := rand.New(rand.NewSource(11))
	// 600 distinct single-column keys grow the table 16 → 2048 slots.
	runGroupTable(t, rng, 1, 3000, 250)
	runGroupTable(t, rng, 2, 1500, 30)

	big := GetGrouper([]int{0}, groupAggs(1))
	for i := 0; i < 5000; i++ {
		if err := big.Add(intRow(int64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	PutGrouper(big)
	small := GetGrouper([]int{0}, groupAggs(1))
	defer PutGrouper(small)
	for _, k := range []int64{3, 1, 3, 2, 1, 3} {
		if err := small.Add(intRow(k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if small.Groups() != 3 || small.Key(0, 0).Int() != 3 || small.Key(1, 0).Int() != 1 || small.Key(2, 0).Int() != 2 {
		t.Fatalf("reused grouper: %d groups, keys %v %v %v", small.Groups(), small.Key(0, 0), small.Key(1, 0), small.Key(2, 0))
	}
	if c := small.AggValue(0, 0).Int(); c != 3 {
		t.Fatalf("reused grouper: COUNT(3) = %d, want 3", c)
	}

	// Keyless: every row folds into group 0, an empty result gets one
	// empty group, and keyless partials absorb into one group.
	keyless := GetGrouper(nil, groupAggs(0))
	defer PutGrouper(keyless)
	for i := int64(1); i <= 4; i++ {
		if err := keyless.AddAt(intRow(i), 10-i); err != nil {
			t.Fatal(err)
		}
	}
	if keyless.Groups() != 1 || keyless.AggValue(0, 0).Int() != 4 || keyless.AggValue(0, 1).Int() != 10 || keyless.FirstSeen(0) != 9 {
		t.Fatalf("keyless: %d groups, COUNT %v, SUM %v, first %d", keyless.Groups(), keyless.AggValue(0, 0), keyless.AggValue(0, 1), keyless.FirstSeen(0))
	}
	empty := GetGrouper(nil, groupAggs(0))
	defer PutGrouper(empty)
	empty.AddEmptyGroup()
	if empty.Groups() != 1 || empty.AggValue(0, 0).Int() != 0 || empty.AggValue(0, 1).IsValid() {
		t.Fatalf("empty global group: %d groups, COUNT %v, SUM %v", empty.Groups(), empty.AggValue(0, 0), empty.AggValue(0, 1))
	}
	merged := GetGrouper(nil, groupAggs(0))
	defer PutGrouper(merged)
	for _, seq := range []int64{7, 3} {
		keys, accs, _ := keyless.Partial(0)
		if err := merged.Absorb(keys, accs, seq); err != nil {
			t.Fatal(err)
		}
	}
	if merged.Groups() != 1 || merged.AggValue(0, 0).Int() != 8 || merged.FirstSeen(0) != 3 {
		t.Fatalf("absorbed keyless partials: %d groups, COUNT %v, first %d", merged.Groups(), merged.AggValue(0, 0), merged.FirstSeen(0))
	}
}
