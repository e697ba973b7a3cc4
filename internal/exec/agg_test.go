package exec

import (
	"testing"

	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

func intRow(vals ...int64) []value.Value {
	row := make([]value.Value, len(vals))
	for i, v := range vals {
		row[i] = value.NewInt(v)
	}
	return row
}

func TestGrouperBasic(t *testing.T) {
	g := GetGrouper([]int{0}, []AggOp{
		{Func: sql.AggCount, Col: -1},
		{Func: sql.AggSum, Col: 1, ArgKind: value.Int},
		{Func: sql.AggMin, Col: 1, ArgKind: value.Int},
		{Func: sql.AggMax, Col: 1, ArgKind: value.Int},
		{Func: sql.AggAvg, Col: 1, ArgKind: value.Int},
	})
	defer PutGrouper(g)
	for _, r := range [][]int64{{1, 10}, {2, 5}, {1, 30}, {1, 20}, {2, 5}} {
		if err := g.Add(intRow(r...)); err != nil {
			t.Fatal(err)
		}
	}
	if g.Groups() != 2 {
		t.Fatalf("groups = %d, want 2", g.Groups())
	}
	// Groups in first-seen order: key 1 then key 2.
	if g.Key(0, 0).Int() != 1 || g.Key(1, 0).Int() != 2 {
		t.Fatalf("keys out of order: %v %v", g.Key(0, 0), g.Key(1, 0))
	}
	if n := g.AggValue(0, 0).Int(); n != 3 {
		t.Fatalf("COUNT(group 1) = %d, want 3", n)
	}
	if s := g.AggValue(0, 1).Int(); s != 60 {
		t.Fatalf("SUM(group 1) = %d, want 60", s)
	}
	if mn := g.AggValue(0, 2).Int(); mn != 10 {
		t.Fatalf("MIN(group 1) = %d, want 10", mn)
	}
	if mx := g.AggValue(0, 3).Int(); mx != 30 {
		t.Fatalf("MAX(group 1) = %d, want 30", mx)
	}
	if av := g.AggValue(0, 4).Float(); av != 20 {
		t.Fatalf("AVG(group 1) = %v, want 20", av)
	}
	if s := g.AggValue(1, 1).Int(); s != 10 {
		t.Fatalf("SUM(group 2) = %d, want 10", s)
	}
}

func TestGrouperEmptyGlobalGroup(t *testing.T) {
	g := GetGrouper(nil, []AggOp{
		{Func: sql.AggCount, Col: -1},
		{Func: sql.AggSum, Col: 0, ArgKind: value.Int},
		{Func: sql.AggMin, Col: 0, ArgKind: value.Int},
	})
	defer PutGrouper(g)
	g.AddEmptyGroup()
	if g.Groups() != 1 {
		t.Fatalf("groups = %d, want 1", g.Groups())
	}
	if n := g.AggValue(0, 0).Int(); n != 0 {
		t.Fatalf("COUNT() = %d, want 0", n)
	}
	if v := g.AggValue(0, 1); v.IsValid() {
		t.Fatalf("SUM over empty group = %v, want NULL", v)
	}
	if v := g.AggValue(0, 2); v.IsValid() {
		t.Fatalf("MIN over empty group = %v, want NULL", v)
	}
}

func TestDistinctBasic(t *testing.T) {
	d := GetDistinct(2)
	defer PutDistinct(d)
	if d.Seen(intRow(1, 2)) {
		t.Fatal("first row reported seen")
	}
	if !d.Seen(intRow(1, 2)) {
		t.Fatal("duplicate not detected")
	}
	if d.Seen(intRow(1, 3)) {
		t.Fatal("distinct row reported seen")
	}
	// Width-limited: a third column must not participate.
	if !d.Seen([]value.Value{value.NewInt(1), value.NewInt(3), value.NewInt(99)}) {
		t.Fatal("extra column changed the dedup key")
	}
}

func TestSorterFullSortAndTies(t *testing.T) {
	s := GetSorter([]SortKey{{Col: 0, Desc: true}}, 0)
	defer PutSorter(s)
	rows := [][]value.Value{intRow(1, 100), intRow(3, 200), intRow(1, 300), intRow(2, 400)}
	for _, r := range rows {
		s.Push(r)
	}
	got := s.Finish()
	// Descending by col 0; the two key-1 rows keep arrival order.
	want := []int64{200, 400, 100, 300}
	for i, w := range want {
		if got[i][1].Int() != w {
			t.Fatalf("row %d = %v, want second col %d", i, got[i], w)
		}
	}
}

func TestSorterTopK(t *testing.T) {
	full := GetSorter([]SortKey{{Col: 0, Desc: false}}, 0)
	topk := GetSorter([]SortKey{{Col: 0, Desc: false}}, 3)
	defer PutSorter(full)
	defer PutSorter(topk)
	// Adversarial order with duplicate keys.
	for _, v := range []int64{5, 1, 9, 1, 7, 3, 3, 8, 2} {
		row := intRow(v, v*10)
		full.Push(row)
		topk.Push(row)
	}
	want := full.Finish()[:3]
	got := topk.Finish()
	if len(got) != 3 {
		t.Fatalf("top-K kept %d rows, want 3", len(got))
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("top-K row %d = %v, want %v (stable prefix of full sort)", i, got[i], want[i])
		}
	}
}

func TestOrderCmpNullsFirst(t *testing.T) {
	null := value.Value{}
	if OrderCmp(null, value.NewInt(1)) != -1 {
		t.Fatal("NULL must sort before values")
	}
	if OrderCmp(value.NewInt(1), null) != 1 {
		t.Fatal("values must sort after NULL")
	}
	if OrderCmp(null, null) != 0 {
		t.Fatal("NULL == NULL")
	}
	if OrderCmp(value.NewInt(1), value.NewFloat(1.5)) != -1 {
		t.Fatal("numeric widening must apply")
	}
}

// addAll folds a batch of rows.
func addAll(g *Grouper, rows [][]value.Value) error {
	for _, r := range rows {
		if err := g.Add(r); err != nil {
			return err
		}
	}
	return nil
}

// TestGrouperAllocsSteadyState asserts that folding batches of rows
// into a warm group table performs no allocation per batch.
func TestGrouperAllocsSteadyState(t *testing.T) {
	g := GetGrouper([]int{0}, []AggOp{
		{Func: sql.AggCount, Col: -1},
		{Func: sql.AggSum, Col: 1, ArgKind: value.Int},
		{Func: sql.AggMin, Col: 1, ArgKind: value.Int},
	})
	defer PutGrouper(g)
	batch := make([][]value.Value, 256)
	for i := range batch {
		batch[i] = intRow(int64(i%16), int64(i))
	}
	if err := addAll(g, batch); err != nil { // warm the 16 groups
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := addAll(g, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("group-by allocates %.1f per batch of %d rows", allocs, len(batch))
	}
}

// TestDistinctAllocsSteadyState asserts duplicate probing against a
// warm dedup table performs no allocation per batch.
func TestDistinctAllocsSteadyState(t *testing.T) {
	d := GetDistinct(2)
	defer PutDistinct(d)
	batch := make([][]value.Value, 256)
	for i := range batch {
		batch[i] = intRow(int64(i%32), int64(i%8))
	}
	for _, r := range batch { // warm the table
		d.Seen(r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range batch {
			if !d.Seen(r) {
				t.Fatal("warm row reported new")
			}
		}
	})
	if allocs > 1 {
		t.Fatalf("distinct allocates %.1f per batch of %d rows", allocs, len(batch))
	}
}

// TestSorterTopKAllocsSteadyState asserts pushing batches through a
// full top-K heap performs no allocation per batch.
func TestSorterTopKAllocsSteadyState(t *testing.T) {
	s := GetSorter([]SortKey{{Col: 0, Desc: true}}, 16)
	defer PutSorter(s)
	batch := make([][]value.Value, 256)
	for i := range batch {
		batch[i] = intRow(int64((i*37)%101), int64(i))
	}
	for _, r := range batch { // fill the heap
		s.Push(r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range batch {
			s.Push(r)
		}
	})
	if allocs > 1 {
		t.Fatalf("top-K allocates %.1f per batch of %d rows", allocs, len(batch))
	}
}

// TestGrouperStringKeysAllocs covers the string-key hash path, which
// must not allocate per probe either.
func TestGrouperStringKeysAllocs(t *testing.T) {
	g := GetGrouper([]int{0}, []AggOp{{Func: sql.AggCount, Col: -1}})
	defer PutGrouper(g)
	names := []string{"alpha", "beta", "gamma", "delta"}
	batch := make([][]value.Value, 128)
	for i := range batch {
		batch[i] = []value.Value{value.NewString(names[i%len(names)])}
	}
	if err := addAll(g, batch); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := addAll(g, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("string group-by allocates %.1f per batch", allocs)
	}
}
