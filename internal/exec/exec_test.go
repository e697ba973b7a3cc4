package exec

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

func newEnv(t *testing.T) *Env {
	t.Helper()
	dev, err := device.New(device.SmartUSB2007(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(dev)
}

func op() *stats.Op { return &stats.Op{Name: "test"} }

func sorted(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func dedup(ids []uint32) []uint32 {
	var out []uint32
	for _, id := range ids {
		if len(out) == 0 || out[len(out)-1] != id {
			out = append(out, id)
		}
	}
	return out
}

func TestEmptyIter(t *testing.T) {
	got, err := CollectBatch(EmptyBatch())
	if err != nil || got != nil {
		t.Errorf("EmptyBatch() = %v, %v", got, err)
	}
}

func TestSliceIter(t *testing.T) {
	e := newEnv(t)
	before := e.Dev.RAM.Used()
	it, err := SliceSource{IDs: []uint32{1, 2, 3}}.OpenBatch()
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil || !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Errorf("CollectBatch = %v, %v", got, err)
	}
	if e.Dev.RAM.Used() != before {
		t.Error("an in-RAM slice stream holds no grant: the caller accounts for the slice")
	}
	it.Close() // double close is safe
}

func TestMergeUnion(t *testing.T) {
	e := newEnv(t)
	cases := []struct {
		in   [][]uint32
		want []uint32
	}{
		{nil, nil},
		{[][]uint32{{1, 3, 5}}, []uint32{1, 3, 5}},
		{[][]uint32{{1, 3}, {2, 4}}, []uint32{1, 2, 3, 4}},
		{[][]uint32{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}}, []uint32{1, 2, 3, 4, 5}},
		{[][]uint32{{}, {7}, {}}, []uint32{7}},
		{[][]uint32{{5, 5, 5}, {5}}, []uint32{5}},
	}
	for _, c := range cases {
		var its []BatchIter
		for _, ids := range c.in {
			its = append(its, &sliceBatch{ids: ids})
		}
		u, err := e.mergeUnionBatch(its)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectBatch(u)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("union(%v) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

func TestMergeIntersect(t *testing.T) {
	e := newEnv(t)
	cases := []struct {
		in   [][]uint32
		want []uint32
	}{
		{[][]uint32{{1, 2, 3}}, []uint32{1, 2, 3}},
		{[][]uint32{{1, 2, 3}, {2, 3, 4}}, []uint32{2, 3}},
		{[][]uint32{{1, 2, 3, 9}, {2, 3, 9}, {3, 9, 11}}, []uint32{3, 9}},
		{[][]uint32{{1, 2}, {3, 4}}, nil},
		{[][]uint32{{1, 2}, {}}, nil},
	}
	for _, c := range cases {
		var its []BatchIter
		for _, ids := range c.in {
			its = append(its, &sliceBatch{ids: ids})
		}
		x, err := e.MergeIntersectBatch(its)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectBatch(x)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("intersect(%v) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if it, err := e.MergeIntersectBatch(nil); err != nil {
		t.Fatal(err)
	} else if got, _ := CollectBatch(it); got != nil {
		t.Errorf("empty intersect = %v", got)
	}
}

func TestSpillAndRunSource(t *testing.T) {
	e := newEnv(t)
	ids := []uint32{1, 5, 9, 1 << 30}
	run, err := e.SpillBatch(&sliceBatch{ids: ids}, op())
	if err != nil {
		t.Fatal(err)
	}
	if run.Count() != len(ids) {
		t.Errorf("Count = %d", run.Count())
	}
	// Runs are re-openable.
	for i := 0; i < 2; i++ {
		it, err := run.OpenBatch()
		if err != nil {
			t.Fatal(err)
		}
		got, err := CollectBatch(it)
		if err != nil || !reflect.DeepEqual(got, ids) {
			t.Errorf("run pass %d = %v, %v", i, got, err)
		}
	}
	if e.Dev.RAM.Used() != e.Dev.RAM.Budget()-e.Dev.RAM.Available() {
		t.Error("arena accounting inconsistent")
	}
}

func TestUnionMultiPassSpills(t *testing.T) {
	e := newEnv(t)
	// 40 sources with fanin 4 forces recursive spilling.
	var sources []IDSource
	var all []uint32
	for s := 0; s < 40; s++ {
		ids := make([]uint32, 25)
		for i := range ids {
			ids[i] = uint32(s + i*40 + 1)
		}
		sources = append(sources, SliceSource{IDs: sorted(ids)})
		all = append(all, ids...)
	}
	progsBefore := e.Dev.Flash.Stats().PagesProgrammed
	it, err := e.UnionBatch(sources, 4, op())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil {
		t.Fatal(err)
	}
	want := dedup(sorted(all))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("multi-pass union: %d ids, want %d", len(got), len(want))
	}
	if e.Dev.Flash.Stats().PagesProgrammed == progsBefore {
		t.Error("multi-pass union should have spilled to flash")
	}
	if e.Dev.RAM.Used() >= e.Dev.RAM.Budget() {
		t.Error("arena exhausted after union")
	}
}

func TestUnionSinglePassAvoidsFlash(t *testing.T) {
	e := newEnv(t)
	sources := []IDSource{
		SliceSource{IDs: []uint32{1, 4}},
		SliceSource{IDs: []uint32{2, 4, 6}},
	}
	progsBefore := e.Dev.Flash.Stats().PagesProgrammed
	it, err := e.UnionBatch(sources, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := CollectBatch(it)
	if !reflect.DeepEqual(got, []uint32{1, 2, 4, 6}) {
		t.Errorf("union = %v", got)
	}
	if e.Dev.Flash.Stats().PagesProgrammed != progsBefore {
		t.Error("small union must not touch flash")
	}
}

func TestQuickUnionMatchesReference(t *testing.T) {
	e := newEnv(t)
	f := func(lists [][]uint32, faninSeed uint8) bool {
		fanin := 2 + int(faninSeed%6)
		var sources []IDSource
		seen := map[uint32]bool{}
		for _, l := range lists {
			if len(l) > 200 {
				l = l[:200]
			}
			s := sorted(l)
			sources = append(sources, SliceSource{IDs: s})
			for _, id := range s {
				seen[id] = true
			}
		}
		var want []uint32
		for id := range seen {
			want = append(want, id)
		}
		want = sorted(want)
		it, err := e.UnionBatch(sources, fanin, op())
		if err != nil {
			return false
		}
		got, err := CollectBatch(it)
		if err != nil {
			return false
		}
		if len(want) == 0 {
			return len(got) == 0
		}
		if err := e.Dev.ResetScratch(); err != nil {
			return false
		}
		e.Dev.Main.Device() // keep linters quiet about unused receiver
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildBloomRespectsRAMCap(t *testing.T) {
	e := newEnv(t)
	ids := make([]uint32, 5000)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	o := op()
	// Ideal size for 1% fpr on 5000 keys is ~6KB; cap it to 1KB.
	f, free, err := e.BuildBloomBatch(&sliceBatch{ids: ids}, len(ids), 0.01, 1024, o)
	if err != nil {
		t.Fatal(err)
	}
	defer free()
	if f.FootprintBytes() > 1024 {
		t.Errorf("filter used %d bytes, cap 1024", f.FootprintBytes())
	}
	for _, id := range ids {
		if !f.Contains(hash32(id)) {
			t.Fatal("false negative")
		}
	}
	if f.EstimatedFPR() <= 0.01 {
		t.Error("capped filter should have a higher fpr than the target")
	}
	if o.TuplesIn != int64(len(ids)) {
		t.Errorf("op counted %d tuples", o.TuplesIn)
	}
}

func TestBuildBloomFreesOnFree(t *testing.T) {
	e := newEnv(t)
	before := e.Dev.RAM.Used()
	f, free, err := e.BuildBloomBatch(&sliceBatch{ids: []uint32{1, 2, 3}}, 3, 0.01, 0, op())
	if err != nil {
		t.Fatal(err)
	}
	if e.Dev.RAM.Used() <= before {
		t.Error("filter RAM not charged")
	}
	_ = f
	free()
	if e.Dev.RAM.Used() != before {
		t.Error("filter RAM not released")
	}
}

func TestHiddenPredFilter(t *testing.T) {
	e := newEnv(t)
	st, err := store.New(e.Dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.CreateTable("T", 4); err != nil {
		t.Fatal(err)
	}
	col, err := st.AddColumn("T", "q", columnOf(value.Int, []value.Value{
		value.NewInt(10), value.NewInt(20), value.NewInt(30), value.NewInt(40)}))
	if err != nil {
		t.Fatal(err)
	}
	filt := e.HiddenPredCosted(col, 0, pred.Compare(sql.OpGt, value.NewInt(15))).Eval
	keep, err := filt(Row{IDs: []uint32{1}})
	if err != nil || keep {
		t.Errorf("id 1 (q=10): keep=%v err=%v", keep, err)
	}
	keep, err = filt(Row{IDs: []uint32{3}})
	if err != nil || !keep {
		t.Errorf("id 3 (q=30): keep=%v err=%v", keep, err)
	}
}

func hash32(x uint32) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// columnOf packs vals, each of kind k, into a column.
func columnOf(k value.Kind, vals []value.Value) value.Column {
	c := value.MakeColumn(k, len(vals))
	for _, v := range vals {
		c.Append(v)
	}
	return c
}
