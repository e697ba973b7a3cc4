package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// sliceKV feeds a projection stream from memory.
type sliceKV struct {
	kvs []KV
	i   int
}

func (s *sliceKV) Next() (KV, bool, error) {
	if s.i >= len(s.kvs) {
		return KV{}, false, nil
	}
	kv := s.kvs[s.i]
	s.i++
	return kv, true, nil
}

func (s *sliceKV) Close() {}

// sliceRowBatch feeds rows from memory, one batch at a time.
type sliceRowBatch struct {
	rows [][]uint32
	seqs []uint32
	i    int
}

func (s *sliceRowBatch) Next(b *RowBatch) (int, error) {
	if s.i >= len(s.rows) {
		b.Reset(b.Width())
		return 0, nil
	}
	b.Reset(len(s.rows[s.i]))
	for b.n < b.CapRows() && s.i < len(s.rows) {
		var seq uint32
		if s.seqs != nil {
			seq = s.seqs[s.i]
		}
		copy(b.slot(b.n, seq), s.rows[s.i])
		b.n++
		s.i++
	}
	return b.n, nil
}

func (s *sliceRowBatch) Close() {}

// collectBatchRows drains a batch row stream at the environment's row
// granularity.
func collectBatchRows(e *Env, it BatchRowIter, width int) (seqs []uint32, rows [][]uint32, err error) {
	defer it.Close()
	rb := e.NewRowBatch(width)
	defer PutRowBatch(rb)
	for {
		k, err := it.Next(rb)
		if err != nil || k == 0 {
			return seqs, rows, err
		}
		for i := 0; i < k; i++ {
			r := rb.Row(i)
			seqs = append(seqs, r.Seq)
			rows = append(rows, append([]uint32(nil), r.IDs...))
		}
	}
}

// collectRows drains a row file.
func collectRows(t *testing.T, e *Env, rf *RowFile) ([]uint32, [][]uint32) {
	t.Helper()
	it, err := rf.IterBatch()
	if err != nil {
		t.Fatal(err)
	}
	seqs, rows, err := collectBatchRows(e, it, rf.Fields())
	if err != nil {
		t.Fatal(err)
	}
	return seqs, rows
}

func TestMaterializeAndIterate(t *testing.T) {
	e := newEnv(t)
	in := &sliceRowBatch{rows: [][]uint32{{10, 1}, {20, 2}, {30, 1}}}
	rf, err := e.MaterializeRowsBatch(in, 2, true, op())
	if err != nil {
		t.Fatal(err)
	}
	if rf.Count() != 3 || rf.Fields() != 2 {
		t.Fatalf("count=%d fields=%d", rf.Count(), rf.Fields())
	}
	seqs, rows := collectRows(t, e, rf)
	if !reflect.DeepEqual(seqs, []uint32{0, 1, 2}) {
		t.Errorf("seqs = %v", seqs)
	}
	if !reflect.DeepEqual(rows, [][]uint32{{10, 1}, {20, 2}, {30, 1}}) {
		t.Errorf("rows = %v", rows)
	}
}

func TestMaterializePreservesSeq(t *testing.T) {
	e := newEnv(t)
	in := &sliceRowBatch{rows: [][]uint32{{10}, {20}}, seqs: []uint32{7, 3}}
	rf, err := e.MaterializeRowsBatch(in, 1, false, op())
	if err != nil {
		t.Fatal(err)
	}
	seqs, _ := collectRows(t, e, rf)
	if !reflect.DeepEqual(seqs, []uint32{7, 3}) {
		t.Errorf("seqs = %v", seqs)
	}
}

func TestMaterializeFieldMismatch(t *testing.T) {
	e := newEnv(t)
	in := &sliceRowBatch{rows: [][]uint32{{1, 2}}}
	if _, err := e.MaterializeRowsBatch(in, 3, true, op()); err == nil {
		t.Error("field mismatch accepted")
	}
}

func TestSortRowFileSmall(t *testing.T) {
	e := newEnv(t)
	in := &sliceRowBatch{rows: [][]uint32{{5, 100}, {1, 300}, {3, 200}}}
	rf, err := e.MaterializeRowsBatch(in, 2, true, op())
	if err != nil {
		t.Fatal(err)
	}
	byField0, err := e.SortRowFile(rf, 0, 4096, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	seqs, rows := collectRows(t, e, byField0)
	if !reflect.DeepEqual(rows, [][]uint32{{1, 300}, {3, 200}, {5, 100}}) {
		t.Errorf("sorted rows = %v", rows)
	}
	// Seq numbers travel with their rows.
	if !reflect.DeepEqual(seqs, []uint32{1, 2, 0}) {
		t.Errorf("seqs = %v", seqs)
	}
	// Sorting by the second field reverses it.
	byField1, err := e.SortRowFile(rf, 1, 4096, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	_, rows2 := collectRows(t, e, byField1)
	if !reflect.DeepEqual(rows2, [][]uint32{{5, 100}, {3, 200}, {1, 300}}) {
		t.Errorf("sorted by field 1 = %v", rows2)
	}
	if _, err := e.SortRowFile(rf, 2, 4096, 8, op()); err == nil {
		t.Error("bad field accepted")
	}
}

func TestSortRowFileExternalRuns(t *testing.T) {
	e := newEnv(t)
	n := 5000
	rows := make([][]uint32, n)
	for i := range rows {
		// Pseudo-random but deterministic keys.
		rows[i] = []uint32{uint32((i*2654435761 + 1) % 100000), uint32(i)}
	}
	rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, 2, true, op())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny buffer (64 records) and fanin 3 force multiple merge passes.
	o := op()
	sortedRF, err := e.SortRowFile(rf, 0, 64*8, 3, o)
	if err != nil {
		t.Fatal(err)
	}
	if sortedRF.Count() != n {
		t.Fatalf("lost rows: %d of %d", sortedRF.Count(), n)
	}
	_, got := collectRows(t, e, sortedRF)
	for i := 1; i < len(got); i++ {
		if got[i][0] < got[i-1][0] {
			t.Fatalf("row %d out of order: %d < %d", i, got[i][0], got[i-1][0])
		}
	}
	// All original second fields must survive.
	var seconds []int
	for _, r := range got {
		seconds = append(seconds, int(r[1]))
	}
	sort.Ints(seconds)
	for i, s := range seconds {
		if s != i {
			t.Fatalf("payload %d missing", i)
		}
	}
}

func TestSortEmptyFile(t *testing.T) {
	e := newEnv(t)
	rf, err := e.MaterializeRowsBatch(&sliceRowBatch{}, 2, true, op())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.SortRowFile(rf, 0, 4096, 4, op())
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
	seqs, _ := collectRows(t, e, s)
	if seqs != nil {
		t.Errorf("rows = %v", seqs)
	}
}

func TestMergeRowsWithStream(t *testing.T) {
	e := newEnv(t)
	rows := &sliceRowBatch{
		rows: [][]uint32{{1, 10}, {2, 10}, {3, 20}, {4, 30}, {5, 30}},
		seqs: []uint32{0, 1, 2, 3, 4},
	}
	// Rows sorted by field 1; stream covers 10 and 30 but not 20.
	stream := &sliceKV{kvs: []KV{
		{ID: 10, Val: value.NewString("ten")},
		{ID: 15, Val: value.NewString("fifteen")},
		{ID: 30, Val: value.NewString("thirty")},
	}}
	var matched []string
	var seqs []uint32
	o := op()
	err := e.MergeRowsWithStreamBatch(rows, 1, stream, o, func(r Row, v value.Value) error {
		matched = append(matched, v.Str())
		seqs = append(seqs, r.Seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(matched, []string{"ten", "ten", "thirty", "thirty"}) {
		t.Errorf("matched = %v", matched)
	}
	if !reflect.DeepEqual(seqs, []uint32{0, 1, 3, 4}) {
		t.Errorf("seqs = %v (row with id 20 must be dropped)", seqs)
	}
	if o.TuplesIn != 5 || o.TuplesOut != 4 {
		t.Errorf("op in=%d out=%d", o.TuplesIn, o.TuplesOut)
	}
}

func TestMergeRowsWithEmptyStream(t *testing.T) {
	e := newEnv(t)
	rows := &sliceRowBatch{rows: [][]uint32{{1}, {2}}}
	count := 0
	err := e.MergeRowsWithStreamBatch(rows, 0, &sliceKV{}, op(), func(Row, value.Value) error {
		count++
		return nil
	})
	if err != nil || count != 0 {
		t.Errorf("empty stream matched %d, err %v", count, err)
	}
}

func TestFilterRows(t *testing.T) {
	e := newEnv(t)
	even := CostedRowFilter{Eval: func(r Row) (bool, error) { return r.IDs[0]%2 == 0, nil }}
	big := CostedRowFilter{Eval: func(r Row) (bool, error) { return r.IDs[0] > 2, nil }}
	o := op()
	it, err := e.JoinFilterBatch(&sliceBatch{ids: []uint32{1, 2, 3, 4}}, JoinFilterSpec{
		Filters: []CostedRowFilter{even, big}, JoinOp: op(), FilterOp: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := collectBatchRows(e, it, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]uint32{{4}}) {
		t.Errorf("filtered = %v", rows)
	}
	if o.TuplesIn != 4 || o.TuplesOut != 1 {
		t.Errorf("op in=%d out=%d", o.TuplesIn, o.TuplesOut)
	}
}

func TestQuickSortRowFile(t *testing.T) {
	e := newEnv(t)
	f := func(keys []uint32, bufSeed, faninSeed uint8) bool {
		if len(keys) > 500 {
			keys = keys[:500]
		}
		rows := make([][]uint32, len(keys))
		for i, k := range keys {
			rows[i] = []uint32{k}
		}
		rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, 1, true, op())
		if err != nil {
			return false
		}
		buf := 64 + int(bufSeed)*8
		fanin := 2 + int(faninSeed%5)
		s, err := e.SortRowFile(rf, 0, buf, fanin, op())
		if err != nil {
			return false
		}
		it, err := s.IterBatch()
		if err != nil {
			return false
		}
		_, sortedRows, err := collectBatchRows(e, it, 1)
		if err != nil {
			return false
		}
		var got []uint32
		for _, r := range sortedRows {
			got = append(got, r[0])
		}
		want := append([]uint32(nil), keys...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if err := e.Dev.ResetScratch(); err != nil {
			return false
		}
		e.Dev.Flash.ResetStats()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	_ = stats.FormatBytes(0)
}

// BenchmarkSortRowFile sorts 50 000 three-field rows by a random member
// ID with the buffer and fan-in the projection passes use, on a fresh
// default device per iteration (set-up excluded).
func BenchmarkSortRowFile(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(16))
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = []uint32{uint32(i + 1), uint32(1 + rng.Intn(n/10)), uint32(1 + rng.Intn(n/5))}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dev, err := device.New(device.SmartUSB2007(), nil)
		if err != nil {
			b.Fatal(err)
		}
		e := NewEnv(dev)
		rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows}, 3, true, op())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		sorted, err := e.SortRowFile(rf, 1, int(dev.RAM.Available())/2, e.Fanin(0.25), op())
		if err != nil {
			b.Fatal(err)
		}
		if sorted.Count() != n {
			b.Fatalf("sorted %d of %d rows", sorted.Count(), n)
		}
	}
}
