package exec

import (
	"reflect"
	"testing"

	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/skt"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// seqIDs returns [from, from+n) as a sorted ID slice.
func seqIDs(from uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = from + uint32(i)
	}
	return out
}

// TestMergeUnionBatchMatchesRow checks the batch union against the
// sorted, deduplicated reference on overlapping inputs.
func TestMergeUnionBatchMatchesRow(t *testing.T) {
	e := newEnv(t)
	mk := func() []BatchIter {
		return []BatchIter{
			&sliceBatch{ids: []uint32{1, 3, 5, 7, 9, 11}},
			&sliceBatch{ids: []uint32{2, 3, 6, 7, 10, 11}},
			&sliceBatch{ids: []uint32{1, 2, 3, 20}},
		}
	}
	u, err := e.mergeUnionBatch(mk())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(u)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 2, 3, 5, 6, 7, 9, 10, 11, 20}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
}

// TestMergeIntersectBatchMatchesRow checks the batch intersection against
// the reference.
func TestMergeIntersectBatchMatchesRow(t *testing.T) {
	e := newEnv(t)
	x, err := e.MergeIntersectBatch([]BatchIter{
		&sliceBatch{ids: []uint32{1, 2, 3, 5, 8, 13}},
		&sliceBatch{ids: []uint32{2, 3, 4, 8, 21}},
		&sliceBatch{ids: []uint32{1, 2, 3, 8, 13, 21}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{2, 3, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
}

// allocsPerBatch constructs a batch stream via mk and measures the
// average allocations of one Next(dst) call in steady state.
func allocsPerBatch(t *testing.T, mk func() BatchIter) float64 {
	t.Helper()
	it := mk()
	defer it.Close()
	dst := make([]uint32, DefaultBatchSize)
	return testing.AllocsPerRun(100, func() {
		if _, err := it.Next(dst); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMergeUnionBatchAllocs asserts the k-way batch union allocates O(1)
// per batch — not per row — in steady state.
func TestMergeUnionBatchAllocs(t *testing.T) {
	e := newEnv(t)
	if n := allocsPerBatch(t, func() BatchIter {
		u, err := e.mergeUnionBatch([]BatchIter{
			&sliceBatch{ids: seqIDs(1, 300_000)},
			&sliceBatch{ids: seqIDs(150_000, 300_000)},
			&sliceBatch{ids: seqIDs(300_000, 300_000)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}); n > 1 {
		t.Fatalf("union allocates %.1f per batch of %d IDs", n, DefaultBatchSize)
	}
}

// TestMergeIntersectBatchAllocs asserts the batch intersection allocates
// O(1) per batch.
func TestMergeIntersectBatchAllocs(t *testing.T) {
	e := newEnv(t)
	if n := allocsPerBatch(t, func() BatchIter {
		x, err := e.MergeIntersectBatch([]BatchIter{
			&sliceBatch{ids: seqIDs(1, 400_000)},
			&sliceBatch{ids: seqIDs(1, 400_000)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}); n > 1 {
		t.Fatalf("intersect allocates %.1f per batch of %d IDs", n, DefaultBatchSize)
	}
}

// sktFixture builds a two-table tree (Root 1..n, Child via identity FK)
// and its SKT, for join alloc tests.
func sktFixture(t *testing.T, e *Env, n int) *skt.SKT {
	t.Helper()
	st, err := store.New(e.Dev)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.New()
	child, err := schema.NewTable("Child", []schema.Column{
		{Name: "CID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(child); err != nil {
		t.Fatal(err)
	}
	root, err := schema.NewTable("Root", []schema.Column{
		{Name: "RID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true},
		{Name: "CID", Type: schema.Type{Kind: value.Int}, RefTable: "Child"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(root); err != nil {
		t.Fatal(err)
	}
	if err := sch.Freeze(); err != nil {
		t.Fatal(err)
	}
	fk := seqIDs(1, n)
	s, err := skt.Build(st, sch, "Root", n, func(table, col string) ([]uint32, error) {
		return fk, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestJoinFilterBatchAllocs asserts the fused SKT join stage allocates
// O(1) per row batch.
func TestJoinFilterBatchAllocs(t *testing.T) {
	e := newEnv(t)
	const n = 200_000
	s := sktFixture(t, e, n)
	jf, err := e.JoinFilterBatch(&sliceBatch{ids: seqIDs(1, n)}, JoinFilterSpec{
		SKT:    s,
		Tables: []string{"Child"},
		JoinOp: op(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	rb := GetRowBatch(2)
	defer PutRowBatch(rb)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := jf.Next(rb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("SKT join allocates %.1f per batch of %d rows", allocs, DefaultRowBatchRows)
	}
}

// TestMergeRowsWithStreamBatchAllocs asserts projection streaming
// allocates O(1) per batch (bounded far below one alloc per row).
func TestMergeRowsWithStreamBatchAllocs(t *testing.T) {
	e := newEnv(t)
	const n = 20_000
	rows := make([][]uint32, n)
	seqs := make([]uint32, n)
	kvs := make([]KV, n)
	for i := 0; i < n; i++ {
		rows[i] = []uint32{uint32(i + 1)}
		seqs[i] = uint32(i)
		kvs[i] = KV{ID: uint32(i + 1), Val: value.NewInt(int64(i))}
	}
	rf, err := e.MaterializeRowsBatch(&sliceRowBatch{rows: rows, seqs: seqs}, 1, false, op())
	if err != nil {
		t.Fatal(err)
	}
	nBatches := (n + DefaultRowBatchRows - 1) / DefaultRowBatchRows
	allocs := testing.AllocsPerRun(5, func() {
		it, err := rf.IterBatch()
		if err != nil {
			t.Fatal(err)
		}
		err = e.MergeRowsWithStreamBatch(it, 0, &sliceKV{kvs: kvs}, op(),
			func(Row, value.Value) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
	// One full merge pass over n rows must stay within a small constant
	// per batch (setup included), nowhere near one allocation per row.
	if allocs > float64(2*nBatches) {
		t.Fatalf("projection streaming allocates %.0f per %d-row merge (%d batches)", allocs, n, nBatches)
	}
}
