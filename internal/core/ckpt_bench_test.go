package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/storage"
)

// keyedRound applies n keyed statements against Prescription in the mix
// of the write_ckpt workload — every other one an INSERT, the rest
// UPDATEs and DELETEs of distinct live base rows — so the CHECKPOINT
// that follows absorbs exactly n delta entries.
func keyedRound(tb testing.TB, db *DB, rng *rand.Rand, n int) {
	tb.Helper()
	base := db.RowCount("Prescription")
	visits, meds := db.RowCount("Visit"), db.RowCount("Medicine")
	used := map[int]bool{}
	key := func() int {
		for {
			if k := 1 + rng.Intn(base); !used[k] {
				used[k] = true
				return k
			}
		}
	}
	next := base + 1
	for i := 0; i < n; i++ {
		var stmt string
		switch {
		case i%2 == 0:
			stmt = fmt.Sprintf("INSERT INTO Prescription VALUES (%d, %d, %d, DATE '2007-%02d-%02d', %d, %d)",
				next, 1+rng.Intn(100), 1+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28), 1+rng.Intn(meds), 1+rng.Intn(visits))
			next++
		case i%4 == 1:
			stmt = fmt.Sprintf("UPDATE Prescription SET Quantity = %d WHERE PreID = %d", 1+rng.Intn(100), key())
		default:
			stmt = fmt.Sprintf("DELETE FROM Prescription WHERE PreID = %d", key())
		}
		if got, err := db.Exec(stmt); err != nil || got != 1 {
			tb.Fatalf("%s: n=%d err=%v", stmt, got, err)
		}
	}
}

func loadScale(tb testing.TB, prescriptions int, opts ...Option) *DB {
	tb.Helper()
	db, err := Open(opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.LoadDataset(datagen.Generate(datagen.WithScale(prescriptions))); err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkCheckpoint times one CHECKPOINT of a 20 000-prescription
// database absorbing a 90-statement keyed delta (the write_ckpt round);
// the statements themselves run with the timer stopped.
func BenchmarkCheckpoint(b *testing.B) {
	for _, backend := range []string{"sim", "file", "file+fsync"} { // the last is what write_ckpt runs
		b.Run(backend, func(b *testing.B) {
			var opts []Option
			if backend != "sim" {
				opts = append(opts, WithBackend(storage.File(filepath.Join(b.TempDir(), "dev"), backend == "file+fsync")))
			}
			db := loadScale(b, 20_000, opts...)
			defer db.Close()
			rng := rand.New(rand.NewSource(42))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				keyedRound(b, db, rng, 90)
				b.StartTimer()
				if n, err := db.Checkpoint(); err != nil || n != 90 {
					b.Fatalf("checkpoint: n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkBulkLoad times the secure-setting load of 50 000 prescriptions:
// LoadDataset plus EnsureBuilt, which is the rebuild path a CHECKPOINT, a
// reopen and Recover run again.
func BenchmarkBulkLoad(b *testing.B) {
	ds := datagen.Generate(datagen.WithScale(50_000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open()
		if err != nil {
			b.Fatal(err)
		}
		if err := db.LoadDataset(ds); err != nil {
			b.Fatal(err)
		}
		if err := db.EnsureBuilt(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}

// allocsDuring counts the heap allocations fn performs and their bytes.
func allocsDuring(fn func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestDeltaPathAllocationFloor guards the two host-cost rules of the
// view-based delta overlay: a CHECKPOINT extracts cells and rebuilds
// without allocating per cell or per row (fewer than one allocation per
// sixteen extracted cells, inverted edges, index rebuild and commit
// included), and a keyed statement
// allocates nothing sized by the table — no per-statement liveness memo
// over 20 000 rows.
func TestDeltaPathAllocationFloor(t *testing.T) {
	db := loadScale(t, 5_000)
	defer db.Close()
	cells := 0
	for _, tb := range db.Schema().Tables() {
		cells += db.RowCount(tb.Name) * len(tb.Columns)
	}
	keyedRound(t, db, rand.New(rand.NewSource(7)), 90)
	ckpt, _ := allocsDuring(func() {
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CHECKPOINT of %d cells: %d allocations", cells, ckpt)
	if limit := uint64(cells / 16); ckpt >= limit {
		t.Fatalf("CHECKPOINT of %d cells performed %d allocations, want fewer than %d", cells, ckpt, limit)
	}

	keyedDelete := func(rows int) uint64 { // bytes allocated per statement
		db := loadScale(t, rows)
		defer db.Close()
		// The first statement creates the table's delta and compiles; the
		// measured ones run on a warm path.
		for k := 1; k <= 3; k++ {
			if _, err := db.Exec(fmt.Sprintf("DELETE FROM Prescription WHERE PreID = %d", k)); err != nil {
				t.Fatal(err)
			}
		}
		const stmts = 20
		_, bytes := allocsDuring(func() {
			for k := 10; k < 10+stmts; k++ {
				if n, err := db.Exec(fmt.Sprintf("DELETE FROM Prescription WHERE PreID = %d", k)); err != nil || n != 1 {
					t.Fatalf("delete %d: n=%d err=%v", k, n, err)
				}
			}
		})
		return bytes / stmts
	}
	small, large := keyedDelete(2_000), keyedDelete(20_000)
	t.Logf("keyed DELETE: %d B/stmt on 2 000 rows, %d B/stmt on 20 000", small, large)
	if large > small+small/4+1024 {
		t.Fatalf("keyed DELETE allocates %d bytes on 20 000 rows but %d on 2 000: not O(1) in the table size", large, small)
	}
}
