package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/value"
)

// TestDMLAtomicUnderRAMPressure is the regression test for half-applied
// statements: a multi-row UPDATE or DELETE that exhausts the device RAM
// midway must leave the delta exactly as it found it — nothing for a
// later CHECKPOINT to make durable — and the answer unchanged.
func TestDMLAtomicUnderRAMPressure(t *testing.T) {
	const rows = 400
	big := strings.Repeat("x", 150)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(append(testBackendOptions(t), WithProfile(SmallProfileForTest()), WithShards(shards))...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			var script strings.Builder
			script.WriteString("CREATE TABLE T (ID INTEGER PRIMARY KEY, X INTEGER, S CHAR(200) HIDDEN);\nINSERT INTO T VALUES ")
			for i := 1; i <= rows; i++ {
				fmt.Fprintf(&script, "(%d, 1, 's%d')", i, i)
				if i < rows {
					script.WriteString(", ")
				}
			}
			if err := db.ExecScript(script.String() + ";"); err != nil {
				t.Fatal(err)
			}
			answer := func() string {
				t.Helper()
				res, err := db.Query(`SELECT R.ID, R.X, R.S FROM T R WHERE R.ID > 0`)
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(res.Rows)
			}
			entries := func() int {
				s := db.DeltaSummary()
				return s.Rows + s.Tombstones
			}
			before := answer()

			// 400 images of 150 hidden bytes cannot fit in 16 KB (nor 100 per
			// shard): the statement dies midway through its rows.
			n, err := db.Exec(`UPDATE T SET S = '` + big + `' WHERE X = 1`)
			if err == nil || !strings.Contains(err.Error(), "budget exceeded") || n != 0 {
				t.Fatalf("oversized UPDATE: n=%d err=%v, want a RAM budget error", n, err)
			}
			if got := entries(); got != 0 {
				t.Fatalf("failed UPDATE left %d delta entries behind", got)
			}
			if got := answer(); got != before {
				t.Fatal("failed UPDATE changed the query answer")
			}
			if absorbed, err := db.Checkpoint(); err != nil || absorbed != 0 {
				t.Fatalf("CHECKPOINT after the failed UPDATE: absorbed=%d err=%v, want a no-op", absorbed, err)
			}

			// Fill the device holding key 1 (keys k, k+shards, ... share it)
			// with single-row updates until one is refused: it then has less
			// room than the tombstones of its share of a whole-table DELETE.
			filled := 0
			for k := 1; k <= rows; k += shards {
				if _, err := db.Exec(fmt.Sprintf(`UPDATE T SET S = '%s' WHERE ID = %d`, big, k)); err != nil {
					if !strings.Contains(err.Error(), "budget exceeded") {
						t.Fatal(err)
					}
					break
				}
				filled++
			}
			if filled == 0 || filled == (rows+shards-1)/shards {
				t.Fatalf("fill phase updated %d rows: the arena never filled up", filled)
			}
			n, err = db.Exec(`DELETE FROM T WHERE X = 1`)
			if err == nil || !strings.Contains(err.Error(), "budget exceeded") || n != 0 {
				t.Fatalf("oversized DELETE: n=%d err=%v, want a RAM budget error", n, err)
			}
			if s := db.DeltaSummary(); s.Rows != filled || s.Tombstones != 0 {
				t.Fatalf("failed DELETE left %d images and %d tombstones, want %d and 0", s.Rows, s.Tombstones, filled)
			}
			// Draining the delta frees the arena for the check query: every
			// row is still there, the filled ones with their new value.
			if absorbed, err := db.Checkpoint(); err != nil || absorbed != int64(filled) {
				t.Fatalf("CHECKPOINT: absorbed=%d err=%v, want %d", absorbed, err, filled)
			}
			res, err := db.Query(`SELECT R.ID, R.S FROM T R WHERE R.ID > 0`)
			if err != nil || len(res.Rows) != rows {
				t.Fatalf("after the failed DELETE: %d rows, err=%v, want %d", len(res.Rows), err, rows)
			}
			updated := 0
			for _, r := range res.Rows {
				if r[1].Str() == big {
					updated++
				}
			}
			if updated != filled {
				t.Fatalf("%d rows carry the new value, want %d", updated, filled)
			}
		})
	}
}

// TestCheckpointAllRowsDead covers a table whose every row is dead at
// CHECKPOINT: the survivor list of a dirty device is empty, not nil — nil
// is how the shard coordinator recognises a shard that had nothing to
// merge and keeps all its rows — so the root empties on every device and
// keys restart at 1.
func TestCheckpointAllRowsDead(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db := buildRecoverDB(t, WithShards(shards))
			defer db.Close()
			if n, err := db.Exec(`DELETE FROM Visit WHERE VisID > 0`); err != nil || n != 6 {
				t.Fatalf("delete: n=%d err=%v", n, err)
			}
			if n, err := db.Checkpoint(); err != nil || n != 6 {
				t.Fatalf("checkpoint: n=%d err=%v", n, err)
			}
			if got := db.RowCount("Visit"); got != 0 {
				t.Fatalf("Visit has %d rows after every one died", got)
			}
			if next, err := db.NextID("Visit"); err != nil || next != 1 {
				t.Fatalf("NextID = %d (%v), want 1", next, err)
			}
			if _, err := db.Exec(`INSERT INTO Visit VALUES (1, DATE '2007-03-03', 'Checkup', 12.5, 1)`); err != nil {
				t.Fatal(err)
			}
			res, err := db.Query(`SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.VisID > 0`)
			if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Str() != "Checkup" {
				t.Fatalf("after refill: %v, err=%v", res, err)
			}
			// A dimension that loses every row takes the rows referencing it
			// along (the cascade), on a single device and on every replica.
			if _, err := db.Exec(`DELETE FROM Doctor WHERE DocID > 0; CHECKPOINT`); err != nil {
				t.Fatal(err)
			}
			if d, v := db.RowCount("Doctor"), db.RowCount("Visit"); d != 0 || v != 0 {
				t.Fatalf("after deleting every doctor: %d doctors, %d visits", d, v)
			}
		})
	}
}

// TestCheckpointDeltaForeignKeys covers the two foreign-key edges of the
// renumbering: a key pointing past the base segment into a delta-resident
// row survives CHECKPOINT under the row's new identifier, and a key whose
// target is not among the survivors still reports which row dangles.
func TestCheckpointDeltaForeignKeys(t *testing.T) {
	db := buildRecoverDB(t)
	defer db.Close()
	mustExec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	mustExec(`DELETE FROM Doctor WHERE DocID = 2`) // renumbers doctor 3 -> 2, the new one -> 3
	mustExec(`INSERT INTO Doctor VALUES (4, 'Jarre', 'Italy', 'Urology')`)
	mustExec(`INSERT INTO Visit VALUES (7, DATE '2007-05-05', 'Relapse', 22, 4)`)
	mustExec(`UPDATE Visit SET DocID = 4 WHERE VisID = 1`)
	res, err := db.Query(`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Doc.Country = 'Italy'`)
	if err != nil || fmt.Sprint(res.Rows) != "[[1 Jarre] [7 Jarre]]" {
		t.Fatalf("dirty join through the delta-resident doctor: %v, err=%v", res, err)
	}
	mustExec(`CHECKPOINT`)
	// Visits 2 and 5 died with doctor 2; old 1, 3, 4, 6, 7 are now 1..5.
	res, err = db.Query(`SELECT Vis.VisID, Doc.DocID, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Doc.Country = 'Italy'`)
	if err != nil || fmt.Sprint(res.Rows) != "[[1 3 Jarre] [5 3 Jarre]]" {
		t.Fatalf("after CHECKPOINT: %v, err=%v", res, err)
	}

	// A live row whose key has no surviving target cannot be produced
	// through SQL — liveness is what selects the survivors — so the key
	// is swapped between the two passes: CHECKPOINT consults its context
	// before each table of each pass, so call len(e.views)+1 opens the
	// extraction.
	mustExec(`UPDATE Visit SET Toll = 1 WHERE VisID = 2`)
	e := db.shards.engines[0]
	e.mu.Lock()
	defer e.mu.Unlock()
	visit := e.mustTable("Visit")
	img, _ := e.delta.Get(visit.Ordinal()).Row(2)
	ctx := &plantCtx{Context: context.Background(), at: len(e.views) + 1, plant: func() {
		img[visit.ColumnIndex("DocID")] = value.NewInt(99)
	}}
	if _, err := e.checkpointPrepareLocked(ctx); err == nil || err.Error() != "core: checkpoint: Visit.DocID row 2 dangles" {
		t.Fatalf("dangling key: err=%v", err)
	}
}

// plantCtx is a context whose at-th Err call runs plant first.
type plantCtx struct {
	context.Context
	calls, at int
	plant     func()
}

func (c *plantCtx) Err() error {
	if c.calls++; c.calls == c.at {
		c.plant()
	}
	return nil
}

// TestViewsRebuiltWithState checks that table views never outlive the
// stores they point into: CHECKPOINT, Snapshot/Recover and OpenPath each
// install a fresh set, sized for the new base segments.
func TestViewsRebuiltWithState(t *testing.T) {
	dir := fileBackendDir(t)
	db := buildRecoverDB(t, WithBackend(storage.File(dir, false)))
	visit := db.shards.engines[0].mustTable("Visit").Ordinal()
	viewOf := func(d *DB) *tableView {
		e := d.shards.engines[0]
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.views[visit]
	}
	loaded := viewOf(db)
	if loaded.baseN != 6 || len(loaded.cols) != 5 || loaded.cols[4].fk == nil || loaded.cols[2].hid == nil || loaded.cols[1].vis == nil {
		t.Fatalf("bulk-load view of Visit is incomplete: %+v", loaded)
	}
	if _, err := db.Exec(`DELETE FROM Visit WHERE VisID = 2; CHECKPOINT`); err != nil {
		t.Fatal(err)
	}
	merged := viewOf(db)
	if merged == loaded || merged.baseN != 5 || len(merged.cols[4].fk) != 5 {
		t.Fatalf("CHECKPOINT kept a stale view: same=%v baseN=%d", merged == loaded, merged.baseN)
	}
	if loaded.baseN != 6 {
		t.Fatal("CHECKPOINT rewrote the old view in place")
	}
	want := corpusOf(t, db)

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if v := viewOf(rec); v == merged || v.baseN != 5 || v.cols[2].hid == merged.cols[2].hid {
		t.Fatalf("Recover shares view state with its source: baseN=%d", v.baseN)
	}
	assertCorpusEqual(t, want, corpusOf(t, rec))

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if v := viewOf(reopened); v.baseN != 5 || v.cols[2].hid == nil || v.parent != -1 {
		t.Fatalf("OpenPath built no usable view: %+v", v)
	}
	assertCorpusEqual(t, want, corpusOf(t, reopened))
	// And the reopened views serve the delta paths.
	if _, err := reopened.Exec(`UPDATE Visit SET Purpose = 'Relapse' WHERE VisID = 1; CHECKPOINT`); err != nil {
		t.Fatal(err)
	}
}
