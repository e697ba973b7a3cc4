package core

import (
	"fmt"
	"sync"
	"testing"
)

// visibleSelects reads the two access-path counters, summed over the
// shard registries on a sharded DB (children run the selections).
func visibleSelects(db *DB) (indexed, scanned int64) {
	snaps := append(db.ShardMetrics(), db.MetricsSnapshot())
	for _, snap := range snaps {
		v, _ := snap.Get("visible_selects_indexed_total")
		indexed += v.Value
		v, _ = snap.Get("visible_selects_scanned_total")
		scanned += v.Value
	}
	return indexed, scanned
}

// TestVisibleIndexLifecycle fails if a visible column's index ever
// outlives the store it was built over: the index is warmed, the column
// is updated under it, and the answers over the dirty delta, after
// CHECKPOINT and after Snapshot/Recover must all be the oracle's.
func TestVisibleIndexLifecycle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, orc, _ := loadShardedTiny(t, shards)
			queries := []string{
				`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Frequency = 99`,
				`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Frequency <> 99 AND Pre.PreID < 40`,
				`SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre WHERE Pre.Frequency BETWEEN 2 AND 99 AND Pre.PreID IN (7, 8, 9)`,
			}
			check := func(db *DB) {
				t.Helper()
				for _, q := range queries {
					checkAgainstOracle(t, db, orc, q)
				}
			}
			both := func(stmt string, want int64) {
				t.Helper()
				en, eerr := db.Exec(stmt)
				on, oerr := orc.Exec(stmt)
				if eerr != nil || oerr != nil || en != on || en != want {
					t.Fatalf("%s: engine (%d, %v), oracle (%d, %v), want %d", stmt, en, eerr, on, oerr, want)
				}
			}

			check(db) // builds the index on Prescription.Frequency
			both(`UPDATE Prescription SET Frequency = 99 WHERE PreID = 8`, 1)
			check(db) // dirty: row 8 answers from the delta, its base image is shadowed
			both(`CHECKPOINT`, 1)
			check(db) // clean: a fresh store, so a fresh index that knows 99
			both(`UPDATE Prescription SET Frequency = 98 WHERE Frequency = 99`, 1)
			check(db)
			both(`CHECKPOINT`, 1)

			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			ndb, _, err := Recover(snap)
			if err != nil {
				t.Fatal(err)
			}
			defer ndb.Close()
			check(ndb)
			both(`UPDATE Prescription SET Frequency = 99 WHERE Frequency = 98`, 1)
			check(db)

			for _, d := range []*DB{db, ndb} {
				if indexed, scanned := visibleSelects(d); indexed == 0 || scanned != 0 {
					t.Errorf("visible selects: %d indexed, %d scanned; want every one indexed", indexed, scanned)
				}
			}
		})
	}
}

// TestVisibleIndexColdRace has 16 sessions issue the first-ever
// predicates on the same cold columns at the same moment, on one device
// and on four. Run with -race -count=10.
func TestVisibleIndexColdRace(t *testing.T) {
	const q = `SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Doctor Doc ` +
		`WHERE Doc.Country = 'Spain' AND Pre.Frequency >= 2 AND Vis.Date > DATE '2005-01-01'`
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, orc, _ := loadShardedTiny(t, shards)
			_, want, err := orc.Query(q)
			if err != nil || len(want) == 0 {
				t.Fatalf("oracle: %d rows, %v", len(want), err)
			}
			const sessions = 16
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				s, err := db.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer s.Close()
					<-start
					res, err := s.Query(q)
					if err != nil {
						t.Error(err)
					} else if !sameRows(res.Rows, want) {
						t.Errorf("%d rows, oracle has %d", len(res.Rows), len(want))
					}
				}()
			}
			close(start)
			wg.Wait()
			if indexed, scanned := visibleSelects(db); indexed == 0 || scanned != 0 {
				t.Errorf("visible selects: %d indexed, %d scanned; want every one indexed", indexed, scanned)
			}
		})
	}
}
