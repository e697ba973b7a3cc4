package core

import (
	"fmt"
	"testing"
)

// recoverSchema loads a small two-table database exercising every
// recovery-relevant column shape: visible fixed (Date), hidden fixed
// (Float), hidden variable (CHAR), hidden foreign key, and visible
// strings on the dimension.
const recoverSchema = `
CREATE TABLE Doctor (
  DocID INTEGER PRIMARY KEY,
  Name CHAR(40),
  Country CHAR(20),
  Specialty CHAR(20) HIDDEN);
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  Toll FLOAT HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES
  (1, 'Ellis', 'France', 'Cardiology'),
  (2, 'Gall', 'Spain', 'Neurology'),
  (3, 'Imbert', 'France', 'Oncology');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 12.5, 1),
  (2, DATE '2006-11-20', 'Sclerosis', 40, 2),
  (3, DATE '2007-02-01', 'Sclerosis', 35.25, 1),
  (4, DATE '2007-03-12', 'Flu', 10, 3),
  (5, DATE '2007-04-02', 'Checkup', 11, 2),
  (6, DATE '2007-04-20', 'Flu', 9.75, 3);
`

// recoverQueries is the corpus compared between the original and the
// recovered database: full scans of both tables plus a join through the
// hidden foreign key filtered on a hidden column.
var recoverQueries = []string{
	`SELECT Doc.DocID, Doc.Name, Doc.Country, Doc.Specialty FROM Doctor Doc WHERE Doc.DocID > 0`,
	`SELECT Vis.VisID, Vis.Date, Vis.Purpose, Vis.Toll FROM Visit Vis WHERE Vis.VisID > 0`,
	`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Vis.Purpose = 'Sclerosis'`,
}

func corpusOf(t *testing.T, db *DB) []string {
	t.Helper()
	out := make([]string, 0, len(recoverQueries))
	for _, q := range recoverQueries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("corpus query %q: %v", q, err)
		}
		out = append(out, fmt.Sprintf("%v", res.Rows))
	}
	return out
}

func assertCorpusEqual(t *testing.T, want, got []string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corpus query %d diverged:\nwant %s\ngot  %s", i, want[i], got[i])
		}
	}
}

func buildRecoverDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	// Environment-selected backend first, so an explicit WithBackend in
	// opts (as the file-backend tests pass) always wins.
	db, err := Open(append(testBackendOptions(t), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ExecScript(recoverSchema); err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	return db
}

func recoverTrip(t *testing.T, opts ...Option) {
	t.Helper()
	db := buildRecoverDB(t, opts...)

	// Two committed rounds of DML, then uncommitted churn that a crash
	// must lose.
	mustExec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec(`INSERT INTO Visit VALUES (7, DATE '2007-05-05', 'Checkup', 22, 1)`)
	mustExec(`UPDATE Visit SET Purpose = 'Relapse' WHERE VisID = 2`)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(`DELETE FROM Visit WHERE Purpose = 'Flu'`)
	mustExec(`INSERT INTO Visit VALUES (8, DATE '2007-06-01', 'Checkup', 18.5, 3)`)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := corpusOf(t, db)
	mustExec(`UPDATE Visit SET Toll = 99 WHERE VisID = 1`) // volatile, must not survive

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ndb, info, err := Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 {
		t.Fatalf("recovered version = %d, want 2 (shard versions %v)", info.Version, info.ShardVersions)
	}
	if info.RolledBack {
		t.Fatalf("clean snapshot reported RolledBack")
	}
	assertCorpusEqual(t, want, corpusOf(t, ndb))
}

func TestSnapshotRecoverRoundTrip(t *testing.T)        { recoverTrip(t) }
func TestSnapshotRecoverRoundTripSharded(t *testing.T) { recoverTrip(t, WithShards(4)) }

// TestRecoverReshard recovers a single-device snapshot onto a sharded
// replacement (and the reverse): recovery reassembles the global row
// order first, so the shard count is free to change on the way back up.
func TestRecoverReshard(t *testing.T) {
	db := buildRecoverDB(t)
	if _, err := db.Exec(`DELETE FROM Visit WHERE Purpose = 'Checkup'`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := corpusOf(t, db)

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sharded, info, err := Recover(snap, WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || sharded.ShardCount() != 3 {
		t.Fatalf("version=%d shards=%d, want 1 and 3", info.Version, sharded.ShardCount())
	}
	assertCorpusEqual(t, want, corpusOf(t, sharded))

	// And back down to one device.
	snap2, err := sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	single, info2, err := Recover(snap2, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	// The resharded DB was rebuilt at its own version 0 on one device.
	if info2.Version != 0 || single.ShardCount() != 1 {
		t.Fatalf("version=%d shards=%d, want 0 and one device", info2.Version, single.ShardCount())
	}
	assertCorpusEqual(t, want, corpusOf(t, single))
}

// TestSnapshotFreshBuild recovers straight from the version-0 commit
// record written at the end of the bulk load.
func TestSnapshotFreshBuild(t *testing.T) {
	db := buildRecoverDB(t)
	want := corpusOf(t, db)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ndb, info, err := Recover(snap)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 0 || info.RolledBack {
		t.Fatalf("info = %+v, want version 0, no rollback", info)
	}
	assertCorpusEqual(t, want, corpusOf(t, ndb))
}
