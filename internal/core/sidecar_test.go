package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/value"
)

// referenceSidecar builds the sidecar document the way the commit used
// to, cell by cell into a sidecarDoc for json.Marshal: the reference
// encodeSidecar's bytes are held to.
func referenceSidecar(version uint64, ddl []string, committed map[uint64]visImage) sidecarDoc {
	doc := sidecarDoc{Version: version, DDL: ddl}
	for _, v := range sortedKeys(committed) {
		commit := sidecarCommit{Version: v}
		for _, t := range sortedKeys(committed[v]) {
			st := sidecarTable{Name: t}
			for _, c := range sortedKeys(committed[v][t]) {
				col := committed[v][t][c]
				var data []byte
				for i := range col.Len() {
					data = col.Value(i).Append(data)
				}
				st.Cols = append(st.Cols, sidecarCol{Name: c, Rows: col.Len(), Data: data})
			}
			commit.Tables = append(commit.Tables, st)
		}
		doc.Commits = append(doc.Commits, commit)
	}
	return doc
}

// assertSidecarEncodes holds encodeSidecar to json.Marshal of the
// reference document, and to a buffer of exactly its size.
func assertSidecarEncodes(t *testing.T, what string, version uint64, ddl []string, committed map[uint64]visImage) []byte {
	t.Helper()
	want, err := json.Marshal(referenceSidecar(version, ddl, committed))
	if err != nil {
		t.Fatal(err)
	}
	got := encodeSidecar(version, ddl, committed)
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("%s: sidecar differs from json.Marshal at byte %d of %d / %d:\n got  %.80q\n want %.80q",
			what, at, len(got), len(want), got[at:], want[at:])
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: sidecar of %d bytes in a buffer of %d", what, len(got), cap(got))
	}
	return want
}

// assertSidecars checks every engine of db: the encoder against the
// reference over its committed state, and the meta.json it wrote.
func assertSidecars(t *testing.T, db *DB, what string) {
	t.Helper()
	for i, e := range db.shards.engines {
		e.mu.Lock()
		want := assertSidecarEncodes(t, fmt.Sprintf("%s, shard %d", what, i), e.version, e.ddl, e.committedVis)
		path := filepath.Join(e.opts.Backend.Path, sidecarName)
		e.mu.Unlock()
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, want) {
			t.Fatalf("%s, shard %d: %s holds %d bytes, not the committed state's %d", what, i, path, len(onDisk), len(want))
		}
	}
}

// TestSidecarEncoderMatchesJSON holds the typed sidecar encoder to
// json.Marshal of the document it replaced: over hand-built states that
// reach every null, omitted and escaped form, and over the committed
// state of live databases — after the bulk load, three CHECKPOINTs, a
// commit that only re-points a clean shard's record, Recover and OpenPath.
func TestSidecarEncoderMatchesJSON(t *testing.T) {
	strs := func(ss ...string) value.Column {
		c := value.MakeColumn(value.String, len(ss))
		for _, s := range ss {
			c.Append(value.NewString(s))
		}
		return c
	}
	long := make([]string, 900) // odd lengths: base64 padding
	for i := range long {
		long[i] = fmt.Sprintf("cell %d %s", i, string(rune('a'+i%26)))
	}
	floats := value.Column{Kind: value.Float, Words: []int64{1, -1, 1 << 62}}
	ints := value.Column{Kind: value.Int, Words: []int64{0, -1, 63, -64, 64, 1 << 40, math.MinInt64, math.MaxInt64}}
	dates := value.Column{Kind: value.Date, Words: []int64{13000, -5}}
	bools := value.Column{Kind: value.Bool, Words: []int64{1, 0, 1}}
	for _, tc := range []struct {
		name      string
		ddl       []string
		committed map[uint64]visImage
	}{
		{"nothing", nil, nil},
		{"empty ddl, one empty version", []string{}, map[uint64]visImage{3: {}}},
		{"escaped names and statements", []string{"CREATE \"T\" <x> & y", "é ü \u2028 \t\n \x01 \\ /"},
			map[uint64]visImage{1: {"t<&>": {"c\"é": strs("a"), "plain": strs()}, "no columns": {}}}},
		{"two versions, long columns", []string{"CREATE TABLE T (A INTEGER PRIMARY KEY)"},
			map[uint64]visImage{
				7: {"t": {"long": strs(long...), "f": floats, "i": ints}},
				8: {"t": {"long": strs(long[:899]...), "f": floats, "d": dates, "b": bools}, "u": {"s": strs("\"q\" <b> & ç", "")}},
			}},
	} {
		assertSidecarEncodes(t, tc.name, 9, tc.ddl, tc.committed)
	}

	const schema = `
CREATE TABLE Doctor (
  DocID INTEGER PRIMARY KEY,
  Name CHAR(40),
  Specialty CHAR(20) HIDDEN);
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Note CHAR(40),
  Toll FLOAT,
  Purpose CHAR(40) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES
  (1, 'Ellis "Doc"', 'Cardiology'),
  (2, '<b>Gall</b> & Co', 'Neurology'),
  (3, 'Çelik Ünal', 'Oncology');
INSERT INTO Visit VALUES
  (1, 'a "quoted" note', 12.5, 'Checkup', 1),
  (2, '<script>', 40, 'Sclerosis', 2),
  (3, 'Tom & Jerry', 35.25, 'Sclerosis', 1),
  (4, 'naïve café', 10, 'Flu', 3),
  (5, '', 11, 'Checkup', 2),
  (6, 'plain', 9.75, 'Flu', 3);
`
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := fileBackendDir(t)
			db, err := Open(WithShards(shards), WithBackend(storage.File(dir, false)))
			if err != nil {
				t.Fatal(err)
			}
			if err := db.ExecScript(schema); err != nil {
				t.Fatal(err)
			}
			if err := db.EnsureBuilt(); err != nil {
				t.Fatal(err)
			}
			assertSidecars(t, db, "bulk load")
			for round, stmt := range []string{
				`INSERT INTO Visit VALUES (7, 'new <&> "row"', 1.5, 'Checkup', 2)`,
				`UPDATE Visit SET Note = 'ünïcødé & <more>' WHERE VisID = 3`,
				`DELETE FROM Visit WHERE VisID = 2`,
			} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				assertSidecars(t, db, fmt.Sprintf("CHECKPOINT %d", round+1))
			}
			if shards > 1 {
				// One root row changes: every other shard commits by
				// re-pointing its record at unchanged columns.
				if _, err := db.Exec(`UPDATE Visit SET Note = 'one shard' WHERE VisID = 1`); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				assertSidecars(t, db, "record-only commit")
			}

			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rdb, _, err := Recover(snap, WithBackend(storage.File(fileBackendDir(t), false)))
			if err != nil {
				t.Fatal(err)
			}
			assertSidecars(t, rdb, "Recover")
			if err := rdb.Close(); err != nil {
				t.Fatal(err)
			}

			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			odb, _, err := OpenPath(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer odb.Close()
			assertSidecars(t, odb, "OpenPath")
		})
	}
}

// errSyncFault is what syncFault's Sync returns.
var errSyncFault = errors.New("injected sync fault")

// syncFault is a backend whose Sync fails.
type syncFault struct{ storage.Backend }

func (syncFault) Sync() error { return errSyncFault }

// TestCommitSyncFaultKeepsSidecar: a commit whose flash sync fails
// returns that error and leaves the previous sidecar as it was — the
// sidecar encoded beside the sync is dropped, never written — and the
// encoding goroutine is gone when the commit returns (the package's
// TestMain audits goroutines).
func TestCommitSyncFaultKeepsSidecar(t *testing.T) {
	dir := fileBackendDir(t)
	db := buildRecoverDB(t, WithBackend(storage.File(dir, true)))
	defer db.Close()
	if _, err := db.Exec(`INSERT INTO Visit VALUES (7, DATE '2007-05-05', 'Checkup', 22, 1)`); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sidecarName)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	e := db.shards.engines[0]
	e.mu.Lock()
	flash := e.dev.Flash
	e.dev.Flash = syncFault{flash}
	e.mu.Unlock()
	_, err = db.Checkpoint()
	e.mu.Lock()
	e.dev.Flash = flash
	e.mu.Unlock()
	if !errors.Is(err, errSyncFault) {
		t.Fatalf("CHECKPOINT over a failing sync: %v, want %v", err, errSyncFault)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the failed commit rewrote %s (%d bytes, was %d)", path, len(after), len(before))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed commit left %s.tmp behind: %v", path, err)
	}
}

// TestFailedSidecarWriteKeepsCommittedVersion: a commit whose sidecar
// cannot be written (here its temporary file's name is taken by a
// directory) fails before its commit record, so the directory reopens on
// the version before it, with that version's rows — not on a record
// whose visible columns no sidecar holds.
func TestFailedSidecarWriteKeepsCommittedVersion(t *testing.T) {
	dir := fileBackendDir(t)
	db := buildRecoverDB(t, WithBackend(storage.File(dir, true)))
	want := corpusOf(t, db)
	if _, err := db.Exec(`INSERT INTO Visit VALUES (7, DATE '2007-05-05', 'Checkup', 22, 1)`); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, sidecarName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Fatal("CHECKPOINT committed without its sidecar")
	}
	db.Close() // the failed commit latched the database fatal; its close error is that
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}

	odb, info, err := OpenPath(dir)
	if err != nil {
		t.Fatalf("reopen after the failed commit: %v", err)
	}
	defer odb.Close()
	if info.Version != 0 {
		t.Fatalf("reopened on version %d, want 0", info.Version)
	}
	assertCorpusEqual(t, corpusOf(t, odb), want)
}
