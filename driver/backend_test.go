package driver

import (
	"database/sql"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// testBackendDSN rewrites dsn for the backend selected by the
// GHOSTDB_TEST_BACKEND environment variable, so CI can run the driver
// suite against the file backend as well as the default simulation. A
// DSN that already picks a backend is left alone.
func testBackendDSN(t *testing.T, dsn string) string {
	t.Helper()
	if strings.Contains(dsn, "backend=") {
		return dsn
	}
	switch be := os.Getenv("GHOSTDB_TEST_BACKEND"); be {
	case "", "sim":
		return dsn
	case "file":
		extra := "backend=file&path=" + url.QueryEscape(filepath.Join(t.TempDir(), "dev"))
		switch {
		case dsn == "":
			return "ghostdb://?" + extra
		case strings.Contains(dsn, "?"):
			return dsn + "&" + extra
		default:
			return dsn + "?" + extra
		}
	default:
		t.Fatalf("GHOSTDB_TEST_BACKEND=%q (want sim or file)", be)
		return dsn
	}
}

// fileDSN builds a backend=file DSN rooted at a fresh directory, and
// returns the directory too.
func fileDSN(t *testing.T, params string) (dsn, dir string) {
	t.Helper()
	dir = filepath.Join(t.TempDir(), "dev")
	dsn = "ghostdb://?backend=file&path=" + url.QueryEscape(dir)
	if params != "" {
		dsn += "&" + params
	}
	return dsn, dir
}

// TestFileBackendDSNValidation pins the DSN grammar: backend=file needs
// a path, and path/fsync are meaningless without backend=file.
func TestFileBackendDSNValidation(t *testing.T) {
	for _, bad := range []string{
		"ghostdb://?backend=file",
		"ghostdb://?backend=bogus",
		"ghostdb://?path=/tmp/x",
		"ghostdb://?fsync=on",
		"ghostdb://?backend=sim&path=/tmp/x",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) succeeded, want error", bad)
		}
	}
	cfg, err := ParseDSN("ghostdb://?backend=file&path=%2Ftmp%2Fx&fsync=on")
	if err != nil {
		t.Fatal(err)
	}
	if o := resolve(cfg); o.Backend != storage.File("/tmp/x", true) || cfg.path != "/tmp/x" {
		t.Fatalf("options = %+v, path %q", o, cfg.path)
	}
}

// TestFileBackendReopenSQL is the driver-level persistence acceptance
// test: build a file-backed database through one sql.DB, close it, open
// a second sql.DB on the same DSN and query the data back without
// re-issuing any DDL or INSERTs.
func TestFileBackendReopenSQL(t *testing.T) {
	dsn, dir := fileDSN(t, "")
	db := openHospital(t, dsn)

	// Force the build, add a checkpointed row on top of it.
	countQ := `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	if _, err := db.Query(countQ); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-03-03', 'Sclerosis', 2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CHECKPOINT`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if len(dir) == 0 {
		t.Fatal("no device directory")
	}

	// Same DSN, fresh process-equivalent: the driver must detect the
	// existing database and reopen instead of wiping.
	db2, err := sql.Open("ghostdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rows, err := db2.Query(countQ)
	if err != nil {
		t.Fatalf("query on reopened database: %v", err)
	}
	var ids []int64
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rows.Close()
	if len(ids) != 3 {
		t.Fatalf("reopened VisIDs = %v, want the 2 loaded Sclerosis rows plus the checkpointed one", ids)
	}

	// The reopened engine stays fully live through database/sql.
	if _, err := db2.Exec(`INSERT INTO Visit VALUES (5, DATE '2007-04-04', 'Sclerosis', 1)`); err != nil {
		t.Fatal(err)
	}
	var n int64
	if err := db2.QueryRow(`SELECT COUNT(Vis.VisID) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("count after post-reopen insert = %d, want 4", n)
	}
}

// TestFileBackendUncommittedLostSQL checks the durability boundary as
// seen from database/sql: an insert without CHECKPOINT does not survive
// close-and-reopen.
func TestFileBackendUncommittedLostSQL(t *testing.T) {
	dsn, _ := fileDSN(t, "")
	db := openHospital(t, dsn)
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID > 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-05-05', 'Volatile', 1)`); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := sql.Open("ghostdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var n int64
	if err := db2.QueryRow(`SELECT COUNT(Vis.VisID) FROM Visit Vis WHERE Vis.VisID > 0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count after reopen = %d, want the 3 committed rows", n)
	}
}

// TestFileBackendFsyncDSN smoke-tests the fsync=on path end to end.
func TestFileBackendFsyncDSN(t *testing.T) {
	dsn, _ := fileDSN(t, "fsync=on")
	db := openHospital(t, dsn)
	var n int64
	if err := db.QueryRow(`SELECT COUNT(Vis.VisID) FROM Visit Vis WHERE Vis.VisID > 0`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}
