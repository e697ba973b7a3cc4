package driver

import (
	"database/sql"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// hospitalDDL is the package-doc Doctor/Visit example.
const hospitalDDL = `
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
`

const hospitalRows = `
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`

func openHospital(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("ghostdb", testBackendDSN(t, dsn))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.Exec(hospitalDDL); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(hospitalRows)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := res.RowsAffected(); err != nil || n != 5 {
		t.Fatalf("RowsAffected = %d, %v; want 5", n, err)
	}
	return db
}

// TestEndToEnd drives the acceptance-criteria flow: DDL with HIDDEN
// columns via ExecContext, QueryContext returning correct rows for the
// package-doc example, purely through database/sql.
func TestEndToEnd(t *testing.T) {
	db := openHospital(t, "")

	rows, err := db.Query(`SELECT Vis.VisID, Vis.Date, Doc.Name FROM Visit Vis, Doctor Doc
		WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France' AND Vis.DocID = Doc.DocID`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || cols[2] != "Doctor.Name" {
		t.Fatalf("columns = %v", cols)
	}
	var got []string
	for rows.Next() {
		var visID int64
		var date time.Time
		var name string
		if err := rows.Scan(&visID, &date, &name); err != nil {
			t.Fatal(err)
		}
		if date.Year() != 2007 || date.Month() != time.February || date.Day() != 1 {
			t.Errorf("date = %v, want 2007-02-01", date)
		}
		got = append(got, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "Ellis" {
		t.Fatalf("rows = %v, want [Ellis]", got)
	}
}

// TestQueryRow exercises the single-row convenience path and hidden
// projections.
func TestQueryRow(t *testing.T) {
	db := openHospital(t, "")
	var purpose string
	err := db.QueryRow(`SELECT Vis.Purpose FROM Visit Vis WHERE Vis.VisID = 1`).Scan(&purpose)
	if err != nil {
		t.Fatal(err)
	}
	if purpose != "Checkup" {
		t.Fatalf("purpose = %q", purpose)
	}
}

// TestPreparedStatement reuses one prepared SELECT.
func TestPreparedStatement(t *testing.T) {
	db := openHospital(t, "")
	stmt, err := db.Prepare(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 3; i++ {
		rows, err := stmt.Query()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		rows.Close()
		if n != 2 {
			t.Fatalf("iteration %d: %d rows, want 2", i, n)
		}
	}
}

// TestLifecycleErrors pins the driver's contract edges.
func TestLifecycleErrors(t *testing.T) {
	db := openHospital(t, "")
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	// Transactions are unsupported.
	if _, err := db.Begin(); err == nil {
		t.Fatal("Begin should fail")
	}
	// SELECT through Exec is rejected.
	if _, err := db.Exec(`SELECT Doc.Name FROM Doctor Doc`); err == nil {
		t.Fatal("Exec(SELECT) should fail")
	}
	// Placeholder arity is enforced: too few / too many args fail.
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = ?`); err == nil {
		t.Fatal("placeholder query without args should fail")
	}
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc`, "stray"); err == nil {
		t.Fatal("args without placeholders should fail")
	}
	// First query finalizes the bulk load; DDL afterwards fails.
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE Late (ID INTEGER PRIMARY KEY)`); err == nil {
		t.Fatal("Exec after build should fail")
	}
	// Syntax errors surface at Prepare.
	if _, err := db.Prepare(`SELEKT nonsense`); err == nil {
		t.Fatal("Prepare of garbage should fail")
	}
}

// TestClosedDB checks queries fail cleanly after sql.DB.Close.
func TestClosedDB(t *testing.T) {
	db := openHospital(t, "")
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT Doc.Name FROM Doctor Doc`); err == nil {
		t.Fatal("query after Close should fail")
	}
}

// TestDSNOptions opens through a fully-loaded DSN and checks it works
// end-to-end (high-speed bus, device index, full capture).
func TestDSNOptions(t *testing.T) {
	db := openHospital(t, "ghostdb://?profile=smartusb2007&usb=high&fpr=0.02&capture=full&deviceindex=Doctor.Country")
	var n int64
	err := db.QueryRow(`SELECT Vis.VisID FROM Visit Vis, Doctor Doc
		WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France' AND Vis.DocID = Doc.DocID`).Scan(&n)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("VisID = %d, want 3", n)
	}
}

// TestParseDSN pins the DSN grammar.
func TestParseDSN(t *testing.T) {
	cfg, err := ParseDSN("")
	if err != nil || len(cfg.opts) != 0 {
		t.Fatalf("empty DSN = %d options, %v; want none, so the engine's defaults apply", len(cfg.opts), err)
	}
	cfg, err = ParseDSN("ghostdb://?usb=high&fpr=0.05&capture=full&deviceindex=Doctor.Country&deviceindex=Visit.Date&plancache=16")
	if err != nil {
		t.Fatal(err)
	}
	if o := resolve(cfg); o.USB != bus.USBHighSpeed() || o.TargetFPR != 0.05 || o.Capture != trace.CaptureFull || len(o.DeviceIndexes) != 2 || o.PlanCacheSize != 16 {
		t.Fatalf("options = %+v", o)
	}
	for _, bad := range []string{
		"mysql://localhost",
		"ghostdb://somehost",
		"ghostdb://?bogus=1",
		"ghostdb://?usb=warp",
		"ghostdb://?fpr=2",
		"ghostdb://?fpr=abc",
		"ghostdb://?capture=everything",
		"ghostdb://?deviceindex=NoDot",
		"ghostdb://?deviceindex=Too.Many.Dots",
		"ghostdb://?profile=cray1",
		"ghostdb://?plancache=-3",
		"ghostdb://?plancache=lots",
		"ghostdb://?batch=0",
		"ghostdb://?batch=many",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "ghostdb driver:") {
			t.Errorf("ParseDSN(%q) error %q lacks driver prefix", bad, err)
		}
	}
}

// TestTwoEngines checks that two sql.DBs are fully isolated instances.
func TestTwoEngines(t *testing.T) {
	a := openHospital(t, "")
	b, err := sql.Open("ghostdb", "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Exec(`CREATE TABLE Solo (ID INTEGER PRIMARY KEY, Tag CHAR(8) HIDDEN); INSERT INTO Solo VALUES (1, 'x')`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query(`SELECT S.Tag FROM Solo S`); err == nil {
		t.Fatal("engine a should not see engine b's table")
	}
	var tag string
	if err := b.QueryRow(`SELECT S.Tag FROM Solo S`).Scan(&tag); err != nil || tag != "x" {
		t.Fatalf("tag = %q, %v", tag, err)
	}
}

// TestPlaceholderRoundTrip is the acceptance path: a '?'-placeholder
// query round-trips correct results through database/sql with bound
// args, both directly and via a prepared sql.Stmt reused with many
// bindings.
func TestPlaceholderRoundTrip(t *testing.T) {
	db := openHospital(t, "")

	// Direct Query with args.
	var name string
	err := db.QueryRow(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = ?`, "Spain").Scan(&name)
	if err != nil {
		t.Fatal(err)
	}
	if name != "Gall" {
		t.Fatalf("name = %q, want Gall", name)
	}

	// Prepared statement: compile once, bind many.
	stmt, err := db.Prepare(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ? AND Vis.Date > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	cutoff := time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC)
	for purpose, want := range map[string][]int64{
		"Sclerosis": {2, 3},
		"Checkup":   {1},
		"Nothing":   nil,
	} {
		rows, err := stmt.Query(purpose, cutoff)
		if err != nil {
			t.Fatalf("Query(%q): %v", purpose, err)
		}
		var got []int64
		for rows.Next() {
			var id int64
			if err := rows.Scan(&id); err != nil {
				t.Fatal(err)
			}
			got = append(got, id)
		}
		rows.Close()
		if len(got) != len(want) {
			t.Fatalf("Query(%q) = %v, want %v", purpose, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Query(%q) = %v, want %v", purpose, got, want)
			}
		}
	}

	// Wrong arity is rejected by database/sql via NumInput.
	if _, err := stmt.Query("only-one"); err == nil {
		t.Fatal("one arg for a two-placeholder statement should fail")
	}
	// A closed statement refuses to run.
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query("Checkup", cutoff); err == nil {
		t.Fatal("query on a closed statement should fail")
	}
}

// TestPlaceholderExec checks '?' placeholders in INSERT rows: the bulk
// load can be driven by one prepared statement per table.
func TestPlaceholderExec(t *testing.T) {
	db, err := sql.Open("ghostdb", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(hospitalDDL); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO Doctor VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range []struct {
		name, country string
	}{{"Ellis", "France"}, {"Gall", "Spain"}, {"Okafor", "Nigeria"}} {
		res, err := ins.Exec(int64(i+1), d.name, d.country)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if n, _ := res.RowsAffected(); n != 1 {
			t.Fatalf("insert %d staged %d rows", i, n)
		}
	}
	ins.Close()
	if _, err := db.Exec(`INSERT INTO Visit VALUES (1, ?, 'Checkup', ?)`,
		time.Date(2006, 1, 10, 0, 0, 0, 0, time.UTC), int64(3)); err != nil {
		t.Fatal(err)
	}
	var name string
	if err := db.QueryRow(`SELECT Doc.Name FROM Doctor Doc, Visit Vis
		WHERE Vis.DocID = Doc.DocID AND Vis.Purpose = ?`, "Checkup").Scan(&name); err != nil {
		t.Fatal(err)
	}
	if name != "Okafor" {
		t.Fatalf("name = %q, want Okafor", name)
	}
}

// TestPreparedStatementPlanCache checks prepared statements across
// pooled connections share the engine's plan cache.
func TestPreparedStatementPlanCache(t *testing.T) {
	db := openHospital(t, "")
	stmt, err := db.Prepare(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 5; i++ {
		rows, err := stmt.Query("Sclerosis")
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		rows.Close()
	}
	// The same shape as unprepared text also hits the shared cache.
	rows, err := db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?`, "Checkup")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
}

// TestAggregateQueries drives the post-operator dialect through
// database/sql: grouped aggregates over hidden columns, ordering,
// prepared aggregate statements with HAVING parameters, and column
// type metadata for aggregate outputs.
func TestAggregateQueries(t *testing.T) {
	db := openHospital(t, "")

	// Purpose is HIDDEN; grouping happens on the secure display side.
	rows, err := db.Query(`SELECT Purpose, COUNT(*) FROM Visit GROUP BY Purpose ORDER BY COUNT(*) DESC, Purpose`)
	if err != nil {
		t.Fatal(err)
	}
	cols, _ := rows.Columns()
	if len(cols) != 2 || cols[1] != "COUNT(*)" {
		t.Fatalf("columns = %v", cols)
	}
	types, err := rows.ColumnTypes()
	if err != nil {
		t.Fatal(err)
	}
	if types[0].DatabaseTypeName() != "CHAR" || types[1].DatabaseTypeName() != "INTEGER" {
		t.Fatalf("type names = %s, %s", types[0].DatabaseTypeName(), types[1].DatabaseTypeName())
	}
	var got []string
	for rows.Next() {
		var purpose string
		var n int64
		if err := rows.Scan(&purpose, &n); err != nil {
			t.Fatal(err)
		}
		got = append(got, purpose+":"+strconv.FormatInt(n, 10))
	}
	rows.Close()
	if want := []string{"Sclerosis:2", "Checkup:1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("grouped rows = %v, want %v", got, want)
	}

	// A prepared aggregate shape with WHERE and HAVING placeholders.
	stmt, err := db.Prepare(`SELECT Doctor.Country, COUNT(*) FROM Visit, Doctor
		WHERE Visit.Date >= ? GROUP BY Doctor.Country HAVING COUNT(*) >= ? ORDER BY Doctor.Country`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for i := 0; i < 3; i++ {
		rs, err := stmt.Query(time.Date(2006, 1, 1, 0, 0, 0, 0, time.UTC), int64(2))
		if err != nil {
			t.Fatal(err)
		}
		var country string
		var n int64
		if !rs.Next() {
			t.Fatal("expected one group")
		}
		if err := rs.Scan(&country, &n); err != nil {
			t.Fatal(err)
		}
		if country != "France" || n != 2 {
			t.Fatalf("got %s:%d, want France:2", country, n)
		}
		if rs.Next() {
			t.Fatal("expected exactly one group")
		}
		rs.Close()
	}

	// A global aggregate over an empty result: COUNT is 0, MIN is NULL.
	var n int64
	var minDate any
	err = db.QueryRow(`SELECT COUNT(*), MIN(Date) FROM Visit WHERE Purpose = 'Nothing'`).Scan(&n, &minDate)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || minDate != nil {
		t.Fatalf("empty aggregate = %d, %v; want 0, NULL", n, minDate)
	}

	// DISTINCT + ORDER BY ... DESC + LIMIT through the driver.
	var name string
	err = db.QueryRow(`SELECT DISTINCT Name FROM Doctor ORDER BY Name DESC LIMIT 1`).Scan(&name)
	if err != nil {
		t.Fatal(err)
	}
	if name != "Gall" {
		t.Fatalf("name = %q, want Gall", name)
	}
}
