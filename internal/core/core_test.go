package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// paperQuery is the demo query from Section 4, verbatim.
const paperQuery = `SELECT
	Med.Name, Pre.Quantity, Vis.Date
	FROM Medicine Med, Prescription Pre, Visit Vis
	WHERE
	Vis.Date > 05-11-2006 /*VISIBLE*/
	AND Vis.Purpose = "Sclerosis" /*HIDDEN*/
	AND Med.Type = "Antibiotic"  /*VISIBLE*/
	AND Med.MedID = Pre.MedID
	AND Vis.VisID = Pre.VisID;`

// loadTiny opens a DB with the tiny synthetic dataset and a matching
// oracle.
func loadTiny(t *testing.T, opts ...Option) (*DB, *oracle.Oracle, *datagen.Dataset) {
	t.Helper()
	ds := datagen.Generate(datagen.Tiny())
	db, err := Open(append(testBackendOptions(t), opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}
	cols := map[string][][]value.Value{}
	for _, name := range ds.TableNames() {
		cols[name] = ds.Table(name).Cols
	}
	orc, err := oracle.New(db.Schema(), cols)
	if err != nil {
		t.Fatal(err)
	}
	return db, orc, ds
}

func sameRows(a, b [][]value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func checkAgainstOracle(t *testing.T, db *DB, orc *oracle.Oracle, sqlText string) *Result {
	t.Helper()
	wantCols, wantRows, err := orc.Query(sqlText)
	if err != nil {
		t.Fatalf("oracle(%s): %v", sqlText, err)
	}
	res, err := db.Query(sqlText)
	if err != nil {
		t.Fatalf("engine(%s): %v", sqlText, err)
	}
	if !reflect.DeepEqual(res.Columns, wantCols) {
		t.Fatalf("columns = %v, want %v", res.Columns, wantCols)
	}
	if !sameRows(res.Rows, wantRows) {
		t.Fatalf("query %s:\nplan %s\n got %d rows\nwant %d rows\nfirst got: %v\nfirst want: %v",
			sqlText, res.Spec.Label, len(res.Rows), len(wantRows), head(res.Rows), head(wantRows))
	}
	return res
}

func head(rows [][]value.Value) []value.Value {
	if len(rows) == 0 {
		return nil
	}
	return rows[0]
}

func TestPaperQueryAgainstOracle(t *testing.T) {
	db, orc, _ := loadTiny(t)
	res := checkAgainstOracle(t, db, orc, paperQuery)
	if len(res.Rows) == 0 {
		t.Fatal("paper query returned no rows on the tiny dataset; selectivities are miscalibrated")
	}
	if res.Report.TotalTime <= 0 {
		t.Error("no simulated time charged")
	}
	if res.Report.RAMHigh > db.Device().RAM.Budget() {
		t.Errorf("RAM high %d exceeds budget %d", res.Report.RAMHigh, db.Device().RAM.Budget())
	}
}

func TestPaperQueryAllPlans(t *testing.T) {
	db, orc, _ := loadTiny(t)
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantCols, wantRows, err := orc.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	specs := db.Plans(q)
	if len(specs) < 4 {
		t.Fatalf("only %d plans enumerated", len(specs))
	}
	for _, spec := range specs {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			t.Fatalf("plan %s: %v", spec.Describe(q), err)
		}
		if !reflect.DeepEqual(res.Columns, wantCols) {
			t.Fatalf("plan %s: columns %v", spec.Label, res.Columns)
		}
		if !sameRows(res.Rows, wantRows) {
			t.Errorf("plan %s (%s): %d rows, oracle %d",
				spec.Label, spec.Describe(q), len(res.Rows), len(wantRows))
		}
		if res.Report.RAMHigh > db.Device().RAM.Budget() {
			t.Errorf("plan %s: RAM %d over budget", spec.Label, res.Report.RAMHigh)
		}
	}
}

func TestQueryShapes(t *testing.T) {
	db, orc, _ := loadTiny(t)
	queries := []string{
		// Single table, hidden equality.
		`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity = 7`,
		// Single table, visible range.
		`SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.Date > 2006-06-01`,
		// Hidden range on the root.
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity BETWEEN 10 AND 20`,
		// Join without selections restricted by a hidden FK predicate.
		`SELECT Pre.PreID, Med.Name FROM Prescription Pre, Medicine Med WHERE Med.MedID = Pre.MedID AND Med.Type = 'Antibiotic'`,
		// Deep climb: doctor country up to prescriptions.
		`SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Doctor Doc WHERE Doc.Country = 'Spain' AND Vis.Purpose = 'Sclerosis'`,
		// Query root below the schema root.
		`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Doc.Speciality = 'Cardiology' AND Vis.Purpose = 'Migraine'`,
		// IN and hidden int predicates.
		`SELECT Pat.PatID, Pat.Age FROM Patient Pat WHERE Pat.Country IN ('France', 'Spain') AND Pat.BodyMassIndex > 30`,
		// Not-equal on a hidden column.
		`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose <> 'Sclerosis' AND Vis.Date > 2007-01-01`,
		// Projection of hidden FK values.
		`SELECT Vis.VisID, Vis.DocID FROM Visit Vis WHERE Vis.Date > 2007-03-01`,
		// Star.
		`SELECT * FROM Doctor WHERE Country = 'Spain'`,
		// No predicates at all (full scan of a small table).
		`SELECT Med.Name FROM Medicine Med`,
		// Unqualified column names.
		`SELECT Name FROM Doctor WHERE Speciality = 'Oncology'`,
	}
	for _, sqlText := range queries {
		checkAgainstOracle(t, db, orc, sqlText)
	}
}

func TestAllPlansAgreeOnJoins(t *testing.T) {
	db, orc, _ := loadTiny(t)
	queries := []string{
		`SELECT Pre.PreID, Vis.Date FROM Prescription Pre, Visit Vis WHERE Vis.Date > 2006-06-01 AND Pre.Quantity < 50`,
		`SELECT Pre.PreID FROM Prescription Pre, Medicine Med, Visit Vis WHERE Med.Type = 'Vaccine' AND Vis.Purpose = 'Asthma'`,
		`SELECT Vis.VisID, Pat.Age FROM Visit Vis, Patient Pat WHERE Pat.Age > 40 AND Vis.Purpose = 'Diabetes-Type1'`,
	}
	for _, sqlText := range queries {
		q, err := db.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		_, wantRows, err := orc.Query(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range db.Plans(q) {
			res, err := db.QueryWithPlan(q, spec)
			if err != nil {
				t.Fatalf("%s / %s: %v", sqlText, spec.Describe(q), err)
			}
			if !sameRows(res.Rows, wantRows) {
				t.Errorf("%s / %s: %d rows, oracle %d", sqlText, spec.Describe(q), len(res.Rows), len(wantRows))
			}
		}
	}
}

func TestOneWayFlowInvariant(t *testing.T) {
	db, _, _ := loadTiny(t, WithCapture(trace.CaptureFull))
	if _, err := db.Query(paperQuery); err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Recorder().Events() {
		if e.From == trace.Device && e.To != trace.Display {
			t.Fatalf("device sent %s to %s: one-way flow violated", e.Kind, e.To)
		}
	}
}

// TestSecurityAuditNoLeaks audits every device's wire trace — one device,
// and each of four shards — for hidden values.
func TestSecurityAuditNoLeaks(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, _ := loadShardedTiny(t, shards, WithCapture(trace.CaptureFull))
			queries := []string{
				paperQuery,
				`SELECT Pat.Name FROM Patient Pat WHERE Pat.Age > 30`,
				`SELECT Vis.Purpose, Vis.Date FROM Visit Vis WHERE Vis.Date > 2006-01-01 AND Vis.Purpose = 'Migraine'`,
			}
			for _, sqlText := range queries {
				if _, err := db.Query(sqlText); err != nil {
					t.Fatalf("%s: %v", sqlText, err)
				}
			}
			auditEveryDevice(t, db)
			// Sanity: the hidden set is non-trivial and the trace is non-trivial.
			if db.HiddenValues().Len() == 0 {
				t.Error("hidden value set empty")
			}
			for s, e := range db.shards.engines {
				if e.rec.Len() == 0 {
					t.Errorf("shard %d recorded no trace", s)
				}
			}
		})
	}
}

func TestSpySeesOnlyQueriesAndVisibleData(t *testing.T) {
	db, _, _ := loadTiny(t, WithCapture(trace.CaptureFull))
	if _, err := db.Query(paperQuery); err != nil {
		t.Fatal(err)
	}
	spy := db.Recorder().SpyView()
	if len(spy) == 0 {
		t.Fatal("spy view empty")
	}
	for _, e := range spy {
		if e.Kind == trace.KindResult {
			t.Errorf("result traffic visible to spy: %v", e)
		}
	}
}

func TestPlanReportsDiffer(t *testing.T) {
	db, _, _ := loadTiny(t)
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	specs := db.Plans(q)
	times := map[string]bool{}
	for _, spec := range specs {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			t.Fatal(err)
		}
		times[fmt.Sprint(res.Report.TotalTime)] = true
		if len(res.Report.Ops) == 0 {
			t.Errorf("plan %s has no operator stats", spec.Label)
		}
	}
	if len(times) < 2 {
		t.Error("all plans took identical simulated time; cost model degenerate")
	}
}

func TestOptimizerPicksReasonablePlan(t *testing.T) {
	db, _, _ := loadTiny(t)
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := db.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer's choice should be within 3x of the best plan found
	// by exhaustive execution.
	best := auto.Report.TotalTime
	for _, spec := range db.Plans(q) {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.TotalTime < best {
			best = res.Report.TotalTime
		}
	}
	if auto.Report.TotalTime > 3*best {
		t.Errorf("optimizer chose %v, best plan %v", auto.Report.TotalTime, best)
	}
}

func TestExecScriptSmallData(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	script := `
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1),
  (4, DATE '2006-12-24', 'Flu', 2);
`
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc
		WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'Spain' AND Vis.DocID = Doc.DocID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != value.NewInt(2) || res.Rows[0][1] != value.NewString("Gall") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestInsertValidation(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE T (ID INTEGER PRIMARY KEY, X INTEGER)`); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`INSERT INTO T VALUES (2, 10)`,    // non-dense key
		`INSERT INTO T VALUES (1)`,        // arity
		`INSERT INTO Ghost VALUES (1, 2)`, // unknown table
		`INSERT INTO T VALUES ('x', 1)`,   // key type
	}
	for _, s := range bad {
		if _, err := db.Exec(s); err == nil {
			t.Errorf("Exec(%s) accepted", s)
		}
	}
}

func TestStorageBreakdown(t *testing.T) {
	db, _, _ := loadTiny(t)
	st := db.Storage()
	if st.BaseColumns <= 0 || st.SKTs <= 0 || st.Climbing <= 0 {
		t.Errorf("storage breakdown %+v", st)
	}
	if st.Total < st.SKTs+st.Climbing {
		t.Errorf("total %d < parts", st.Total)
	}
	// The indexing model trades flash for speed: indexes should be a
	// noticeable multiple of nothing but not dwarf the data by 100x.
	if st.Climbing > 100*st.BaseColumns {
		t.Errorf("climbing indexes absurdly large: %+v", st)
	}
}

func TestQueryErrors(t *testing.T) {
	db, _, _ := loadTiny(t)
	bad := []string{
		`SELECT Nope FROM Prescription`,
		`SELECT PreID FROM Ghost`,
		`SELECT Doc.Name FROM Doctor Doc, Patient Pat`,           // sibling FROM set
		`SELECT PreID FROM Prescription WHERE Quantity = 'high'`, // type mismatch
	}
	for _, s := range bad {
		if _, err := db.Query(s); err == nil {
			t.Errorf("Query(%s) succeeded", s)
		}
	}
	unbuilt, _ := Open()
	if _, err := unbuilt.Query(`SELECT 1 FROM X`); err == nil {
		t.Error("query before Build accepted")
	}
}

func TestExplain(t *testing.T) {
	db, _, _ := loadTiny(t)
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	specs := db.Plans(q)
	text := db.Explain(q, specs[0])
	for _, want := range []string{"Visit.Purpose", "Access SKT", "query root: Prescription"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain missing %q:\n%s", want, text)
		}
	}
}
