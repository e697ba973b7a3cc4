package ghostdb_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// TestPublicAPIQuickstart exercises the façade exactly as the package
// documentation advertises.
func TestPublicAPIQuickstart(t *testing.T) {
	db, err := ghostdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	err = db.ExecScript(`
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
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc
		WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France' AND Vis.DocID = Doc.DocID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "Ellis" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Report.TotalTime <= 0 {
		t.Error("no simulated time")
	}
}

// TestPublicAPIOptionsAndDataset exercises profile options and the
// dataset generator through the façade.
func TestPublicAPIOptionsAndDataset(t *testing.T) {
	if ghostdb.PaperScale().Prescriptions != 1_000_000 {
		t.Error("paper scale must be one million prescriptions")
	}
	ds := ghostdb.GenerateDataset(ghostdb.ScaleOf(600))
	db, err := ghostdb.Open(
		ghostdb.WithProfile(ghostdb.SmartUSB2007()),
		ghostdb.WithUSB(ghostdb.USBHighSpeed()),
		ghostdb.WithCapture(ghostdb.CaptureFull),
		ghostdb.WithTargetFPR(0.02),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no sclerosis visits at tiny scale")
	}
	leaks := trace.Audit(db.Recorder().Events(), db.HiddenValues().Contains)
	if len(leaks) != 0 {
		t.Fatalf("leak: %v", leaks[0])
	}
}

// TestPublicAPIPlans exercises plan enumeration and forced plans.
func TestPublicAPIPlans(t *testing.T) {
	db, err := ghostdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(ghostdb.GenerateDataset(ghostdb.ScaleOf(600))); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > 05-11-2006 AND Vis.Purpose = 'Sclerosis'`
	q, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	specs := db.Plans(q)
	if len(specs) < 2 {
		t.Fatalf("%d plans", len(specs))
	}
	baselineRows := -1
	for _, spec := range specs {
		res, err := db.Query(query, ghostdb.WithSpec(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Label, err)
		}
		if baselineRows == -1 {
			baselineRows = len(res.Rows)
		} else if baselineRows != len(res.Rows) {
			t.Errorf("plan %s disagrees", spec.Label)
		}
	}
	text := db.Explain(q, specs[0])
	if !strings.Contains(text, "Prescription") {
		t.Errorf("explain = %q", text)
	}
}

// TestPublicAPIOptionsForward checks that the façade's options set the
// core option of the same meaning, and that WithContext's context
// reaches the run.
func TestPublicAPIOptionsForward(t *testing.T) {
	var o core.Options
	for _, opt := range []ghostdb.Option{
		ghostdb.WithDeviceIndex("Doctor", "Country"),
		ghostdb.WithPlanCacheSize(7),
		ghostdb.WithDegradedReads(true),
	} {
		opt(&o)
	}
	if !slices.Equal(o.DeviceIndexes, []string{"Doctor.Country"}) || o.PlanCacheSize != 7 || !o.DegradedReads {
		t.Fatalf("options = %+v", o)
	}

	db, err := ghostdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadDataset(ghostdb.GenerateDataset(ghostdb.ScaleOf(600))); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`, ghostdb.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("query under a canceled context: err = %v, want context.Canceled", err)
	}
}
