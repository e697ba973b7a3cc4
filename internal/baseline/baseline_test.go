package baseline_test

import (
	"reflect"
	"testing"

	"github.com/ghostdb/ghostdb/internal/baseline"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

func loadTiny(t *testing.T) *core.DB {
	t.Helper()
	db, err := core.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(datagen.Generate(datagen.Tiny())); err != nil {
		t.Fatal(err)
	}
	return db
}

// demoQuery is the paper's query as a baseline workload.
func demoQuery() baseline.Query {
	return baseline.Query{
		Root: "Prescription",
		Preds: []baseline.Pred{
			{Table: "Visit", Column: "Date", P: pred.Compare(sql.OpGt, value.NewDate(2006, 11, 5))},
			{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpEq, value.NewString("Sclerosis")), Hidden: true},
			{Table: "Medicine", Column: "Type", P: pred.Compare(sql.OpEq, value.NewString("Antibiotic"))},
		},
	}
}

// engineRootIDs runs the equivalent SQL on the real engine and returns
// the matching root IDs.
func engineRootIDs(t *testing.T, db *core.DB) []uint32 {
	t.Helper()
	res, err := db.Query(`SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Medicine Med
		WHERE Vis.Date > 05-11-2006 AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic'`)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint32, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = uint32(r[0].Int())
	}
	return out
}

func TestBaselinesMatchEngine(t *testing.T) {
	db := loadTiny(t)
	want := engineRootIDs(t, db)
	if len(want) == 0 {
		t.Fatal("demo query empty at tiny scale")
	}
	be := db.BaselineEngine()
	for _, alg := range []baseline.Algorithm{baseline.BNL, baseline.GraceHash, baseline.JoinIndex} {
		got, rep, err := be.Run(demoQuery(), alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: %d ids, engine %d", alg, len(got), len(want))
		}
		if rep.TotalTime <= 0 {
			t.Errorf("%v: no simulated time", alg)
		}
		if rep.RAMHigh > db.Device().RAM.Budget() {
			t.Errorf("%v: RAM %d over budget", alg, rep.RAMHigh)
		}
	}
}

func TestBaselinesSlowerThanEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("scale comparison skipped in -short mode")
	}
	db, err := core.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(datagen.Generate(datagen.WithScale(100_000))); err != nil {
		t.Fatal(err)
	}
	be := db.BaselineEngine()

	// Deep query (Doctor is two hops from the root): the FK-chasing
	// baselines pay random flash reads per candidate row and re-scan
	// or re-partition per chunk — the paper's "unacceptable
	// performance with last resort join algorithms".
	res, err := db.Query(`SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Doctor Doc
		WHERE Doc.Country = 'Spain' AND Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	engineTime := res.Report.TotalTime
	deep := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Doctor", Column: "Country", P: pred.Compare(sql.OpEq, value.NewString("Spain"))},
		{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpEq, value.NewString("Sclerosis")), Hidden: true},
	}}
	for _, alg := range []baseline.Algorithm{baseline.BNL, baseline.GraceHash} {
		ids, rep, err := be.Run(deep, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(ids) != len(res.Rows) {
			t.Fatalf("%v disagrees: %d vs %d", alg, len(ids), len(res.Rows))
		}
		if rep.TotalTime < 2*engineTime {
			t.Errorf("%v took %v, engine %v: expected a clear gap",
				alg, rep.TotalTime, engineTime)
		}
		t.Logf("%v: %v vs engine %v (%.1fx)", alg, rep.TotalTime, engineTime,
			float64(rep.TotalTime)/float64(engineTime))
	}

	// Join indices vs climbing indexes: a single deep hidden predicate
	// is where the precomputed transitive lists shine — the climbing
	// index reaches the root in one step while join indices pay one
	// translation (with a materialized run) per edge.
	res2, err := db.Query(`SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Patient Pat
		WHERE Pat.BodyMassIndex > 40`)
	if err != nil {
		t.Fatal(err)
	}
	bmi := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Patient", Column: "BodyMassIndex", P: pred.Compare(sql.OpGt, value.NewInt(40)), Hidden: true},
	}}
	ids, rep, err := be.Run(bmi, baseline.JoinIndex)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(res2.Rows) {
		t.Fatalf("join-index disagrees: %d vs %d", len(ids), len(res2.Rows))
	}
	t.Logf("join-index: %v vs engine %v (%.1fx)", rep.TotalTime, res2.Report.TotalTime,
		float64(rep.TotalTime)/float64(res2.Report.TotalTime))
	if rep.TotalTime <= res2.Report.TotalTime {
		t.Errorf("join-index %v beat the climbing index %v", rep.TotalTime, res2.Report.TotalTime)
	}
}

func TestBaselineErrors(t *testing.T) {
	db := loadTiny(t)
	be := db.BaselineEngine()
	if _, _, err := be.Run(baseline.Query{Root: "Ghost"}, baseline.BNL); err == nil {
		t.Error("unknown root accepted")
	}
	badTable := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Ghost", Column: "X", P: pred.Compare(sql.OpEq, value.NewInt(1))}}}
	if _, _, err := be.Run(badTable, baseline.BNL); err == nil {
		t.Error("unknown pred table accepted")
	}
	badCol := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Visit", Column: "Nope", P: pred.Compare(sql.OpEq, value.NewInt(1)), Hidden: true}}}
	if _, _, err := be.Run(badCol, baseline.BNL); err == nil {
		t.Error("unknown hidden column accepted")
	}
	// A predicate on a table outside the root's subtree.
	outside := baseline.Query{Root: "Visit", Preds: []baseline.Pred{
		{Table: "Medicine", Column: "Type", P: pred.Compare(sql.OpEq, value.NewString("x"))}}}
	if _, _, err := be.Run(outside, baseline.BNL); err == nil {
		t.Error("out-of-subtree predicate accepted")
	}
}

func TestBaselineRootOnlyQuery(t *testing.T) {
	db := loadTiny(t)
	be := db.BaselineEngine()
	q := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Prescription", Column: "Quantity", P: pred.Compare(sql.OpLe, value.NewInt(10)), Hidden: true}}}
	res, err := db.Query(`SELECT PreID FROM Prescription WHERE Quantity <= 10`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []baseline.Algorithm{baseline.BNL, baseline.GraceHash, baseline.JoinIndex} {
		got, _, err := be.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != len(res.Rows) {
			t.Errorf("%v: %d ids, engine %d", alg, len(got), len(res.Rows))
		}
	}
}

func TestBaselineMultiplePredsPerTable(t *testing.T) {
	db := loadTiny(t)
	be := db.BaselineEngine()
	q := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Visit", Column: "Date", P: pred.Compare(sql.OpGt, value.NewDate(2005, 1, 1))},
		{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpNe, value.NewString("Sclerosis")), Hidden: true},
	}}
	res, err := db.Query(`SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > 2005-01-01 AND Vis.Purpose <> 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []baseline.Algorithm{baseline.BNL, baseline.JoinIndex} {
		got, _, err := be.Run(q, alg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(got) != len(res.Rows) {
			t.Errorf("%v: %d ids, engine %d", alg, len(got), len(res.Rows))
		}
	}
}

// TestBaselineRunReleasesRAM: a baseline run shares the device arena with
// db.Query, so it must hand back every grant it took — also when it fails
// for lack of RAM, which on these devices most runs do. A leaked page
// buffer would fail the runs and queries after it at their first
// allocation.
func TestBaselineRunReleasesRAM(t *testing.T) {
	const probe = `SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	multi := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Visit", Column: "Date", P: pred.Compare(sql.OpGt, value.NewDate(2005, 1, 1))},
		{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpNe, value.NewString("Sclerosis")), Hidden: true},
		{Table: "Prescription", Column: "Quantity", P: pred.Compare(sql.OpLe, value.NewInt(40)), Hidden: true},
		{Table: "Doctor", Column: "Country", P: pred.Compare(sql.OpEq, value.NewString("Spain"))},
	}}
	ds := datagen.Generate(datagen.Tiny())
	open := func(kb int) *core.DB {
		prof := device.SmartUSB2007().WithRAM(kb << 10)
		prof.CacheFrames = 2
		db, err := core.Open(core.WithProfile(prof))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadDataset(ds); err != nil {
			t.Fatal(err)
		}
		return db
	}
	failed := 0
	for _, kb := range []int{6, 8, 10, 12, 16} {
		_, freshErr := open(kb).Query(probe)
		db := open(kb)
		be := db.BaselineEngine()
		for qi, q := range []baseline.Query{demoQuery(), multi} {
			for _, alg := range []baseline.Algorithm{baseline.Climbing, baseline.JoinIndex, baseline.BNL, baseline.GraceHash} {
				before := db.Device().RAM.Used()
				_, _, err := be.Run(q, alg)
				if err != nil {
					failed++
				}
				if after := db.Device().RAM.Used(); after != before {
					t.Errorf("%dKB query %d %v (err: %v): arena holds %d bytes after the run, %d before it",
						kb, qi, alg, err, after, before)
				}
			}
		}
		if _, err := db.Query(probe); (err == nil) != (freshErr == nil) {
			t.Errorf("%dKB: query after the baselines: %v; on a fresh device: %v", kb, err, freshErr)
		}
	}
	if failed == 0 {
		t.Error("no run failed: the error paths were not exercised")
	}
}
