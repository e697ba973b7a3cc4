package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/plan"
)

// TestScratchExhaustionFailsCleanly forces the translation machinery to
// spill more than the scratch space holds: the query must fail with the
// flash-full error (no panic) and the database must stay usable.
func TestScratchExhaustionFailsCleanly(t *testing.T) {
	prof := device.SmartUSB2007()
	prof.ScratchBlocks = 1 // one 128KB erase block of scratch
	db, err := Open(WithProfile(prof))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDataset(datagen.Generate(datagen.WithScale(60_000))); err != nil {
		t.Fatal(err)
	}
	// An unselective pre-filtered date predicate translates ~48K visit
	// IDs into ~480K prescription IDs of spill runs: far beyond 128KB.
	q, err := db.Prepare(`SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > '2004-06-01' AND Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec{Label: "force-pre",
		Strategies: []plan.Strategy{plan.StratVisPre, plan.StratHidIndex}}
	_, err = db.QueryWithPlan(q, spec)
	if err == nil {
		t.Fatal("expected scratch exhaustion")
	}
	if !errors.Is(err, flash.ErrSpaceFull) && !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The engine must have reset the scratch space; a cheap query still
	// works.
	res, err := db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis' AND Vis.Date > '2007-06-01'`)
	if err != nil {
		t.Fatalf("database unusable after exhaustion: %v", err)
	}
	if res.Report.TotalTime <= 0 {
		t.Error("no time charged on the recovery query")
	}
}

// TestRAMBudgetNeverExceededUnderPressure sweeps tight budgets over the
// demo query's plans: every run must either succeed within its budget or
// fail with the budget error — never exceed it.
func TestRAMBudgetNeverExceededUnderPressure(t *testing.T) {
	for _, budget := range []int{12 << 10, 16 << 10, 24 << 10} {
		prof := device.SmartUSB2007().WithRAM(budget)
		prof.CacheFrames = 2
		db, err := Open(WithProfile(prof))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadDataset(datagen.Generate(datagen.Tiny())); err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare(paperQuery)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range db.Plans(q) {
			res, err := db.QueryWithPlan(q, spec)
			if err != nil {
				t.Fatalf("budget %d / %s: %v", budget, spec.Label, err)
			}
			if res.Report.RAMHigh > int64(budget) {
				t.Errorf("budget %d / %s: peak %d", budget, spec.Label, res.Report.RAMHigh)
			}
		}
	}
}

// TestDeterministicReplay runs the same query twice and expects identical
// simulated times, flash counters and results — the property the whole
// experimental methodology rests on.
func TestDeterministicReplay(t *testing.T) {
	db, _, _ := loadTiny(t)
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	spec := db.Plans(q)[0]
	a, err := db.QueryWithPlan(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.QueryWithPlan(q, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.TotalTime != b.Report.TotalTime {
		t.Errorf("times differ: %v vs %v", a.Report.TotalTime, b.Report.TotalTime)
	}
	if a.Report.Flash != b.Report.Flash {
		t.Errorf("flash stats differ: %+v vs %+v", a.Report.Flash, b.Report.Flash)
	}
	if !sameRows(a.Rows, b.Rows) {
		t.Error("results differ across replays")
	}
	// And across a fresh, identically-seeded database.
	db2, _, _ := loadTiny(t)
	q2, err := db2.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db2.QueryWithPlan(q2, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.TotalTime != c.Report.TotalTime {
		t.Errorf("cross-instance times differ: %v vs %v", a.Report.TotalTime, c.Report.TotalTime)
	}
}

// TestPrunedQuerySurvivesDeadShardElsewhere: a root-rooted query needs
// the shards that can hold its rows, not all of them. With one device
// dead, a lookup whose key lives on a healthy device still answers; one
// whose key lives on the dead device, or that has no key to route by,
// fails fast naming it.
func TestPrunedQuerySurvivesDeadShardElsewhere(t *testing.T) {
	kill := &fault.Plan{CutAtOp: 1}
	kill.SetShard(2)
	db, _, _ := loadShardedTiny(t, 4, WithFaultPlan(kill))
	single, _, _ := loadTiny(t)
	ss := &db.shards

	const scan = `SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity > 20`
	if _, err := db.Query(scan); err == nil {
		t.Fatal("a full scatter over a dying shard succeeded")
	}
	if ss.engines[2].fatalError() == nil {
		t.Fatal("the power cut on shard 2 did not latch")
	}
	for key := 1; key <= 8; key++ {
		q := fmt.Sprintf(`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = %d`, key)
		res, err := db.Query(q)
		if owner := int(ss.roots.shardOf(int64(key))); owner == 2 {
			if err == nil || !strings.Contains(err.Error(), "shard 2 unavailable") {
				t.Fatalf("%s (owned by the dead shard): %v", q, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s (owned by a healthy shard): %v", q, err)
		}
		want, err := single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(res.Rows, want.Rows) || len(res.Rows) != 1 {
			t.Fatalf("%s: %v, single device %v", q, res.Rows, want.Rows)
		}
	}
	// A key nobody owns needs no device at all.
	if res, err := db.Query(`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID = 0`); err != nil || len(res.Rows) != 0 {
		t.Fatalf("a lookup no shard can answer: %v, %v", res, err)
	}
	if _, err := db.Query(scan); err == nil || !strings.Contains(err.Error(), "shard 2 unavailable") {
		t.Fatalf("a full scatter with shard 2 dead: %v", err)
	}
}

// TestMergedPlanComesFromFirstContactedShard: the merged report's plan
// label and spec describe a plan that ran — the first contacted shard's —
// not shard 0's when shard 0 was pruned.
func TestMergedPlanComesFromFirstContactedShard(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 4)
	ss := &db.shards
	// Keys 2 and 4 live on shards 1 and 3 of the round-robin split.
	const q = `SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID IN (2, 4) AND Pre.Quantity >= 0`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	cq, err := db.compileCached(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	cp := ss.planOnce(cq, db.sch.Root())
	if cp.kids[0].chosen != nil {
		t.Fatal("shard 0 owns neither key yet chose a plan: it was contacted")
	}
	// Give the uncontacted shard a choice nobody else made.
	other := cp.kids[1].chosen.Clone()
	other.Label = "shard0-only"
	cp.kids[0].chosen = &other

	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardReports[0] != nil || res.ShardReports[1] == nil || res.ShardReports[3] == nil {
		t.Fatalf("contacted shards: %v", res.ShardReports)
	}
	if want := res.ShardReports[1].PlanLabel; res.Report.PlanLabel != want || res.Spec.Label != want || want == "shard0-only" {
		t.Fatalf("merged plan %q / spec %q, first contacted shard ran %q", res.Report.PlanLabel, res.Spec.Label, want)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %v", res.Rows)
	}
}
