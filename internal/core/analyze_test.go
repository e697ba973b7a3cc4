package core

import (
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
)

func TestIsExplain(t *testing.T) {
	yes := []string{
		"EXPLAIN SELECT 1",
		"explain analyze select Vis.VisID from Visit Vis",
		"  \n\tExPlAiN SELECT x FROM y",
		"explain",
	}
	no := []string{
		"SELECT 1",
		"explaining FROM y",
		"EXPLAIN2 SELECT",
		"",
		"   ",
	}
	for _, s := range yes {
		if !isExplain(s) {
			t.Errorf("isExplain(%q) = false, want true", s)
		}
	}
	for _, s := range no {
		if isExplain(s) {
			t.Errorf("isExplain(%q) = true, want false", s)
		}
	}
}

func TestExplainStatement(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()

	res, err := db.Query("EXPLAIN " + paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", res.Columns)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].Str())
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"EXPLAIN", "plan ", "query root:", "estimated:"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, out)
		}
	}
	// Plain EXPLAIN must not execute: the operator table and the actual
	// summary only appear under ANALYZE.
	if strings.Contains(out, "actual:") {
		t.Errorf("EXPLAIN (no ANALYZE) rendered actuals:\n%s", out)
	}
}

func TestExplainAnalyzeStatement(t *testing.T) {
	db, orc, _ := loadTiny(t)
	defer db.Close()
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	res, err := sess.Query("EXPLAIN ANALYZE " + paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, r := range res.Rows {
		text.WriteString(r[0].Str())
		text.WriteByte('\n')
	}
	out := text.String()
	for _, want := range []string{"EXPLAIN ANALYZE", "operator", "est", "actual:", "Project"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}

	// The analyzed row count must match the oracle.
	_, wantRows, err := orc.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.ResultRows != len(wantRows) {
		t.Fatalf("EXPLAIN ANALYZE report rows = %+v, oracle %d", res.Report, len(wantRows))
	}
}

func TestExplainAnalyzeParamsRejected(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()
	_, err := db.Query("EXPLAIN SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?")
	if err == nil || !strings.Contains(err.Error(), "unbound parameters") {
		t.Fatalf("err = %v, want unbound-parameters error", err)
	}
}

// TestExplainAnalyzeOracleDifferential is the acceptance check: on the
// randomized SPJ corpus, the actual per-operator cardinalities of
// EXPLAIN ANALYZE must match the oracle's tuple counts — the base
// pipeline's Project output (plus any DeltaScan output) equals the
// oracle's base row count, and the result cardinality equals the
// oracle's result row count.
func TestExplainAnalyzeOracleDifferential(t *testing.T) {
	db, orc, ds := loadTiny(t)
	defer db.Close()
	g := &queryGen{rng: rand.New(rand.NewSource(31)), ds: ds}

	iterations := 300
	if testing.Short() {
		iterations = 40
	}
	for i := 0; i < iterations; i++ {
		sqlText := g.next()
		a, err := db.ExplainAnalyze(sqlText)
		if err != nil {
			t.Fatalf("explain analyze %d %q: %v", i, sqlText, err)
		}
		_, baseRows, err := orc.QueryBase(sqlText)
		if err != nil {
			t.Fatalf("oracle base %d %q: %v", i, sqlText, err)
		}
		_, wantRows, err := orc.Query(sqlText)
		if err != nil {
			t.Fatalf("oracle %d %q: %v", i, sqlText, err)
		}

		var pipelineOut int64
		var sawProject, sawEstimate bool
		for _, op := range a.Ops {
			switch op.Name {
			case "Project":
				pipelineOut += op.TuplesOut
				sawProject = true
			case "DeltaScan":
				pipelineOut += op.TuplesOut
			}
			if op.EstRows >= 0 {
				sawEstimate = true
			}
		}
		if !sawProject {
			t.Fatalf("query %d %q: no Project operator in %v", i, sqlText, a.Ops)
		}
		if !sawEstimate {
			t.Fatalf("query %d %q: no operator carries an estimate", i, sqlText)
		}
		if pipelineOut != int64(len(baseRows)) {
			t.Fatalf("query %d %q / %s: pipeline out %d tuples, oracle base %d",
				i, sqlText, a.Spec.Label, pipelineOut, len(baseRows))
		}
		if a.Result.Report.ResultRows != len(wantRows) {
			t.Fatalf("query %d %q: %d result rows, oracle %d",
				i, sqlText, a.Result.Report.ResultRows, len(wantRows))
		}
		if a.Cards.Candidates < 1 || a.Cards.Survivors < 1 {
			t.Fatalf("query %d %q: degenerate estimates %+v", i, sqlText, a.Cards)
		}
	}
}

// TestExplainProbeLatchesDeadDevice: EXPLAIN ANALYZE's statistics probe
// reads the device, so a power cut inside it must latch like one during
// execution, and the next query must fail fast with the terminal error.
func TestExplainProbeLatchesDeadDevice(t *testing.T) {
	const q = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	// Count the device ops the probe of the indexed hidden predicate
	// consumes on its own: an empty plan injects nothing but counts.
	counter, _, _ := loadTiny(t, WithFaultPlan(&fault.Plan{}))
	bound, err := counter.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := counter.Estimate(bound, counter.Plans(bound)[0]); err != nil {
		t.Fatal(err)
	}
	probeOps := counter.shards.engines[0].inj.Ops()
	if probeOps == 0 {
		t.Fatal("the statistics probe read no flash page: there is nothing to cut")
	}

	db, _, _ := loadTiny(t, WithFaultPlan(&fault.Plan{CutAtOp: probeOps}))
	if _, err := db.Query("EXPLAIN ANALYZE " + q); !IsDeviceDead(err) {
		t.Fatalf("EXPLAIN ANALYZE across a power cut in its probe: %v", err)
	}
	fatal := db.FatalError()
	if fatal == nil {
		t.Fatal("a power cut inside EXPLAIN's statistics probe did not latch")
	}
	if _, err := db.Query(q); !errors.Is(err, fatal) {
		t.Fatalf("the next query: %v, want the latched %v", err, fatal)
	}
}

func TestQueryContextCancellation(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sess.Query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'",
		WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	snap := db.MetricsSnapshot()
	if v, ok := snap.Get("queries_canceled_total"); !ok || v.Value != 1 {
		t.Fatalf("queries_canceled_total = %+v, want 1", v)
	}

	// A live context must not interfere.
	res, err := sess.Query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'",
		WithContext(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("expected rows")
	}
}

func TestExecutorHonorsDeadline(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()

	// An already-expired deadline surfaces as DeadlineExceeded, from
	// whichever batch boundary sees it first.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := db.Query("SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'",
		WithContext(ctx))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueryHooks(t *testing.T) {
	var events []QueryEvent
	db, _, _ := loadTiny(t, WithQueryHook(func(ev QueryEvent) {
		events = append(events, ev)
	}))
	defer db.Close()

	const q = "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'"
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want start+finish", len(events))
	}
	if events[0].Phase != QueryStart || events[1].Phase != QueryFinish {
		t.Fatalf("phases = %v, %v", events[0].Phase, events[1].Phase)
	}
	if events[1].Rows != len(res.Rows) || events[1].PlanLabel == "" || events[1].Sim <= 0 {
		t.Fatalf("finish event = %+v", events[1])
	}

	// Cancellation surfaces as an error-phase event.
	events = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _ = db.Query(q, WithContext(ctx))
	if len(events) != 2 || events[1].Phase != QueryError || !errors.Is(events[1].Err, context.Canceled) {
		t.Fatalf("events = %+v, want start+error(canceled)", events)
	}
}

// TestMetricsFeed drives queries, DML, and a checkpoint through one DB
// and checks that every engine counter the registry advertises actually
// moves.
func TestMetricsFeed(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()

	const q = "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'"
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.Exec(`DELETE FROM Prescription WHERE Quantity > 50`); err != nil || n == 0 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	if _, err := db.Query(q); err != nil { // probes tombstones against the delta
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.CheckpointsRun(); got != 1 {
		t.Fatalf("CheckpointsRun = %d, want 1", got)
	}

	snap := db.MetricsSnapshot()
	want := map[string]int64{
		"queries_total":           4,
		"dml_statements_total":    1,
		"checkpoints_total":       1,
		"plan_cache_misses_total": 1, // first compilation of the SELECT
		"plan_cache_hits_total":   3, // its three repeats
	}
	for name, wantV := range want {
		v, ok := snap.Get(name)
		if !ok || v.Value != wantV {
			t.Errorf("%s = %+v, want %d", name, v, wantV)
		}
	}
	for _, positive := range []string{
		"rows_returned_total", "rows_affected_total", "batches_pulled_total",
		"flash_page_reads_total", "bus_bytes_total", "ram_high_water_bytes",
		"tombstone_probes_total",
	} {
		v, ok := snap.Get(positive)
		if !ok || v.Value <= 0 {
			t.Errorf("%s = %+v, want > 0", positive, v)
		}
	}
	for _, hist := range []struct {
		name  string
		count int64
	}{
		{"query_wall_ns", 4},
		{"query_sim_ns", 4},
		{"checkpoint_wall_ns", 1},
		{"checkpoint_prepare_wall_ns", 1},
		{"checkpoint_rebuild_wall_ns", 1},
		{"checkpoint_rebuild_columns_wall_ns", 1}, // the bulk load's rebuild is not observed
		{"checkpoint_rebuild_skt_wall_ns", 1},
		{"checkpoint_rebuild_climbing_wall_ns", 1},
		{"checkpoint_commit_wall_ns", 1},
		{"checkpoint_sim_ns", 1},
	} {
		v, ok := snap.Get(hist.name)
		if !ok || v.Hist == nil || v.Hist.Count != hist.count {
			t.Errorf("%s = %+v, want histogram count %d", hist.name, v, hist.count)
		}
	}
	// After CHECKPOINT the delta gauges drop back to zero.
	for _, zero := range []string{"delta_rows", "delta_tombstones", "delta_device_bytes"} {
		v, ok := snap.Get(zero)
		if !ok || v.Value != 0 {
			t.Errorf("%s = %+v, want 0 after checkpoint", zero, v)
		}
	}

	// Session registries attribute only their own traffic.
	sess, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(q); err != nil {
		t.Fatal(err)
	}
	sSnap := sess.MetricsSnapshot()
	if v, ok := sSnap.Get("queries_total"); !ok || v.Value != 1 {
		t.Fatalf("session queries_total = %+v, want 1", v)
	}
	if v, ok := db.MetricsSnapshot().Get("queries_total"); !ok || v.Value != 5 {
		t.Fatalf("db queries_total = %+v, want 5", v)
	}
}

// TestSlowQueryThreshold checks the built-in slow-query accounting: with
// a zero-distance threshold every query is slow; the counter and the
// structured log line both fire.
func TestSlowQueryThreshold(t *testing.T) {
	var buf strings.Builder
	lg := slog.New(slog.NewTextHandler(&buf, nil))
	db, _, _ := loadTiny(t, WithSlowQuery(time.Nanosecond, lg))
	defer db.Close()

	const q = "SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	if v, ok := db.MetricsSnapshot().Get("slow_queries_total"); !ok || v.Value != 1 {
		t.Fatalf("slow_queries_total = %+v, want 1", v)
	}
	if out := buf.String(); !strings.Contains(out, "ghostdb slow query") || !strings.Contains(out, "Sclerosis") {
		t.Fatalf("slow-query log missing expected fields:\n%s", out)
	}
}

// TestCheckpointPhaseMetrics checks that the three CHECKPOINT phase
// histograms partition the total: over a few checkpoints of a single
// device, prepare + rebuild + commit add up to checkpoint_wall_ns to the
// nanosecond — the phases abut, from the CHECKPOINT's start to the end of
// the device's commit, and the total spans exactly that.
func TestCheckpointPhaseMetrics(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()
	const rounds = 3
	for r := 0; r < rounds; r++ {
		if n, err := db.Exec(`DELETE FROM Prescription WHERE PreID BETWEEN 1 AND 20`); err != nil || n == 0 {
			t.Fatalf("round %d delete: n=%d err=%v", r, n, err)
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.MetricsSnapshot()
	sum := func(name string) int64 {
		v, ok := snap.Get(name)
		if !ok || v.Hist == nil || v.Hist.Count != rounds {
			t.Fatalf("%s = %+v, want a histogram of %d samples", name, v, rounds)
		}
		return v.Hist.Sum
	}
	total := sum("checkpoint_wall_ns")
	phases := sum("checkpoint_prepare_wall_ns") + sum("checkpoint_rebuild_wall_ns") + sum("checkpoint_commit_wall_ns")
	if phases != total {
		t.Fatalf("phases sum to %d ns of a %d ns total", phases, total)
	}
	// The rebuild phase attributes itself: its three sub-phases are inside
	// it (the half swap and the delta release are the rest).
	rebuild := sum("checkpoint_rebuild_wall_ns")
	parts := sum("checkpoint_rebuild_columns_wall_ns") + sum("checkpoint_rebuild_skt_wall_ns") + sum("checkpoint_rebuild_climbing_wall_ns")
	if parts <= 0 || parts > rebuild {
		t.Fatalf("rebuild sub-phases sum to %d ns of a %d ns rebuild", parts, rebuild)
	}
}
