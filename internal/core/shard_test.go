package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
)

// loadShardedTiny opens a DB split over n devices with the tiny
// synthetic dataset, plus a matching single-state oracle.
func loadShardedTiny(t *testing.T, n int, opts ...Option) (*DB, *oracle.Oracle, *datagen.Dataset) {
	t.Helper()
	return loadTiny(t, append([]Option{WithShards(n)}, opts...)...)
}

// TestShardedDifferential is the cross-shard differential property: the
// randomized query+DML corpus (plain SPJ, post-operator, CHECKPOINT
// interleavings) must match the single-state oracle exactly at every
// shard count, including after the delta has been merged and the global
// root mapping rebuilt.
func TestShardedDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, orc, ds := loadShardedTiny(t, shards)
			g := &dmlGen{
				queryGen: &queryGen{rng: rand.New(rand.NewSource(int64(101 + shards))), ds: ds},
				sch:      db.Schema(),
				orc:      orc,
			}

			iterations := 240
			if testing.Short() {
				iterations = 50
			}
			queries, mutations := 0, 0
			for i := 0; i < iterations; i++ {
				switch roll := g.rng.Intn(10); {
				case roll < 4:
					checkAgainstOracle(t, db, orc, g.next())
					queries++
				case roll < 6:
					checkAgainstOracle(t, db, orc, g.nextPostOp())
					queries++
				case roll == 9 && i%29 == 0:
					en, eerr := db.Exec("CHECKPOINT")
					on, oerr := orc.Exec("CHECKPOINT")
					if eerr != nil || oerr != nil {
						t.Fatalf("iter %d checkpoint: engine %v, oracle %v", i, eerr, oerr)
					}
					if en != on {
						t.Fatalf("iter %d checkpoint absorbed %d, oracle %d", i, en, on)
					}
				default:
					stmt := g.nextDML()
					if stmt == "" {
						continue
					}
					en, eerr := db.Exec(stmt)
					on, oerr := orc.Exec(stmt)
					if (eerr == nil) != (oerr == nil) {
						t.Fatalf("iter %d %q: engine err %v, oracle err %v", i, stmt, eerr, oerr)
					}
					if eerr != nil {
						t.Fatalf("iter %d %q: %v", i, stmt, eerr)
					}
					if en != on {
						t.Fatalf("iter %d %q: engine affected %d, oracle %d", i, stmt, en, on)
					}
					mutations++
				}
			}
			if queries < iterations/5 || mutations < iterations/5 {
				t.Fatalf("corpus degenerate: %d queries, %d mutations", queries, mutations)
			}

			// Final checkpoint and post-merge agreement.
			en, eerr := db.Checkpoint()
			on, oerr := orc.Checkpoint()
			if eerr != nil || oerr != nil || en != on {
				t.Fatalf("final checkpoint: engine (%d, %v), oracle (%d, %v)", en, eerr, on, oerr)
			}
			for i := 0; i < 15; i++ {
				checkAgainstOracle(t, db, orc, g.next())
				checkAgainstOracle(t, db, orc, g.nextPostOp())
			}
		})
	}
}

// TestShardedConcurrentQueries is the 16-goroutine torture test against
// a 4-shard DB: mixed Query / forced-plan / Estimate traffic, every
// goroutine observing the single-threaded row counts. Run with -race.
func TestShardedConcurrentQueries(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 4)

	want := map[string]int{}
	for _, q := range concurrentQueries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(res.Rows)
	}

	const goroutines = 16
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := concurrentQueries[(g+i)%len(concurrentQueries)]
				switch (g + i) % 3 {
				case 0:
					res, err := db.Query(q)
					if err != nil {
						errc <- err
						return
					}
					if len(res.Rows) != want[q] {
						errc <- fmt.Errorf("goroutine %d: %s: got %d rows, want %d", g, q, len(res.Rows), want[q])
						return
					}
				case 1:
					bound, err := db.Prepare(q)
					if err != nil {
						errc <- err
						return
					}
					specs := db.Plans(bound)
					if len(specs) == 0 {
						errc <- fmt.Errorf("goroutine %d: no plans for %s", g, q)
						return
					}
					res, err := db.QueryWithPlan(bound, specs[(g+i)%len(specs)])
					if err != nil {
						errc <- err
						return
					}
					if len(res.Rows) != want[q] {
						errc <- fmt.Errorf("goroutine %d: forced plan %s: got %d rows, want %d", g, q, len(res.Rows), want[q])
						return
					}
				case 2:
					bound, err := db.Prepare(q)
					if err != nil {
						errc <- err
						return
					}
					if _, err := db.Estimate(bound, db.Plans(bound)[0]); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestShardsOneIsLegacyEngine pins the shards=1 contract: WithShards(1)
// and a default Open are the same database — a front door over one
// engine, which ShardCount and ShardInfos report — and their queries are
// bit-identical: same rows, same simulated time, same flash and bus work.
// TestSingleDeviceGolden holds that one engine to what the single-device
// engine showed before it had a front door.
func TestShardsOneIsLegacyEngine(t *testing.T) {
	single, _, _ := loadTiny(t)
	one, _, _ := loadShardedTiny(t, 1)

	// Every database is a front door over its engines: one here, and the
	// one entry ShardInfos reports describes that device.
	for _, db := range []*DB{single, one} {
		if db.ShardCount() != 1 {
			t.Fatalf("ShardCount of a single-device database = %d, want 1", db.ShardCount())
		}
		infos := db.ShardInfos()
		if len(infos) != 1 || len(db.ShardMetrics()) != 1 {
			t.Fatalf("ShardInfos = %+v and %d ShardMetrics, want one device", infos, len(db.ShardMetrics()))
		}
		if in := infos[0]; in.Shard != 0 || in.RootRows != db.RowCount("Prescription") || in.SimTime != db.Clock().Now() || in.Storage != db.Storage() {
			t.Fatalf("ShardInfos[0] = %+v, want the database's own device", in)
		}
	}

	for _, q := range append([]string{paperQuery}, concurrentQueries...) {
		a, err := single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := one.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Columns, b.Columns) || !sameRows(a.Rows, b.Rows) {
			t.Fatalf("%s: shards=1 result differs from single-device", q)
		}
		if a.Report.TotalTime != b.Report.TotalTime ||
			a.Report.Flash != b.Report.Flash ||
			a.Report.BusBytes != b.Report.BusBytes ||
			a.Report.BusMsgs != b.Report.BusMsgs {
			t.Fatalf("%s: shards=1 report differs: %+v vs %+v", q, b.Report, a.Report)
		}
	}
}

// TestShardedReportMerge checks the merged report's cost semantics on a
// scatter query: per-shard reports are surfaced, the reported simulated
// time is the max over the shards (the devices run concurrently), and
// the flash/bus work is the sum.
func TestShardedReportMerge(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 4)
	res, err := db.Query(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ShardReports) != 4 {
		t.Fatalf("ShardReports = %d entries, want 4", len(res.ShardReports))
	}
	var maxTime, sumReads, sumBus = res.Report.TotalTime, int64(0), int64(0)
	sawMax := false
	for s, r := range res.ShardReports {
		if r == nil {
			t.Fatalf("shard %d report missing", s)
		}
		if r.TotalTime > maxTime {
			t.Fatalf("shard %d sim time %v exceeds merged max %v", s, r.TotalTime, maxTime)
		}
		if r.TotalTime == maxTime {
			sawMax = true
		}
		sumReads += r.Flash.PageReads
		sumBus += r.BusBytes
	}
	if !sawMax {
		t.Fatalf("merged TotalTime %v matches no shard", maxTime)
	}
	if res.Report.Flash.PageReads != sumReads {
		t.Fatalf("merged PageReads %d, want per-shard sum %d", res.Report.Flash.PageReads, sumReads)
	}
	if res.Report.BusBytes != sumBus {
		t.Fatalf("merged BusBytes %d, want per-shard sum %d", res.Report.BusBytes, sumBus)
	}
}

// TestShardClockArenaIsolation is the refactor's sharing audit pinned as
// a regression test: every shard owns its clock and RAM arena. Scatter
// queries advance each shard's clock independently (the front door owns
// no device of its own), and no query-time arena grant leaks on any
// shard.
func TestShardClockArenaIsolation(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 4)
	for i := 0; i < 3; i++ {
		if _, err := db.Query(paperQuery); err != nil {
			t.Fatal(err)
		}
	}

	infos := db.ShardInfos()
	if len(infos) != 4 {
		t.Fatalf("ShardInfos = %d entries, want 4", len(infos))
	}
	clocks := make(map[int64]bool)
	for _, in := range infos {
		if in.SimTime <= 0 {
			t.Fatalf("shard %d clock did not advance", in.Shard)
		}
		clocks[int64(in.SimTime)] = true
		if in.RootRows == 0 {
			t.Fatalf("shard %d owns no root rows", in.Shard)
		}
	}

	// Distinct root slices mean distinct work: with the tiny dataset's
	// uneven round-robin remainder the clocks cannot all collapse to one
	// value unless they share state.
	for s, c := range db.shards.engines {
		for s2, c2 := range db.shards.engines {
			if s2 > s && (c.clock == c2.clock || c.dev.RAM == c2.dev.RAM) {
				t.Fatalf("shards %d and %d share device state", s, s2)
			}
		}
		// No per-query grant may survive the queries above (the page
		// cache and delta grants are persistent device state).
		for _, u := range c.dev.RAM.Snapshot() {
			if !strings.HasPrefix(u.Label, "delta:") && u.Label != "page-cache" {
				t.Fatalf("shard %d leaked arena grant %+v", s, u)
			}
		}
	}
	_ = clocks
}

// TestShardedRootPredicates pins the global->local key rewrite: root-PK
// point, range, BETWEEN and IN predicates must select exactly the same
// rows as a single device, across shard counts.
func TestShardedRootPredicates(t *testing.T) {
	single, orc, _ := loadTiny(t)
	root := single.Schema().Root()
	pk := root.Name + "." + root.PrimaryKey().Name
	n := testRowCount(single, root.Name)
	if n < 8 {
		t.Fatalf("tiny dataset root too small: %d", n)
	}
	queries := []string{
		fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d", pk, root.Name, pk, n/2),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s <> %d", pk, root.Name, pk, n/2),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s < %d", pk, root.Name, pk, n/3),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s <= %d", pk, root.Name, pk, n/3),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s > %d", pk, root.Name, pk, 2*n/3),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s >= %d", pk, root.Name, pk, 2*n/3),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %d AND %d", pk, root.Name, pk, n/4, 3*n/4),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s BETWEEN %d AND %d", pk, root.Name, pk, 3*n/4, n/4),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s IN (%d, %d, %d, %d)", pk, root.Name, pk, 1, n/2, n, n+7),
		fmt.Sprintf("SELECT %s FROM %s WHERE %s = %d", pk, root.Name, pk, n+100),
		fmt.Sprintf("SELECT COUNT(*), MIN(%s), MAX(%s) FROM %s WHERE %s BETWEEN %d AND %d",
			pk, pk, root.Name, pk, n/4, 3*n/4),
	}
	for _, shards := range []int{2, 4} {
		db, _, _ := loadShardedTiny(t, shards)
		for _, q := range queries {
			checkAgainstOracle(t, db, orc, q)
		}
		_ = db
	}
	_ = orc
}

// TestShardedExplainAnalyze checks the scatter-gather EXPLAIN ANALYZE:
// per-shard operator actuals and sim times, and a rendering that carries
// one section per shard.
func TestShardedExplainAnalyze(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 2)
	a, err := db.ExplainAnalyze(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Shards) != 2 {
		t.Fatalf("Shards = %d entries, want 2", len(a.Shards))
	}
	if a.Ops != nil {
		t.Fatal("merged Ops should be nil on a sharded ANALYZE (operators are per-device)")
	}
	for _, sh := range a.Shards {
		if len(sh.Ops) == 0 {
			t.Fatalf("shard %d has no operator rows", sh.Shard)
		}
		if sh.SimTime <= 0 {
			t.Fatalf("shard %d sim time %v", sh.Shard, sh.SimTime)
		}
		if sh.SimTime > a.Result.Report.TotalTime {
			t.Fatalf("shard %d sim %v exceeds merged max %v", sh.Shard, sh.SimTime, a.Result.Report.TotalTime)
		}
	}
	text := a.Text()
	if !strings.Contains(text, "shard 0:") || !strings.Contains(text, "shard 1:") {
		t.Fatalf("rendered analysis missing per-shard sections:\n%s", text)
	}
	if !strings.Contains(text, "estimated:") || !strings.Contains(text, "actual:") {
		t.Fatalf("rendered analysis missing summary lines:\n%s", text)
	}

	// EXPLAIN without ANALYZE still works against shard-0 statistics.
	eo, err := db.ExplainOnly(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if eo.PlanText == "" || eo.EstimatedSim <= 0 {
		t.Fatalf("ExplainOnly: plan %q, est %v", eo.PlanText, eo.EstimatedSim)
	}
}

// TestShardedExplainAnalyzeRunsShardPlans: a sharded EXPLAIN ANALYZE runs,
// on every shard it contacts, the plan that shard's own optimizer chose —
// the plan a plain Query runs there — and names it in the shard's section.
// Two identical databases replay the shard differential corpus, DML and
// CHECKPOINT included: one answers every SELECT with EXPLAIN ANALYZE, the
// other with Query.
func TestShardedExplainAnalyzeRunsShardPlans(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			explained, orc, ds := loadShardedTiny(t, shards)
			plain, _, _ := loadShardedTiny(t, shards)
			g := &dmlGen{
				queryGen: &queryGen{rng: rand.New(rand.NewSource(int64(101 + shards))), ds: ds},
				sch:      explained.Schema(),
				orc:      orc,
			}
			exec := func(stmt string) {
				on, oerr := orc.Exec(stmt)
				for _, db := range []*DB{explained, plain} {
					en, eerr := db.Exec(stmt)
					if eerr != nil || oerr != nil || en != on {
						t.Fatalf("%q: engine (%d, %v), oracle (%d, %v)", stmt, en, eerr, on, oerr)
					}
				}
			}
			iterations := 240
			if testing.Short() {
				iterations = 50
			}
			split := 0
			for i := 0; i < iterations; i++ {
				switch roll := g.rng.Intn(10); {
				case roll < 4:
					split += shardPlansAgree(t, explained, plain, orc, g.next())
				case roll < 6:
					split += shardPlansAgree(t, explained, plain, orc, g.nextPostOp())
				case roll == 9 && i%29 == 0:
					exec("CHECKPOINT")
				default:
					if stmt := g.nextDML(); stmt != "" {
						exec(stmt)
					}
				}
			}
			t.Logf("%d statements on which the contacted shards chose different plans", split)
		})
	}
}

// TestShardedExplainAnalyzeSplitPlan pins a statement on which the two
// shards' own statistics pick different plans (shard 0 P2, shard 1 P1; the
// shard differential corpus above holds none, this is q19 of the estimate
// golden's corpus): each section must name, and have run, its own shard's
// plan, where forcing shard 0's choice on both ran P2 on shard 1.
func TestShardedExplainAnalyzeSplitPlan(t *testing.T) {
	const q = `SELECT Prescription.PreID, Prescription.WhenWritten, Medicine.Effect FROM Prescription, Medicine WHERE Medicine.Type = 'Antibiotic' AND Prescription.Quantity <> 91 AND Prescription.WhenWritten BETWEEN '2005-12-25' AND '2007-05-15'`
	explained, orc, _ := loadShardedTiny(t, 2)
	plain, _, _ := loadShardedTiny(t, 2)
	if shardPlansAgree(t, explained, plain, orc, q) != 1 {
		t.Fatal("the shards no longer choose different plans for the pinned statement")
	}
}

// shardPlansAgree runs sqlText as EXPLAIN ANALYZE on explained and as a
// plain Query on plain, and requires the rows to be the oracle's and every
// shard section to name, and to have run, the plan that shard ran for the
// plain query. It returns 1 when the contacted shards chose different
// plans, else 0.
func shardPlansAgree(t *testing.T, explained, plain *DB, orc *oracle.Oracle, sqlText string) int {
	t.Helper()
	a, err := explained.ExplainAnalyze(sqlText)
	if err != nil {
		t.Fatalf("explain analyze %q: %v", sqlText, err)
	}
	res, err := plain.Query(sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	wantCols, wantRows, err := orc.Query(sqlText)
	if err != nil {
		t.Fatalf("oracle %q: %v", sqlText, err)
	}
	if !reflect.DeepEqual(a.Result.Columns, wantCols) || !sameRows(a.Result.Rows, wantRows) || !sameRows(res.Rows, wantRows) {
		t.Fatalf("%q: EXPLAIN ANALYZE %d rows, Query %d rows, oracle %d", sqlText, len(a.Result.Rows), len(res.Rows), len(wantRows))
	}
	text := a.Text()
	sections := map[int]bool{}
	labels := map[string]bool{}
	for _, sh := range a.Shards {
		want := res.ShardReports[sh.Shard]
		if sh.Pruned {
			if want != nil {
				t.Fatalf("%q: shard %d reads pruned, Query contacted it\n%s", sqlText, sh.Shard, text)
			}
			continue
		}
		if want == nil {
			t.Fatalf("%q: shard %d ran under EXPLAIN ANALYZE, Query did not contact it\n%s", sqlText, sh.Shard, text)
		}
		if got := a.Result.ShardReports[sh.Shard].PlanLabel; got != want.PlanLabel {
			t.Fatalf("%q: shard %d ran %s under EXPLAIN ANALYZE, %s under Query\n%s", sqlText, sh.Shard, got, want.PlanLabel, text)
		}
		if !strings.Contains(text, fmt.Sprintf("shard %d: plan %s[", sh.Shard, want.PlanLabel)) {
			t.Fatalf("%q: shard %d's section does not name plan %s\n%s", sqlText, sh.Shard, want.PlanLabel, text)
		}
		sections[sh.Shard] = true
		labels[want.PlanLabel] = true
	}
	for s, rep := range res.ShardReports {
		if rep != nil && !sections[s] {
			t.Fatalf("%q: Query contacted shard %d, EXPLAIN ANALYZE has no section for it\n%s", sqlText, s, text)
		}
	}
	if len(labels) > 1 {
		return 1
	}
	return 0
}

// testRowCount reads the coordinator's global cardinality for a table.
func testRowCount(db *DB, table string) int {
	return db.RowCount(table)
}

// TestShardedMetricsSurfaces checks the per-shard observability
// satellites: ShardCount, ShardInfos, ShardMetrics.
func TestShardedMetricsSurfaces(t *testing.T) {
	db, _, _ := loadShardedTiny(t, 2)
	if db.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", db.ShardCount())
	}
	if _, err := db.Query(paperQuery); err != nil {
		t.Fatal(err)
	}
	snaps := db.ShardMetrics()
	if len(snaps) != 2 {
		t.Fatalf("ShardMetrics = %d entries, want 2", len(snaps))
	}
	for s, snap := range snaps {
		found := false
		for _, v := range snap {
			if v.Name == "flash_page_reads_total" && v.Value > 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d registry shows no flash reads after a scatter query", s)
		}
	}
	infos := db.ShardInfos()
	rootRows := 0
	for _, in := range infos {
		rootRows += in.RootRows
	}
	if want := testRowCount(db, db.Schema().Root().Name); rootRows != want {
		t.Fatalf("per-shard root rows sum to %d, coordinator says %d", rootRows, want)
	}
}
