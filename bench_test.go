// Benchmarks regenerating every table and figure of the paper's
// evaluation (experiment index in internal/bench/doc.go). Each benchmark
// wraps the corresponding harness runner from internal/bench; the primary
// output is the deterministic simulated device time, reported as sim-ms/op
// next to the usual wall-clock numbers.
//
//	go test -bench=. -benchmem
//	go test -bench=Fig6 -benchscale 1000000   # the paper's cardinality
package ghostdb_test

import (
	"database/sql"
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	_ "github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/bench"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/value"
)

var benchScale = flag.Int("benchscale", 50_000, "prescriptions for benchmark datasets (paper: 1000000)")

var shared struct {
	once sync.Once
	db   *core.DB
	err  error
}

// sharedDB builds one database per process for the read-only benchmarks.
func sharedDB(b *testing.B) *core.DB {
	b.Helper()
	shared.once.Do(func() {
		shared.db, _, shared.err = bench.BuildDB(bench.Config{Scale: *benchScale})
	})
	if shared.err != nil {
		b.Fatal(shared.err)
	}
	return shared.db
}

// simMS converts total simulated time to a per-op metric.
func simMS(b *testing.B, totalNS float64) {
	b.ReportMetric(totalNS/1e6/float64(b.N), "sim-ms/op")
}

// BenchmarkFig6PlanBars regenerates Figure 6: every plan of the demo
// query, timed on the simulated device (experiment E1).
func BenchmarkFig6PlanBars(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig6(db, bench.DemoQuery)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.Time)
		}
	}
	simMS(b, sim)
}

// BenchmarkFig5PostFilterPlan runs the forced post-filtering plan of
// Figure 5 with its operator report (experiment E2).
func BenchmarkFig5PostFilterPlan(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	q, err := db.Prepare(bench.DemoQuery)
	if err != nil {
		b.Fatal(err)
	}
	spec := plan.Spec{Label: "Fig5",
		Strategies: []plan.Strategy{plan.StratVisPost, plan.StratHidIndex, plan.StratVisPost}}
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			b.Fatal(err)
		}
		sim += float64(res.Report.TotalTime)
	}
	simMS(b, sim)
}

// BenchmarkSelectivitySweep measures the pre/post/cross crossover
// (experiment E3).
func BenchmarkSelectivitySweep(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	sels := []float64{0.01, 0.10, 0.40}
	var sim float64
	for i := 0; i < b.N; i++ {
		points, err := bench.SelectivitySweep(db, sels)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			sim += float64(p.Pre + p.Post + p.Cross)
		}
	}
	simMS(b, sim)
}

// BenchmarkBaselines compares SKT+climbing against join indices, block
// nested loop and Grace hash (experiment E4).
func BenchmarkBaselines(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Baselines(db)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.Time)
		}
	}
	simMS(b, sim)
}

// BenchmarkStorageFootprint reports the flash cost of the indexing model
// (experiment E5).
func BenchmarkStorageFootprint(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	var total int64
	for i := 0; i < b.N; i++ {
		rows := bench.Storage(db)
		total = rows[len(rows)-1].Bytes
	}
	b.ReportMetric(float64(total)/(1<<20), "flash-MB")
}

// BenchmarkBusSpeed times the demo plans under USB full speed and high
// speed (experiment E6). Builds fresh databases, so it is the slowest.
func BenchmarkBusSpeed(b *testing.B) {
	skipIfShort(b)
	cfg := bench.Config{Scale: smallScale()}
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.BusSpeed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.PrePlan + r.Post)
		}
	}
	simMS(b, sim)
}

// BenchmarkSpyTrace runs the wire audit of demo phase 1 (experiment E7).
func BenchmarkSpyTrace(b *testing.B) {
	skipIfShort(b)
	cfg := bench.Config{Scale: smallScale()}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Spy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Leaks != 0 {
			b.Fatalf("%d hidden values leaked", rep.Leaks)
		}
	}
}

// BenchmarkRAMBudget sweeps the device RAM budget (experiment E8).
func BenchmarkRAMBudget(b *testing.B) {
	skipIfShort(b)
	cfg := bench.Config{Scale: smallScale()}
	budgets := []int{16 << 10, 64 << 10, 256 << 10}
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.RAMSweep(cfg, budgets)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.Pre + r.Post)
		}
	}
	simMS(b, sim)
}

// BenchmarkWriteRatio sweeps the flash program/read cost ratio
// (experiment E9).
func BenchmarkWriteRatio(b *testing.B) {
	skipIfShort(b)
	cfg := bench.Config{Scale: smallScale()}
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.WriteRatio(cfg, []float64{3, 10})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.GhostDB + r.Grace)
		}
	}
	simMS(b, sim)
}

// BenchmarkBloomFPR measures filter false-positive rates against the
// analytic bound (experiment E10).
func BenchmarkBloomFPR(b *testing.B) {
	skipIfShort(b)
	for i := 0; i < b.N; i++ {
		rows, err := bench.BloomFPR([]int{10_000}, []float64{9.6})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].Measured > 3*rows[0].Analytic+0.01 {
			b.Fatalf("fpr %f far above analytic %f", rows[0].Measured, rows[0].Analytic)
		}
	}
}

// BenchmarkPlanGame runs demo phase 3: estimate vs measure every plan
// (experiment E11).
func BenchmarkPlanGame(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Game(db)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.Measured)
		}
	}
	simMS(b, sim)
}

// BenchmarkAblations measures the design-choice comparisons.
func BenchmarkAblations(b *testing.B) {
	skipIfShort(b)
	db := sharedDB(b)
	var sim float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Ablations(db)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			sim += float64(r.With)
		}
	}
	simMS(b, sim)
}

// BenchmarkLoad measures the bulk-load path (dataset generation plus
// device index construction).
func BenchmarkLoad(b *testing.B) {
	skipIfShort(b)
	cfg := datagen.WithScale(smallScale())
	for i := 0; i < b.N; i++ {
		ds := datagen.Generate(cfg)
		db, err := core.Open()
		if err != nil {
			b.Fatal(err)
		}
		if err := db.LoadDataset(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// smallScale caps the rebuild-heavy benchmarks.
func smallScale() int {
	s := *benchScale
	if s > 50_000 {
		s = 50_000
	}
	return s
}

// skipIfShort keeps `go test -short -bench` fast: the paper-regeneration
// benchmarks build multi-thousand-row databases and are skipped.
func skipIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping heavy benchmark in -short mode")
	}
}

// BenchmarkConcurrentThroughput measures end-to-end queries/sec when N
// goroutines share one GhostDB instance through the session layer. The
// simulated device serializes on the device gate (one token, one USB
// command stream), so this measures the host-side win of concurrent
// parsing/binding plus the overhead of the gate itself.
func BenchmarkConcurrentThroughput(b *testing.B) {
	skipIfShort(b)
	db, _, err := bench.BuildDB(bench.Config{Scale: 2_000})
	if err != nil {
		b.Fatal(err)
	}
	benchConcurrent(b, db)
}

// BenchmarkConcurrentThroughput4Shards is the same workload on a DB
// split over four simulated devices: the dimension-rooted query
// round-robins across four independent device gates instead of
// serializing on one, so at 16 goroutines the queries/sec metric should
// scale toward 4x BenchmarkConcurrentThroughput (the sharding
// acceptance gate is 2.5x).
func BenchmarkConcurrentThroughput4Shards(b *testing.B) {
	skipIfShort(b)
	db, _, err := bench.BuildDB(bench.Config{Scale: 2_000}, core.WithShards(4))
	if err != nil {
		b.Fatal(err)
	}
	benchConcurrent(b, db)
}

func benchConcurrent(b *testing.B, db *core.DB) {
	const query = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			sessions := make([]*core.Session, g)
			for i := range sessions {
				s, err := db.NewSession()
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = s
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for _, s := range sessions {
				wg.Add(1)
				go func(s *core.Session) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := s.Query(query); err != nil {
							b.Error(err)
							return
						}
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			for _, s := range sessions {
				_ = s.Close()
			}
		})
	}
}

// BenchmarkDriverThroughput is the same workload through database/sql:
// pooled connections over the ghostdb driver.
func BenchmarkDriverThroughput(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db, err := sql.Open("ghostdb", "")
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			db.SetMaxOpenConns(g)
			if _, err := db.Exec(`
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
  (3, DATE '2007-02-01', 'Sclerosis', 1);`); err != nil {
				b.Fatal(err)
			}
			const query = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						rows, err := db.Query(query)
						if err != nil {
							b.Error(err)
							return
						}
						for rows.Next() {
						}
						rows.Close()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// benchHospital stages the package-doc mini dataset on a fresh driver DB.
func benchHospital(b *testing.B, dsn string, conns int) *sql.DB {
	b.Helper()
	db, err := sql.Open("ghostdb", dsn)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.SetMaxOpenConns(conns)
	if _, err := db.Exec(`
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
  (3, DATE '2007-02-01', 'Sclerosis', 1);`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkDriverPrepared measures the compile-once / bind-many path:
// one prepared '?'-placeholder statement per worker, executed with fresh
// bindings. Compare against BenchmarkDriverUnpreparedNoCache (the
// pre-plan-cache behavior: parse, bind, enumerate and cost every call)
// to see the host-side planning cost amortized away.
func BenchmarkDriverPrepared(b *testing.B) {
	const query = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?`
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db := benchHospital(b, "", g)
			stmts := make([]*sql.Stmt, g)
			for i := range stmts {
				s, err := db.Prepare(query)
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				stmts[i] = s
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for _, s := range stmts {
				wg.Add(1)
				go func(s *sql.Stmt) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						rows, err := s.Query("Sclerosis")
						if err != nil {
							b.Error(err)
							return
						}
						for rows.Next() {
						}
						rows.Close()
					}
				}(s)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkDriverUnpreparedNoCache runs the same workload with the plan
// cache disabled: every Query re-parses, re-binds, re-enumerates and
// re-costs — the unprepared baseline BenchmarkDriverPrepared beats.
func BenchmarkDriverUnpreparedNoCache(b *testing.B) {
	const query = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			db := benchHospital(b, "ghostdb://?plancache=0", g)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						rows, err := db.Query(query)
						if err != nil {
							b.Error(err)
							return
						}
						for rows.Next() {
						}
						rows.Close()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
		})
	}
}

// BenchmarkConcurrentThroughputPrepared is the session-layer prepared
// variant of BenchmarkConcurrentThroughput: the shape compiles once and
// N goroutines run it with their own parameter bindings through the
// shared device gate.
func BenchmarkConcurrentThroughputPrepared(b *testing.B) {
	skipIfShort(b)
	db, _, err := bench.BuildDB(bench.Config{Scale: 2_000})
	if err != nil {
		b.Fatal(err)
	}
	const shape = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?`
	params := []value.Value{value.NewString("Sclerosis")}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			sessions := make([]*core.Session, g)
			cqs := make([]*core.CompiledQuery, g)
			for i := range sessions {
				s, err := db.NewSession()
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = s
				if cqs[i], err = s.Compile(shape); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			for i, s := range sessions {
				wg.Add(1)
				go func(s *core.Session, cq *core.CompiledQuery) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := s.QueryCompiled(cq, params); err != nil {
							b.Error(err)
							return
						}
					}
				}(s, cqs[i])
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
			for _, s := range sessions {
				_ = s.Close()
			}
		})
	}
}
