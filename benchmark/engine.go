package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// genDataset builds the Figure 3 hospital dataset at the given number of
// prescriptions. The seed is the only source of variation between runs.
func genDataset(scale int, seed int64) *datagen.Dataset {
	c := datagen.WithScale(scale)
	c.Seed = seed
	return datagen.Generate(c)
}

// buildDB opens an engine and bulk-loads the dataset.
func buildDB(ds *datagen.Dataset, opts ...core.Option) (*core.DB, error) {
	db, err := core.Open(opts...)
	if err != nil {
		return nil, err
	}
	if err := db.LoadDataset(ds); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.EnsureBuilt(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// newOracle builds the reference evaluator over the same dataset. It
// needs a frozen schema, which only a loaded engine has.
func newOracle(db *core.DB, ds *datagen.Dataset) (*oracle.Oracle, error) {
	cols := map[string][][]value.Value{}
	for _, name := range ds.TableNames() {
		cols[name] = ds.Table(name).Cols
	}
	return oracle.New(db.Schema(), cols)
}

// refOracle builds the oracle for a dataset that no engine has loaded
// yet, on a throwaway database opened only for its schema.
func refOracle(ds *datagen.Dataset) (*oracle.Oracle, error) {
	ref, err := buildDB(ds)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	return newOracle(ref, ds)
}

// digestRows hashes a result set, order included: two equal digests mean
// equal rows in equal order (up to a 64-bit collision).
func digestRows(rows [][]value.Value) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		for _, v := range row {
			h.Write([]byte(v.String()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// literalSQL substitutes parameter values for the '?' placeholders, for
// the oracle, which takes only literal text.
func literalSQL(text string, params []value.Value) string {
	for _, p := range params {
		text = strings.Replace(text, "?", p.SQL(), 1)
	}
	return text
}

// tally counts every checked operation and every failure — an error, a
// refusal or a result mismatch. The first few failures are explained on
// standard error.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

func (t *tally) check(ok bool, format string, a ...any) bool {
	t.attempted.Add(1)
	if !ok && t.failed.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "FAIL: "+format+"\n", a...)
	}
	return ok
}

// layers accumulates the counts the engine reports for each executed
// query, so per-layer ratios are measured where the work happens.
type layers struct {
	queries, rows, tuplesIn    int64
	pageReads, flashBytes      int64
	busBytes, busMsgs, ramHigh int64
	runWall                    time.Duration
	opSim                      map[string]time.Duration // simulated time by operator name
	specs                      []float64                // plan-space size per compiled query
	cacheHits, cacheMisses     int64
	scatterRows                int64
	scatterWall                time.Duration
	skews                      []float64
}

// timedOps are the operators the engine charges simulated time to. The
// other four it reports — AccessSKT, Filter, MergeLists, Tombstones — are
// stages of a pipeline that carry tuple counts only: their time is charged
// to the phase they stream into, so a metric of theirs would read 0 by
// construction.
var timedOps = []string{"BloomBuild", "ClimbingIndex", "DeltaScan", "MergeProject", "Project",
	"ShipIDList", "Sort", "Store", "Translate"}

func newLayers() *layers { return &layers{opSim: map[string]time.Duration{}} }

// note folds one completed query into the counts. wall is the host time
// of the run call alone (parse, compile and bind excluded).
func (l *layers) note(res *core.Result, wall time.Duration) {
	rep := res.Report
	l.queries++
	l.rows += int64(len(res.Rows))
	l.runWall += wall
	l.pageReads += rep.Flash.PageReads
	l.flashBytes += rep.Flash.BytesRead
	l.busBytes += rep.BusBytes
	l.busMsgs += rep.BusMsgs
	l.ramHigh = max(l.ramHigh, rep.RAMHigh)
	reports := []*stats.Report{rep}
	if res.ShardReports != nil {
		reports = res.ShardReports
		l.noteScatter(res, wall)
	}
	for _, r := range reports {
		if r == nil {
			continue
		}
		for _, op := range r.Ops {
			l.opSim[op.Name] += op.Time
			l.tuplesIn += op.TuplesIn
		}
	}
}

// noteScatter records the gather side of a query that ran on every
// shard: rows merged, and how unevenly the simulated work was spread.
func (l *layers) noteScatter(res *core.Result, wall time.Duration) {
	var n int
	var total, worst time.Duration
	for _, r := range res.ShardReports {
		if r != nil {
			n++
			total += r.TotalTime
			worst = max(worst, r.TotalTime)
		}
	}
	if n < 2 || total == 0 {
		return // routed whole to one replica: nothing was gathered
	}
	l.scatterRows += int64(len(res.Rows))
	l.scatterWall += wall
	l.skews = append(l.skews, float64(worst)/(float64(total)/float64(n)))
}

// emit writes the device-model and executor ratios, per workload op.
func (l *layers) emit(m metrics, ops float64) {
	if ops == 0 || l.queries == 0 {
		return
	}
	m["flash.page_reads_per_op"] = float64(l.pageReads) / ops
	m["flash.bytes_read_per_op"] = float64(l.flashBytes) / ops
	m["bus.bytes_per_op"] = float64(l.busBytes) / ops
	m["bus.msgs_per_op"] = float64(l.busMsgs) / ops
	m["ram.high_kb"] = float64(l.ramHigh) / 1024
	for _, name := range timedOps {
		m["sim.op_ms."+name] = ms(l.opSim[name]) / ops
	}
	if l.runWall > 0 {
		m["run.rows_per_s"] = float64(l.rows) / l.runWall.Seconds()
	}
	if l.rows > 0 {
		m["run.tuples_in_per_row"] = float64(l.tuplesIn) / float64(l.rows)
	}
	if l.pageReads > 0 {
		m["run.wall_us_per_page_read"] = float64(l.runWall.Microseconds()) / float64(l.pageReads)
	}
	m["plan.specs_per_query"] = median(l.specs)
	if n := l.cacheHits + l.cacheMisses; n > 0 {
		m["plancache.hit_ratio"] = float64(l.cacheHits) / float64(n)
	}
	if l.scatterWall > 0 {
		m["shard.rows_merged_per_s"] = float64(l.scatterRows) / l.scatterWall.Seconds()
		m["shard.sim_skew"] = median(l.skews)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedQuery runs one SELECT decomposed at the engine's own layer
// boundaries — parse, compile (through the plan cache), bind, run — with
// one span around each, and folds the result into the layer counts. The
// parse and bind calls exist only to be timed: Compile parses again on a
// cache miss and QueryCompiled binds again, exactly as the untraced path
// does.
func tracedQuery(tr *tracer, l *layers, sess *core.Session, parent, request int64, text string, params []value.Value) (*core.Result, time.Duration, error) {
	tr.child(parent, request, "sql.parse", func() { _, _ = sql.ParseSelect(text) })

	db := sess.DB()
	before := db.PlanCacheStats()
	var cq *core.CompiledQuery
	var err error
	id, start := tr.newID(), time.Now()
	cq, err = sess.Compile(text)
	end := time.Now()
	if err != nil {
		return nil, 0, err
	}
	name := "compile.hit"
	if db.PlanCacheStats().Misses > before.Misses {
		name = "compile.miss"
		l.cacheMisses++
	} else {
		l.cacheHits++
	}
	tr.record(id, parent, request, name, start, end)
	l.specs = append(l.specs, float64(len(cq.Specs())))

	tr.child(parent, request, "plan.bind", func() { _, _ = cq.Bind(params) })

	var res *core.Result
	id, start = tr.newID(), time.Now()
	res, err = sess.QueryCompiled(cq, params)
	end = time.Now()
	if err != nil {
		return nil, 0, err
	}
	tr.record(id, parent, request, "core.run", start, end)
	l.note(res, end.Sub(start))
	return res, end.Sub(start), nil
}
