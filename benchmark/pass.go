package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/value"
)

// The query texts of the two pass workloads, declared here and nowhere
// else. Every one runs over the Figure 3 hospital schema.
const (
	// qDemo is the paper's Section 4 example.
	qDemo = `SELECT Med.Name, Pre.Quantity, Vis.Date FROM Medicine Med, Prescription Pre, Visit Vis ` +
		`WHERE Vis.Date > 05-11-2006 AND Vis.Purpose = "Sclerosis" AND Med.Type = "Antibiotic" ` +
		`AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`
	// qDeep reaches two foreign-key hops below the root.
	qDeep = `SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Doctor Doc ` +
		`WHERE Doc.Country = 'Spain' AND Vis.Purpose = 'Sclerosis'`
	// qRowsWide projects about 9% of Prescription.
	qRowsWide  = `SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity < 10`
	qAggCount  = `SELECT COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre WHERE Pre.Quantity > 2`
	qAggGroup  = `SELECT Med.Type, SUM(Pre.Quantity) FROM Medicine Med, Prescription Pre GROUP BY Med.Type ORDER BY SUM(Pre.Quantity) DESC`
	qAggTopK   = `SELECT Doc.Country, COUNT(*) FROM Doctor Doc, Visit Vis, Prescription Pre WHERE Pre.Quantity >= 2 GROUP BY Doc.Country HAVING COUNT(*) > 10 ORDER BY COUNT(*) DESC LIMIT 5`
	qAggStats  = `SELECT MIN(Pre.Quantity), MAX(Pre.Quantity), AVG(Pre.Quantity) FROM Prescription Pre WHERE Pre.Frequency >= 2`
	qDimGroup  = `SELECT Vis.Purpose, COUNT(*) FROM Visit Vis GROUP BY Vis.Purpose`
	qDimScan   = `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	qRootPoint = `SELECT Pre.PreID, Pre.Quantity, Pre.WhenWritten FROM Prescription Pre WHERE Pre.PreID = ?`
	// qSweep is the demo query with a literal date cutoff. '#' is
	// replaced by a fresh number on every execution: the aliases change,
	// the meaning and the simulated cost do not, and the new text misses
	// the plan cache.
	qSweep = `SELECT M#.Name, P#.Quantity, V#.Date FROM Medicine M#, Prescription P#, Visit V# ` +
		`WHERE V#.Date > '@' AND V#.Purpose = 'Sclerosis' AND M#.Type = 'Antibiotic' ` +
		`AND M#.MedID = P#.MedID AND V#.VisID = P#.VisID`
)

const (
	passScale     = 50_000
	rootPoints    = 50 // root_point lookups per pass
	oracleSamples = 4  // point lookups of a template checked against the oracle itself
)

// listA names the eleven templates both pass workloads run, in pass
// order; plan_mix appends the six forced plans of the demo query.
var listA = []string{"demo", "deep", "rows_wide", "agg_count", "agg_group", "agg_topk",
	"agg_stats", "dim_group", "dim_scan", "root_point", "sweep"}

const forcedPlans = 6

func fig6Name(i int) string { return "fig6_p" + strconv.Itoa(i+1) }

// step is one query of a pass.
type step struct {
	tmpl   string
	sql    string
	params []value.Value
	plan   int  // 1-based forced plan of the demo query; 0 lets the optimizer choose
	fresh  bool // the text is renumbered on every execution (see qSweep)

	// What the step must return. The oracle says, except for the point
	// lookups marked direct, whose one row is read off the generated
	// columns: the oracle scans the whole table per query, and the first
	// few lookups already prove the two agree.
	direct     bool
	wantDigest uint64
	wantRows   int
}

// oracleText is the step as the oracle takes it: literal values, and the
// one numbering of a fresh text that no execution uses.
func (s *step) oracleText() string {
	return literalSQL(strings.ReplaceAll(s.sql, "#", "0"), s.params)
}

// passWorkload is plan_mix (one device) or shard_scatter (four): one
// in-process session running the same pass over and over. Every pass is
// the same queries with the same keys, so its simulated cost is a
// constant of the seed.
type passWorkload struct {
	cfg    config
	t      *tally
	shards int
	ds     *datagen.Dataset
	steps  []step

	db    *core.DB
	sess  *core.Session
	fresh int
	l     *layers

	tmplSim  map[string]time.Duration // simulated time per template per pass, from the warm-up pass
	tmplWall map[string][]float64     // traced passes: wall ns per template
	aWall    []float64                // traced passes: wall ns of list A
	point    []float64                // traced root_point lookups: wall ns each
	base     *passWorkload            // shard_scatter, traced: the one-device reference
	media    metrics                  // plan_mix, traced: the simulated medium probed directly
}

func newPassWorkload(cfg config, t *tally, shards int) (*passWorkload, error) {
	if cfg.scale == 0 {
		cfg.scale = passScale
	}
	w := &passWorkload{cfg: cfg, t: t, shards: shards, ds: genDataset(cfg.scale, cfg.seed)}
	rng := rand.New(rand.NewSource(cfg.seed))
	pre := w.ds.Table("Prescription")
	w.steps = []step{
		{tmpl: "demo", sql: qDemo}, {tmpl: "deep", sql: qDeep}, {tmpl: "rows_wide", sql: qRowsWide},
		{tmpl: "agg_count", sql: qAggCount}, {tmpl: "agg_group", sql: qAggGroup}, {tmpl: "agg_topk", sql: qAggTopK},
		{tmpl: "agg_stats", sql: qAggStats}, {tmpl: "dim_group", sql: qDimGroup}, {tmpl: "dim_scan", sql: qDimScan},
	}
	for i := 0; i < rootPoints; i++ {
		k := 1 + rng.Intn(cfg.scale)
		s := step{tmpl: "root_point", sql: qRootPoint, params: []value.Value{value.NewInt(int64(k))}}
		if i >= oracleSamples {
			row := []value.Value{s.params[0], pre.Col("Quantity")[k-1], pre.Col("WhenWritten")[k-1]}
			s.direct, s.wantDigest, s.wantRows = true, digestRows([][]value.Value{row}), 1
		}
		w.steps = append(w.steps, s)
	}
	// Fixed selectivities, clear of the plan crossover near 40%: there the
	// optimizer's choice, and the pass's cost with it, flips between seeds.
	// 1% and 10% run pre-filtering with cross-filtering, 70% post-filtering.
	for _, sel := range []float64{0.01, 0.10, 0.70} {
		cutoff := datagen.DateCutoff(sel)
		w.steps = append(w.steps, step{tmpl: "sweep", sql: strings.ReplaceAll(qSweep, "@", cutoff.String()), fresh: true})
	}
	if shards == 1 {
		for i := 0; i < forcedPlans; i++ {
			w.steps = append(w.steps, step{tmpl: fig6Name(i), sql: qDemo, plan: i + 1})
		}
	}
	return w, w.expect()
}

// expect fills in, from the oracle, the expected digest and row count of
// every step not marked direct.
func (w *passWorkload) expect() error {
	orc, err := refOracle(w.ds)
	if err != nil {
		return err
	}
	type answer struct {
		digest uint64
		rows   int
	}
	answers := map[string]answer{}
	var texts []string
	for i := range w.steps {
		if s := &w.steps[i]; !s.direct {
			text := s.oracleText()
			if _, seen := answers[text]; !seen {
				answers[text] = answer{}
				texts = append(texts, text)
			}
		}
	}
	if err := oracleAnswers(orc, texts, func(text string, rows [][]value.Value) {
		answers[text] = answer{digestRows(rows), len(rows)}
	}); err != nil {
		return err
	}
	for i := range w.steps {
		if s := &w.steps[i]; !s.direct {
			a := answers[s.oracleText()]
			s.wantDigest, s.wantRows = a.digest, a.rows
		}
	}
	return nil
}

// oracleAnswers evaluates the texts on the oracle, two at a time (the
// sandbox has two cores and oracle queries only read), and hands each
// result to put under a lock.
func oracleAnswers(orc *oracle.Oracle, texts []string, put func(text string, rows [][]value.Value)) error {
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for text := range next {
				_, rows, err := orc.Query(text)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle: %s: %w", text, err)
				}
				if err == nil {
					put(text, rows)
				}
				mu.Unlock()
			}
		}()
	}
	for _, text := range texts {
		next <- text
	}
	close(next)
	wg.Wait()
	return firstErr
}

func (w *passWorkload) tailPercentile() float64 { return 90 }

func (w *passWorkload) simByTemplate() map[string]time.Duration { return w.tmplSim }

func (w *passWorkload) setup() error {
	var opts []core.Option
	if w.shards > 1 {
		opts = append(opts, core.WithShards(w.shards))
	}
	db, err := buildDB(w.ds, opts...)
	if err != nil {
		return err
	}
	w.db = db
	w.sess, err = db.NewSession()
	w.fresh = 0
	w.l = newLayers()
	return err
}

// exec runs one step the way an application would: plain text through
// Session.Query, a parameterised text through Compile + QueryCompiled
// (what the database/sql driver and the server do), a forced plan
// through QueryWithPlan.
func (w *passWorkload) exec(s *step, demo *plan.Query, specs []plan.Spec) (*core.Result, error) {
	switch {
	case s.plan > 0:
		return w.sess.QueryWithPlan(demo, specs[s.plan-1])
	case s.params != nil:
		cq, err := w.sess.Compile(s.sql)
		if err != nil {
			return nil, err
		}
		return w.sess.QueryCompiled(cq, s.params)
	default:
		return w.sess.Query(w.text(s))
	}
}

func (w *passWorkload) text(s *step) string {
	if !s.fresh {
		return s.sql
	}
	w.fresh++
	return strings.ReplaceAll(s.sql, "#", strconv.Itoa(w.fresh))
}

// forced prepares the demo query and its plan space, once per pass.
func (w *passWorkload) forced() (*plan.Query, []plan.Spec, error) {
	if w.shards > 1 {
		return nil, nil, nil
	}
	q, err := w.db.Prepare(qDemo)
	if err != nil {
		return nil, nil, err
	}
	specs := w.db.Plans(q)
	if len(specs) != forcedPlans {
		return nil, nil, fmt.Errorf("demo query has %d plans, the benchmark names %d", len(specs), forcedPlans)
	}
	return q, specs, nil
}

// pass runs every step once. full compares whole results by digest (the
// warm-up and verification passes); otherwise only row counts are
// compared, which is all the measured phase can afford. It returns the
// simulated time per template.
func (w *passWorkload) pass(full bool) map[string]time.Duration {
	sim := map[string]time.Duration{}
	demo, specs, err := w.forced()
	if !w.t.check(err == nil, "%s: preparing the demo query: %v", w.cfg.workload, err) {
		return sim
	}
	for i := range w.steps {
		s := &w.steps[i]
		res, err := w.exec(s, demo, specs)
		if !w.t.check(err == nil, "%s: %s: %v", w.cfg.workload, s.tmpl, err) {
			continue
		}
		sim[s.tmpl] += res.Report.TotalTime
		w.verify(s, res, full)
	}
	return sim
}

func (w *passWorkload) verify(s *step, res *core.Result, full bool) {
	if full {
		got := digestRows(res.Rows)
		w.t.check(got == s.wantDigest && len(res.Rows) == s.wantRows,
			"%s: %s: %d rows digest %x, oracle has %d rows digest %x",
			w.cfg.workload, s.tmpl, len(res.Rows), got, s.wantRows, s.wantDigest)
		return
	}
	w.t.check(len(res.Rows) == s.wantRows, "%s: %s: %d rows, want %d", w.cfg.workload, s.tmpl, len(res.Rows), s.wantRows)
}

func (w *passWorkload) warmup() (float64, error) {
	// The first pass pays the optimizer's statistics probes and fills the
	// plan cache; the second is the steady state every later pass repeats.
	w.pass(true)
	w.tmplSim = w.pass(true)
	var total time.Duration
	for _, d := range w.tmplSim {
		total += d
	}
	return ms(total), nil
}

// A pass is both the op and the unit.
func (w *passWorkload) opsPerUnit() int { return 1 }

func (w *passWorkload) measure(d time.Duration, tr *tracer) (opMs, unitMs []float64) {
	var samples []float64
	deadline := time.Now().Add(d)
	for len(samples) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		if tr == nil {
			w.pass(false)
		} else {
			w.tracedPass(tr)
		}
		samples = append(samples, ms(time.Since(start)))
	}
	return samples, samples
}

// tracedPass is pass(false) with every step decomposed into spans. The
// forced plans have no compile stage of their own (the demo query is
// prepared once per pass), so they get a single core.run span.
func (w *passWorkload) tracedPass(tr *tracer) {
	if w.tmplWall == nil {
		w.tmplWall = map[string][]float64{}
	}
	request := tr.newID()
	root, passStart := tr.newID(), time.Now()
	demo, specs, err := w.forced()
	if !w.t.check(err == nil, "%s: preparing the demo query: %v", w.cfg.workload, err) {
		return
	}
	wall := map[string]time.Duration{}
	var aWall time.Duration
	for i := range w.steps {
		s := &w.steps[i]
		stepStart := time.Now()
		var res *core.Result
		if s.plan > 0 {
			id := tr.newID()
			res, err = w.sess.QueryWithPlan(demo, specs[s.plan-1])
			end := time.Now()
			if err == nil {
				tr.record(id, root, request, "core.run", stepStart, end)
				w.l.note(res, end.Sub(stepStart))
			}
		} else {
			var run time.Duration
			res, run, err = tracedQuery(tr, w.l, w.sess, root, request, w.text(s), s.params)
			if s.tmpl == "root_point" && err == nil {
				w.point = append(w.point, float64(run))
			}
		}
		took := time.Since(stepStart)
		wall[s.tmpl] += took
		if s.plan == 0 {
			aWall += took
		}
		if w.t.check(err == nil, "%s: %s: %v", w.cfg.workload, s.tmpl, err) {
			w.verify(s, res, false)
		}
	}
	tr.record(root, 0, request, "pass", passStart, time.Now())
	for tmpl, d := range wall {
		w.tmplWall[tmpl] = append(w.tmplWall[tmpl], float64(d))
	}
	w.aWall = append(w.aWall, float64(aWall))
}

func (w *passWorkload) finish(tr *tracer) error {
	w.pass(true)
	var err error
	switch {
	case tr == nil:
	case w.shards > 1:
		err = w.measureBase()
	default:
		w.media, err = simMedia()
	}
	if err != nil {
		return err
	}
	err = w.sess.Close()
	if cerr := w.db.Close(); err == nil {
		err = cerr
	}
	w.db, w.sess = nil, nil
	return err
}

// measureBase runs list A for a moment on a one-device database built
// from the same dataset: the base of shard_scatter's speed-up ratios. Its
// results are checked like any other pass, which is also what ties the
// four-device digests to the one-device ones.
func (w *passWorkload) measureBase() error {
	cfg := w.cfg
	cfg.workload = "shard_scatter(base)"
	b := &passWorkload{cfg: cfg, t: w.t, shards: 1, ds: w.ds, steps: w.steps}
	if err := b.setup(); err != nil {
		return err
	}
	if _, err := b.warmup(); err != nil {
		return err
	}
	b.measure(time.Second, newTracer())
	w.base = b
	return b.finish(nil)
}

func (w *passWorkload) layerMetrics(tr *tracer, m metrics) {
	passes := float64(len(w.aWall))
	w.l.emit(m, passes)
	groupSpans(tr.spans).emitQueryStages(m)
	for tmpl, ns := range w.tmplWall {
		if !strings.HasPrefix(tmpl, "fig6_") { // list A only: the forced plans are reported in simulated time alone
			m["run.wall_ms."+tmpl] = median(ns) / 1e6
		}
	}
	for tmpl, d := range w.tmplSim {
		m["run.sim_ms."+tmpl] = ms(d)
	}
	for name, v := range w.media {
		m[name] = v
	}
	m["shard.pass_a_ms"] = median(w.aWall) / 1e6
	m["shard.point_us"] = p50us(w.point)
	if w.base != nil {
		m["shard.wall_speedup"] = median(w.base.aWall) / median(w.aWall)
		var one, many time.Duration
		for _, tmpl := range listA {
			one += w.base.tmplSim[tmpl]
			many += w.tmplSim[tmpl]
		}
		m["shard.sim_speedup"] = float64(one) / float64(many)
	}
}
