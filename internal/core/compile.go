package core

// This file is the compile phase: the host-side, parameter-independent
// half of query processing. Compile parses and binds a SELECT and
// enumerates its plan space once; the resulting CompiledQuery is bound
// to concrete parameter values many times and executed many times
// (compile-once / bind-many / run-many). Compilations are memoized in
// the DB's plan cache, so concurrent sessions issuing the same query
// shape share one compiled form and skip the parse/bind/enumerate/cost
// work entirely. The run phase lives in executor.go.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// CompiledQuery is the cacheable product of the compile phase: the bound
// query shape (which may contain '?' placeholders), the enumerated plan
// specs, and — once the optimizer has run — the chosen strategy. One
// CompiledQuery is shared by every session that issues the same query
// shape; Run may be called concurrently with different bindings.
type CompiledQuery struct {
	db    *DB
	shape *plan.Query
	specs []plan.Spec

	// coord is the front door's plan-once state for this shape
	// (coordinator.go), with one plan holder per engine; nil until the
	// first run.
	coord atomic.Pointer[coordPlan]
}

// enginePlan is one engine's holder of a compiled shape: the shape and
// plan space it shares with the front door's CompiledQuery, and the
// device's own optimizer choice.
type enginePlan struct {
	e     *engine
	shape *plan.Query
	specs []plan.Spec

	// chosen is the optimizer's cached strategy for this shape on this
	// device, written under the device gate by the first unforced run or
	// EXPLAIN (optimizeLocked) and reused by every later one. Like any
	// plan cache, it trades re-optimization for stability: later bindings
	// run under the plan chosen for the first binding's selectivities.
	chosen *plan.Spec
}

// NumParams reports how many '?' placeholders the shape carries.
func (cq *CompiledQuery) NumParams() int { return cq.shape.NumParams }

// Shape returns the parameter-independent bound query.
func (cq *CompiledQuery) Shape() *plan.Query { return cq.shape }

// Specs returns the enumerated plan space (shared; do not mutate).
func (cq *CompiledQuery) Specs() []plan.Spec { return cq.specs }

// Bind substitutes parameter values into the shape, returning a fully
// bound query (see plan.Query.BindParams).
func (cq *CompiledQuery) Bind(params []value.Value) (*plan.Query, error) {
	return cq.shape.BindParams(params)
}

// Compile parses, binds and plan-enumerates a SELECT, without touching
// the plan cache; it finalizes a pending bulk load (see Prepare).
// Parsing and binding are host-side work over the frozen schema; only
// the (cheap) index-existence probes take a device gate — engine 0's,
// since every engine carries the same index set.
func (db *DB) Compile(sqlText string) (*CompiledQuery, error) {
	q, err := db.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	specs := plan.Enumerate(q, db.HasIndex)
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no feasible plan for %s", q.SQL)
	}
	return &CompiledQuery{db: db, shape: q, specs: specs}, nil
}

// compileCached returns the compiled form of sqlText, consulting the
// plan cache first. It counts the lookup once on every registry in scope
// (the DB's, and s's when s is non-nil): a hit, or a miss whether or not
// the compile that follows succeeds.
func (db *DB) compileCached(s *Session, sqlText string) (*CompiledQuery, error) {
	key := normalizeSQL(sqlText)
	cq := db.planCache.get(key)
	db.eachScope(s, func(m *engineMetrics) {
		if cq != nil {
			m.planCacheHits.Inc()
		} else {
			m.planCacheMisses.Inc()
		}
	})
	if cq != nil {
		return cq, nil
	}
	cq, err := db.Compile(sqlText)
	if err != nil {
		return nil, err
	}
	db.planCache.put(key, cq)
	return cq, nil
}

// PlanCacheStats snapshots the shared plan cache: Hits and Misses are the
// DB registry's plan_cache_*_total counters, Evictions and Entries the
// cache's own.
func (db *DB) PlanCacheStats() stats.CacheStats {
	evictions, entries := db.planCache.occupancy()
	return stats.CacheStats{
		Hits:      db.metrics.planCacheHits.Value(),
		Misses:    db.metrics.planCacheMisses.Value(),
		Evictions: evictions,
		Entries:   entries,
	}
}

// Prepare parses and binds a SELECT into its query shape. Parsing and
// binding are host-side work: they read only the frozen schema and never
// touch the device, so any number of goroutines may prepare queries
// concurrently. The shape may contain '?' placeholders; bind it with
// Query.BindParams (or use Compile/Run) before executing. Binding needs
// the frozen schema, so Prepare finalizes a pending bulk load first —
// the compile miss of every query path lands here.
func (db *DB) Prepare(sqlText string) (*plan.Query, error) {
	if err := db.EnsureBuilt(); err != nil {
		return nil, err
	}
	sel, err := sql.ParseSelect(sqlText)
	if err != nil {
		return nil, err
	}
	return plan.Bind(db.sch, sel)
}

// Plans enumerates every concrete plan for the query (demo phase 3).
func (db *DB) Plans(q *plan.Query) []plan.Spec {
	return plan.Enumerate(q, db.HasIndex)
}

// Estimate predicts a spec's simulated time using the statistics engine 0
// has at optimization time: on a sharded database ~1/n of the root and
// full dimension replicas, a per-device estimate (global predicate values
// over engine 0's data). The query must be fully bound: selectivity
// estimation needs concrete predicate values.
func (db *DB) Estimate(q *plan.Query, spec plan.Spec) (time.Duration, error) {
	if q.NumParams > 0 {
		return 0, fmt.Errorf("core: cannot estimate a query with %d unbound parameters", q.NumParams)
	}
	ch, err := (&enginePlan{e: db.shards.engines[0], shape: q}).explain(q, &spec)
	if err != nil {
		return 0, err
	}
	return ch.est, nil
}

// choice is one device's optimizer step as an EXPLAIN sees it: the plan,
// and the cost model's cardinalities and simulated time for it under the
// statistics of e, the device that chose.
type choice struct {
	e     *engine
	spec  plan.Spec
	cards plan.CardEstimates
	est   time.Duration
}

// optimizeLocked is the optimizer step, the only place a plan is chosen
// or costed: a forced spec is validated, otherwise the shape's cached
// choice is used, otherwise the statistics are probed and the cheapest
// enumerated spec is chosen and cached on p — the "plan" half of a
// prepared statement. A probe that fails on a dead device latches it,
// like a failure during execution. With explain set the statistics are
// probed whatever the spec's source and the step also returns its choice;
// without it a forced or cached spec costs nothing more than the copy.
// Caller holds e.mu.
func (p *enginePlan) optimizeLocked(bound *plan.Query, visSel [][]uint32, forced *plan.Spec, explain bool) (plan.Spec, *choice, error) {
	e := p.e
	var spec plan.Spec
	have := true
	switch {
	case forced != nil:
		if err := forced.Validate(bound, e.hasIndexLocked); err != nil {
			return spec, nil, err
		}
		spec = *forced
	case p.chosen != nil: // written under e.mu; see below
		spec = *p.chosen
	default:
		have = false
	}
	if have && !explain {
		return spec, nil, nil
	}
	counts, err := e.predCounts(bound, visSel)
	if err != nil {
		// The statistics probes read the device too: a power cut here
		// must latch like one during execution.
		e.noteDeviceErr(err)
		return spec, nil, err
	}
	in := e.costInputs(counts)
	var est time.Duration
	if have {
		est = plan.Estimate(bound, spec, in)
	} else {
		spec, est = p.specs[0], plan.Estimate(bound, p.specs[0], in)
		for _, s := range p.specs[1:] {
			if c := plan.Estimate(bound, s, in); c < est {
				spec, est = s, c
			}
		}
		chosen := spec.Clone()
		p.chosen = &chosen
	}
	if !explain {
		return spec, nil, nil
	}
	return spec, &choice{e: e, spec: spec, cards: plan.EstimateCards(bound, spec, in), est: est}, nil
}

// explain is the optimizer step of an EXPLAIN that does not execute: it
// returns the plan a run of bound through p would take (forced, cached,
// or chosen and cached now) with its estimates.
func (p *enginePlan) explain(bound *plan.Query, forced *plan.Spec) (*choice, error) {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	visSel, err := e.visSelections(bound)
	if err != nil {
		return nil, err
	}
	_, ch, err := p.optimizeLocked(bound, visSel, forced, true)
	return ch, err
}

func (e *engine) costInputs(counts []int) plan.CostInputs {
	return plan.CostInputs{
		Counts:        counts,
		TableRows:     e.rowCounts,
		Profile:       e.opts.Profile,
		Bus:           e.opts.USB,
		AvgValueBytes: 12,
	}
}

// visSelections evaluates every visible predicate on the untrusted PC
// (free for the powerful public side) and returns the matching ID list
// per predicate index. Hidden predicates are skipped.
func (e *engine) visSelections(q *plan.Query) ([][]uint32, error) {
	visSel := make([][]uint32, len(q.Preds))
	for i, p := range q.Preds {
		if p.Hidden() {
			continue
		}
		ids, err := e.visSelect(p)
		if err != nil {
			return nil, err
		}
		visSel[i] = ids
	}
	return visSel, nil
}

// visSelect evaluates one visible predicate on the untrusted PC and
// counts which of the store's access paths served it.
func (e *engine) visSelect(p plan.Pred) ([]uint32, error) {
	vt, ok := e.vis.Table(p.Col.Table)
	if !ok {
		return nil, fmt.Errorf("core: no visible table %s", p.Col.Table)
	}
	ids, indexed, err := vt.SelectPath(p.Col.Column, p.P)
	if err != nil {
		return nil, err
	}
	if indexed {
		e.metrics.visIndexed.Inc()
	} else {
		e.metrics.visScanned.Inc()
	}
	return ids, nil
}

// predCounts computes, per predicate, the matching cardinality in its own
// table: exact PC counts for visible predicates (taken from visSel) and
// dictionary statistics for indexed hidden predicates (charged to the
// device clock, as the real optimizer would pay).
func (e *engine) predCounts(q *plan.Query, visSel [][]uint32) ([]int, error) {
	counts := make([]int, len(q.Preds))
	for i, p := range q.Preds {
		if !p.Hidden() {
			counts[i] = len(visSel[i])
			continue
		}
		ix, ok := e.indexLocked(p.Col.Table, p.Col.Column)
		if !ok {
			counts[i] = -1
			continue
		}
		n, err := e.indexCount(ix, p.P)
		if err != nil {
			return nil, err
		}
		counts[i] = n
	}
	return counts, nil
}

// indexCount evaluates a predicate's own-level cardinality from the
// climbing index dictionary.
func (e *engine) indexCount(ix *climbing.Index, p pred.P) (int, error) {
	total := 0
	err := ix.Walk(p, func(ent climbing.Entry) error {
		total += ent.Lists[0].Count
		return nil
	})
	return total, err
}

// QueryOption adjusts one query execution.
type QueryOption func(*queryConfig)

type queryConfig struct {
	spec *plan.Spec
	ctx  context.Context
	// session attributes the execution to a session's metrics registry.
	session *Session
	// explain asks every device that runs the query to hand back its
	// optimizer choice with the result (Result.choices): EXPLAIN ANALYZE.
	explain bool
}

// WithSpec forces a specific plan instead of the optimizer's choice.
func WithSpec(s plan.Spec) QueryOption {
	return func(c *queryConfig) { spec := s.Clone(); c.spec = &spec }
}

// WithContext cancels the query when ctx is done. Cancellation is
// honored at batch boundaries: the engine checks between batches of the
// pipeline and returns ctx.Err(). A canceled query charges the simulated clock only for the
// work it actually performed.
func WithContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) {
		if ctx != nil && ctx.Done() != nil {
			c.ctx = ctx
		}
	}
}

// Query compiles (through the shared plan cache), plans and executes a
// SELECT. Without options the optimizer enumerates the strategy space
// and picks the cheapest plan; repeated shapes reuse the cached
// compilation and plan choice. The query must not contain placeholders —
// use Compile and CompiledQuery.Run to execute parameterized queries.
//
// Compilation happens host-side, outside the device gate; the
// optimizer's statistics probes and the execution itself serialize on
// the gate, so concurrent callers queue for the single simulated device.
func (db *DB) Query(sqlText string, opts ...QueryOption) (*Result, error) {
	cfg := newQueryConfig(opts)
	if isExplain(sqlText) {
		return db.explainQuery(sqlText, &cfg)
	}
	cq, err := db.compileCached(nil, sqlText)
	if err != nil {
		return nil, err
	}
	return cq.runObserved(nil, &cfg)
}

// newQueryConfig folds query options into a configuration.
func newQueryConfig(opts []QueryOption) queryConfig {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Run binds the compiled shape to params (ordinal order, one per '?')
// and executes it. The first unforced Run pays the optimizer's
// statistics probes and caches the chosen strategy on the CompiledQuery;
// later Runs — from any session, with any bindings — skip straight to
// execution. Pass options (e.g. WithSpec) to force a plan for one run
// without disturbing the cached choice.
func (cq *CompiledQuery) Run(params []value.Value, opts ...QueryOption) (*Result, error) {
	cfg := newQueryConfig(opts)
	return cq.runObserved(params, &cfg)
}

// runObserved is Run over a filled configuration: the hooks, the
// metrics and the session's last report see every run.
func (cq *CompiledQuery) runObserved(params []value.Value, cfg *queryConfig) (*Result, error) {
	db := cq.db
	// Wall-clock starts before the device-gate wait: queue time is part
	// of the latency a client observes.
	start := time.Now()
	if len(db.hooks) > 0 {
		db.fireHooks(QueryEvent{Phase: QueryStart, SQL: cq.shape.SQL})
	}
	res, err := cq.run(params, cfg)
	var rep *stats.Report
	if err == nil {
		rep = res.Report
	}
	db.observeQuery(cfg.session, cq.shape.SQL, time.Since(start), rep, err)
	return res, err
}

// run is the uninstrumented body of runObserved.
func (cq *CompiledQuery) run(params []value.Value, cfg *queryConfig) (*Result, error) {
	if cfg.ctx != nil {
		if err := cfg.ctx.Err(); err != nil {
			return nil, err
		}
	}
	bound, err := cq.shape.BindParams(params)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", plan.ErrBind, err)
	}
	return cq.db.route(cq, bound, cfg)
}

// run executes an already-bound query on p's device — plan choice under
// the gate, then the distributed pipeline — and fills res with the
// engine's half of the result (see engine.execute). sh remaps roots into
// the global key space; nil is the identity.
func (p *enginePlan) run(bound *plan.Query, cfg *queryConfig, sh *shardRemap, res *Result) error {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.fatalError(); err != nil {
		return err
	}
	visSel, err := e.visSelections(bound)
	if err != nil {
		return err
	}
	spec, ch, err := p.optimizeLocked(bound, visSel, cfg.spec, cfg.explain)
	if err != nil {
		return err
	}
	if err := e.execute(bound, spec, visSel, cfg.ctx, sh, res); err != nil {
		e.noteDeviceErr(err)
		return err
	}
	if ch != nil {
		res.choices = []*choice{ch}
	}
	return nil
}

// QueryWithPlan executes a prepared query under an explicit plan: one run
// of a throw-away compilation of q with the spec forced, so it is
// observed, validated and routed exactly as CompiledQuery.Run with
// WithSpec is.
func (db *DB) QueryWithPlan(q *plan.Query, spec plan.Spec, opts ...QueryOption) (*Result, error) {
	cfg := newQueryConfig(opts)
	return db.queryWithPlan(q, spec, &cfg)
}

// queryWithPlan is QueryWithPlan over a filled configuration.
func (db *DB) queryWithPlan(q *plan.Query, spec plan.Spec, cfg *queryConfig) (*Result, error) {
	if q.NumParams > 0 {
		return nil, fmt.Errorf("core: cannot execute a query with %d unbound parameters", q.NumParams)
	}
	spec = spec.Clone()
	cfg.spec = &spec
	return (&CompiledQuery{db: db, shape: q}).runObserved(nil, cfg)
}
