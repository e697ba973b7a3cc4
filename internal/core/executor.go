package core

// This file is the run phase: it executes one fully bound query under
// one concrete plan spec on the simulated device. Everything
// parameter-independent — parsing, binding, plan enumeration, the plan
// cache and the optimizer's choice — happens in the compile phase
// (compile.go); by the time execute runs, the query carries concrete
// predicate values and the strategy per predicate is fixed.
//
// There is one plan walk and it composes internal/exec's batch operators
// only, one call site per stage of the paper's Figure 5: climbing-index
// union/intersection and translation (rootStream), tombstone
// subtraction, SKT access fused with the Bloom/hidden filters, the Store
// pass, the projection passes and the final scan. The batch length is a
// host buffer size (exec.DefaultBatchSize; tests vary it through
// Env.SetBatchLen) and never changes a simulated cost: batchequiv_test.go
// holds lengths 1, 7 and 1024 to the frozen reports of the row-at-a-time
// reference engine (testdata/rowengine_golden.txt).
//
// What the device delivered is then read once, display-side and off the
// clock: the final scan marks the surviving sequence numbers in a bitmap,
// and one row walk (rowWalk) sweeps it, merging the base survivors with
// the delta-resident rows in query-root order. assemble hands each walked
// row, root and key remapped to global identifiers on a remapped shard,
// to the one consumer the query needs — a copy into the engine's half of
// the result for a query that returns physical rows, the grouper for an
// aggregated one (aggregate.go). The engine finishes nothing: the front
// door merges and finishes every query once (coordinator.go,
// shard_merge.go).

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"github.com/ghostdb/ghostdb/internal/bloom"
	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/skt"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
	"github.com/ghostdb/ghostdb/internal/visible"
)

// Result is a completed query: column labels, rows in query-root ID
// order, and the execution report. An engine fills one with its half of
// a query (engine.execute) for the front door to finish.
type Result struct {
	Columns []string
	Rows    [][]value.Value
	Report  *stats.Report
	Spec    plan.Spec
	Query   *plan.Query

	// Roots holds the global query-root identifier of each physical row,
	// parallel to Rows, in an engine's half of a non-aggregated query on
	// a remapped shard: the front door merges the shards' rows by it. Nil
	// in every finished result.
	Roots []uint32
	// grouper holds an aggregated query's groups in an engine's half, each
	// stamped with its smallest global root; the front door finishes from
	// it and returns it to its pool. Rows and Roots stay nil.
	grouper *exec.Grouper

	// ShardReports carries the execution report of every engine the
	// query contacted, indexed by shard (nil for the others). One entry
	// on a single device, and that entry is Report.
	ShardReports []*stats.Report

	// choices carries the optimizer choice of every device that ran an
	// explained query (queryConfig.explain), indexed like ShardReports.
	// Nil otherwise.
	choices []*choice
}

// forEachEntry visits the index entries matching p.
func forEachEntry(ix *climbing.Index, p pred.P, fn func(climbing.Entry) error) error {
	visitRange := func(lo, hi *climbing.Bound) error {
		it, err := ix.Range(lo, hi)
		if err != nil {
			return err
		}
		for {
			e, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	switch p.Form {
	case pred.FormCompare:
		switch p.Op {
		case sql.OpEq:
			e, ok, err := ix.LookupEq(p.Val)
			if err != nil || !ok {
				return err
			}
			return fn(e)
		case sql.OpNe:
			if err := visitRange(nil, &climbing.Bound{V: p.Val, Inclusive: false}); err != nil {
				return err
			}
			return visitRange(&climbing.Bound{V: p.Val, Inclusive: false}, nil)
		case sql.OpLt:
			return visitRange(nil, &climbing.Bound{V: p.Val, Inclusive: false})
		case sql.OpLe:
			return visitRange(nil, &climbing.Bound{V: p.Val, Inclusive: true})
		case sql.OpGt:
			return visitRange(&climbing.Bound{V: p.Val, Inclusive: false}, nil)
		case sql.OpGe:
			return visitRange(&climbing.Bound{V: p.Val, Inclusive: true}, nil)
		}
		return fmt.Errorf("core: unknown operator %v", p.Op)
	case pred.FormBetween:
		return visitRange(&climbing.Bound{V: p.Lo, Inclusive: true}, &climbing.Bound{V: p.Hi, Inclusive: true})
	case pred.FormIn:
		for _, v := range p.Set {
			e, ok, err := ix.LookupEq(v)
			if err != nil {
				return err
			}
			if ok {
				if err := fn(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return fmt.Errorf("core: unknown predicate form %d", p.Form)
}

// execute runs the distributed plan and fills res with the engine's half
// of the result: the physical rows in root order (with their global roots
// when sh remaps them), or the grouper an aggregated query folded them
// into. The front door finishes it (shard_merge.go). ctx (may be nil)
// cancels at batch boundaries. sh maps root identifiers and root-key
// projections to global ones; nil is the identity.
func (e *engine) execute(q *plan.Query, spec plan.Spec, visSel [][]uint32, ctx context.Context, sh *shardRemap, res *Result) error {
	e.dev.RAM.ResetHigh()
	flashStart := e.dev.Flash.Stats()
	busStart := e.net.Stats(trace.Terminal, trace.Device)
	clockStart := e.clock.Now()

	rep := &stats.Report{Query: q.SQL, PlanLabel: spec.Label}
	ex := executorPool.Get().(*executor)
	ex.reset(e, q, spec, rep, visSel)
	if ctx != nil {
		ex.ctx, ex.done = ctx, ctx.Done()
	}
	// Live-DML footprint: which base root rows the delta shadows, and
	// which root IDs must be re-evaluated against the effective state.
	ex.deltaDead, ex.deltaCands = e.deltaFootprint(q)

	runErr := ex.run()
	// Measure before cleanup: scratch erasure happens between queries.
	rep.TotalTime = e.clock.Span(clockStart)
	rep.RAMHigh = e.dev.RAM.High()
	rep.Flash = e.dev.Flash.Stats().Sub(flashStart)
	busNow := e.net.Stats(trace.Terminal, trace.Device)
	rep.BusBytes = busNow.Bytes - busStart.Bytes
	rep.BusMsgs = busNow.Messages - busStart.Messages

	// Feed the engine registry from the measured report. Atomic adds
	// only — no simulated-clock charges, so metrics cannot perturb any
	// reported timing or tuple count.
	e.metrics.batchesPulled.Add(ex.batches)
	e.metrics.flashPageReads.Add(rep.Flash.PageReads)
	e.metrics.busBytes.Add(rep.BusBytes)
	e.metrics.ramHighWater.Observe(rep.RAMHigh)

	ex.cleanup()
	if runErr != nil {
		ex.release()
		return runErr
	}

	// Everything from here on runs host-side on the secure display,
	// outside the simulated device.
	*res = Result{Spec: spec, Query: q, Report: rep}
	err := ex.assemble(res, sh)
	ex.release()
	return err
}

// release drops every per-query reference (keeping the reusable
// pointer-free backing storage) and returns the executor to the pool, so
// an idle pool entry does not pin the last query's projection stores or
// report.
func (ex *executor) release() {
	ex.e, ex.q, ex.rep, ex.visSel = nil, nil, nil, nil
	ex.spec = plan.Spec{}
	ex.deltaDead, ex.deltaCands, ex.deltaRows = nil, nil, nil
	ex.ctx, ex.done = nil, nil
	ex.proj.reset(0)
	clear(ex.layout)
	ex.layout = ex.layout[:0]
	clear(ex.hps)
	ex.hps = ex.hps[:0]
	clear(ex.kps)
	ex.kps = ex.kps[:0]
	executorPool.Put(ex)
}

// executorPool recycles executor scratch state (layout, field map and
// the pointer-free per-row buffers: the live-sequence bitmap and the
// seq->root map) across query executions. The projection stores hold
// result values and are dropped, not pooled. Nothing the executor hands
// out (Result, Report) points back into it.
var executorPool = sync.Pool{
	New: func() any { return &executor{field: map[string]int{}} },
}

// reset prepares a pooled executor for one execution, reusing the
// backing storage of its scratch slices and map.
func (ex *executor) reset(e *engine, q *plan.Query, spec plan.Spec, rep *stats.Report, visSel [][]uint32) {
	ex.e, ex.q, ex.spec, ex.rep, ex.visSel = e, q, spec, rep, visSel
	clear(ex.field)
	ex.layout = ex.layout[:0]
	ex.blooms = ex.blooms[:0]
	ex.rootBySeq = ex.rootBySeq[:0]
	ex.live.reset(0)
	ex.deltaDead, ex.deltaCands = nil, nil
	ex.deltaRows = ex.deltaRows[:0]
	ex.ctx, ex.done, ex.batches = nil, nil, 0
	ex.hps = ex.hps[:0]
	ex.kps = ex.kps[:0]
	ex.proj.reset(len(q.Projs))
}

// executor carries one query execution's state.
type executor struct {
	e    *engine
	q    *plan.Query
	spec plan.Spec
	rep  *stats.Report

	visSel [][]uint32 // per-pred PC selection result (nil for hidden preds)

	layout []string       // member tables in Row.IDs[1:]
	field  map[string]int // table -> field index in Row.IDs

	blooms []func() // bloom grant releases
	// proj holds the display-side projected values, keyed by the dense
	// sequence numbers the Store operator assigns; it is sized once the
	// candidate count is known (sizeProjStore).
	proj projStore
	// live marks the sequence numbers that survive to the final scan.
	live seqSet
	// rootBySeq maps each sequence number to its query-root ID, so the
	// assembled base rows can merge with delta-resident rows in root
	// order.
	rootBySeq []uint32
	hps       []hiddenProj // finalScan scratch
	kps       []keyProj    // finalScan scratch

	// Live-DML state for this execution: base root IDs to subtract from
	// the pipeline (their tree touches the delta), the candidate root IDs
	// re-evaluated against the effective state, and the resulting rows.
	deltaDead  map[uint32]struct{}
	deltaCands []uint32
	deltaRows  []deltaRow

	// ctx/done cancel the query at batch boundaries (nil: never).
	ctx  context.Context
	done <-chan struct{}
	// batches counts vectorized batches pulled, fed to the metrics
	// registry once per query.
	batches int64
}

// ctxBatchIter wraps the root ID stream: each pull checks cancellation
// and bumps the executor's batch counter.
type ctxBatchIter struct {
	in exec.BatchIter
	ex *executor
}

func (c *ctxBatchIter) Next(dst []uint32) (int, error) {
	if err := c.ex.checkCtx(); err != nil {
		return 0, err
	}
	n, err := c.in.Next(dst)
	if n > 0 {
		c.ex.batches++
	}
	return n, err
}

func (c *ctxBatchIter) Close() { c.in.Close() }

// checkCtx reports the context's cancellation error, if any; a nil done
// channel (no context) always passes. Called at batch boundaries only,
// so the non-blocking select stays off the per-tuple path.
func (ex *executor) checkCtx() error {
	if ex.done == nil {
		return nil
	}
	select {
	case <-ex.done:
		return ex.ctx.Err()
	default:
		return nil
	}
}

// deltaRow is one query result row served from the effective state
// (delta-resident or reachable through mutated ancestors).
type deltaRow struct {
	root uint32
	vals []value.Value
}

// hiddenProj is one hidden-column projection resolved in the final scan.
type hiddenProj struct {
	projIdx int
	field   int
	col     store.Column
	strs    *store.VarColumn // col, when it holds strings: fetched through the scan's interner
}

// keyProj is one primary-key projection emitted from the row IDs.
type keyProj struct {
	projIdx int
	field   int
}

// sizeProjStore sizes the projection store and the per-row buffers for n
// candidate rows (sequence numbers 0..n-1).
func (ex *executor) sizeProjStore(n int) {
	ex.proj.size(n)
	if cap(ex.rootBySeq) >= n {
		ex.rootBySeq = ex.rootBySeq[:n]
		clear(ex.rootBySeq)
	} else {
		ex.rootBySeq = make([]uint32, n)
	}
	ex.live.reset(n)
}

func (ex *executor) cleanup() {
	for _, free := range ex.blooms {
		free()
	}
	ex.blooms = nil
	_ = ex.e.dev.ResetScratch()
	ex.e.hid.Cache().Invalidate()
}

// probesLabel renders the Filter operator's probe-count detail
// (strconv.Itoa serves small counts from its static table).
func probesLabel(n int) string { return strconv.Itoa(n) + " probes" }

// strategyOf returns the effective strategy for predicate i.
func (ex *executor) strategyOf(i int) plan.Strategy { return ex.spec.Strategies[i] }

func (ex *executor) run() error {
	e, q := ex.e, ex.q

	if err := ex.checkCtx(); err != nil {
		return err
	}

	// The spy sees the query text (threat model: "the only information
	// revealed ... is which queries you pose and the visible data you
	// access").
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindQuery, len(q.SQL), q.SQL, nil); err != nil {
		return err
	}
	if err := e.net.Send(trace.Terminal, trace.Server, trace.KindQuery, len(q.SQL), q.SQL, nil); err != nil {
		return err
	}

	// Group predicates. Device-indexed visible predicates join the
	// hidden index contributions: they are evaluated entirely inside
	// the device (Figure 4's Doctor.Country index).
	visPreByTable := map[string][]int{}
	visPostByTable := map[string][]int{}
	var indexPreds, hidPostPreds []int
	for i := range q.Preds {
		switch ex.strategyOf(i) {
		case plan.StratVisPre:
			t := q.Preds[i].Col.Table
			visPreByTable[t] = append(visPreByTable[t], i)
		case plan.StratVisPost:
			t := q.Preds[i].Col.Table
			visPostByTable[t] = append(visPostByTable[t], i)
		case plan.StratHidIndex, plan.StratVisDevice:
			indexPreds = append(indexPreds, i)
		case plan.StratHidPost:
			hidPostPreds = append(hidPostPreds, i)
		}
	}

	// Delegation trace for visible predicates.
	for i := range q.Preds {
		if q.Preds[i].Hidden() {
			continue
		}
		note := q.Preds[i].String()
		if err := e.net.Send(trace.Terminal, trace.Server, trace.KindDelegation, len(note), note, nil); err != nil {
			return err
		}
		if err := e.net.Send(trace.Server, trace.Terminal, trace.KindCount, 8,
			fmt.Sprintf("|%s|=%d", q.Preds[i].Col, len(ex.visSel[i])), nil); err != nil {
			return err
		}
	}

	// Row layout: which member tables must travel with each row.
	ex.buildLayout(visPostByTable, hidPostPreds)

	// Device-side contributions and the root ID stream.
	rootIter, err := ex.rootStream(visPreByTable, indexPreds)
	if err != nil {
		return err
	}
	// Cancellation checks and the batches-pulled count ride the batch
	// boundary: one non-blocking select and one local increment per
	// pull, nothing per tuple.
	rootIter = &ctxBatchIter{in: rootIter, ex: ex}

	// Live DML: subtract base root rows whose referenced tree touches
	// the delta. The index structures answered for the base segments
	// only; these rows are re-evaluated against the effective state
	// after the pipeline (evalDeltaRows).
	if len(ex.deltaDead) > 0 {
		dead := ex.deltaDead
		probe := func(id uint32) bool { _, ok := dead[id]; return ok }
		op := ex.rep.NewOp("Tombstones", q.Root.Name)
		rootIter = e.env.FilterDeadBatch(rootIter, probe, op)
	}

	// Bloom filters for post-filtered tables, then hidden post
	// predicates (attribute-fetch filters), in that order.
	blooms, err := ex.buildBlooms(visPostByTable)
	if err != nil {
		rootIter.Close()
		return err
	}
	type hidFilter struct {
		col   store.Column
		field int
		p     pred.P
	}
	var hidFilters []hidFilter
	for _, i := range hidPostPreds {
		p := q.Preds[i]
		td, ok := e.hid.Table(p.Col.Table)
		if !ok {
			rootIter.Close()
			return fmt.Errorf("core: no hidden table %s", p.Col.Table)
		}
		col, ok := td.Column(p.Col.Column)
		if !ok {
			rootIter.Close()
			return fmt.Errorf("core: no hidden column %s", p.Col)
		}
		hidFilters = append(hidFilters, hidFilter{col: col, field: ex.field[p.Col.Table], p: p.P})
	}
	nFilters := len(blooms) + len(hidFilters)

	// SKT access + filtering + store (Figure 5's lower pipeline).
	var sktTable *skt.SKT
	if len(ex.layout) > 0 {
		s, ok := e.skts[q.Root.Name]
		if !ok {
			rootIter.Close()
			return fmt.Errorf("core: no SKT rooted at %s", q.Root.Name)
		}
		sktTable = s
	}
	spec := exec.JoinFilterSpec{SKT: sktTable, Tables: ex.layout}
	for _, b := range blooms {
		spec.Filters = append(spec.Filters, e.env.BloomProbeCosted(b.f, b.field))
	}
	for _, h := range hidFilters {
		spec.Filters = append(spec.Filters, e.env.HiddenPredCosted(h.col, h.field, h.p))
	}
	spec.JoinOp = ex.rep.NewOp("AccessSKT", q.Root.Name)
	spec.FilterOp = ex.rep.NewOp("Filter", probesLabel(nFilters))
	rows, err := e.env.JoinFilterBatch(rootIter, spec)
	if err != nil {
		rootIter.Close()
		return err
	}
	storeOp := ex.rep.NewOp("Store", "materialize candidates")
	phase := e.clock.Now()
	rf, err := e.env.MaterializeRowsBatch(rows, 1+len(ex.layout), true, storeOp)
	if err != nil {
		return err
	}
	storeOp.AddTime(e.clock.Span(phase))
	storeOp.NoteRAM(e.dev.RAM.Used())

	if err := ex.checkCtx(); err != nil {
		return err
	}

	// The Store pass assigned dense sequence numbers 0..n-1; size the
	// display-side projection stores accordingly.
	ex.sizeProjStore(rf.Count())

	// Projection and verification passes.
	rf, err = ex.projectionPasses(rf, visPostByTable)
	if err != nil {
		return err
	}

	// Device-side projections (hidden columns, primary keys) and the
	// final surviving sequence scan.
	if err := ex.finalScan(rf); err != nil {
		return err
	}

	// Live DML: re-evaluate the delta-affected root candidates against
	// the effective state and ship the matches to the secure display.
	return ex.evalDeltaRows()
}

// evalDeltaRows evaluates the delta-affected candidate root IDs (the
// subtracted base rows plus the root's delta-resident rows) directly:
// chain liveness, every predicate over effective values, projections
// from the delta images in device RAM or the base stores. Costs are
// charged like any device work — RAM row decodes, predicate cycles, and
// page-cache reads for base hidden values — identically at every batch
// granularity.
func (ex *executor) evalDeltaRows() error {
	if len(ex.deltaCands) == 0 {
		return nil
	}
	e, q := ex.e, ex.q
	// Resolve every predicate and projection column once, not per row.
	root := e.views[q.Root.Ordinal()]
	preds := make([]deltaCol, len(q.Preds))
	projs := make([]deltaCol, len(q.Projs))
	for i := range q.Preds {
		var err error
		if preds[i], err = e.deltaColOf(root, q.Preds[i].Col); err != nil {
			return err
		}
	}
	for j, c := range q.Projs {
		var err error
		if projs[j], err = e.deltaColOf(root, c); err != nil {
			return err
		}
	}

	op := ex.rep.NewOp("DeltaScan", probesLabel(len(ex.deltaCands)))
	phase := e.clock.Now()
	lv := e.newLiveness()
	resultBytes := 0
	for n, id := range ex.deltaCands {
		if n&63 == 0 {
			if err := ex.checkCtx(); err != nil {
				return err
			}
		}
		op.AddIn(1)
		e.dev.CPU.Charge(sim.CyclesDeltaRow)
		if !lv.live(q.Root.Ordinal(), id) {
			continue
		}
		match := true
		for i := range preds {
			v, err := e.effectiveAt(id, &preds[i])
			if err != nil {
				return err
			}
			e.dev.CPU.Charge(sim.CyclesPredicate)
			ok, err := q.Preds[i].P.Eval(v)
			if err != nil {
				return err
			}
			if !ok {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		vals := make([]value.Value, len(projs))
		for j := range projs {
			v, err := e.effectiveAt(id, &projs[j])
			if err != nil {
				return err
			}
			vals[j] = v
			resultBytes += 4 + v.EncodedSize()
		}
		resultBytes += 4 // the root ID itself
		op.AddOut(1)
		ex.deltaRows = append(ex.deltaRows, deltaRow{root: id, vals: vals})
	}
	op.AddTime(e.clock.Span(phase))
	return ex.sendResultBytes(resultBytes, "delta rows")
}

// deltaCol is a query column resolved for the delta scan: its table's
// view, its position there, and the foreign-key hops leading down to
// that table from the query root.
type deltaCol struct {
	tv   *tableView
	ci   int
	hops []fkHop
}

func (e *engine) deltaColOf(root *tableView, c plan.Col) (deltaCol, error) {
	t := e.mustTable(c.Table)
	dc := deltaCol{tv: e.views[t.Ordinal()], ci: t.ColumnIndex(c.Column)}
	var err error
	dc.hops, err = e.descent(root, dc.tv)
	return dc, err
}

// effectiveAt reads c's current value for the query-root row id.
func (e *engine) effectiveAt(id uint32, c *deltaCol) (value.Value, error) {
	mid, err := e.effectiveDescend(id, c.hops)
	if err != nil {
		return value.Value{}, err
	}
	return e.valueOf(c.tv, e.image(c.tv, mid), c.ci, mid)
}

// buildLayout decides which member tables each row carries.
func (ex *executor) buildLayout(visPostByTable map[string][]int, hidPostPreds []int) {
	need := map[string]bool{}
	for t := range visPostByTable {
		need[t] = true
	}
	for _, i := range hidPostPreds {
		need[ex.q.Preds[i].Col.Table] = true
	}
	for _, c := range ex.q.Projs {
		need[c.Table] = true
	}
	delete(need, ex.q.Root.Name)
	ex.field[ex.q.Root.Name] = 0
	for _, t := range ex.q.Tables {
		if need[t] {
			ex.layout = append(ex.layout, t)
			ex.field[t] = len(ex.layout) // IDs[0] is the root
		}
	}
}

// contrib is one filtering contribution: either a hidden climbing-index
// lookup (posting lists at every level of its path) or a shipped visible
// pre-filter list at its own table's level.
type contrib struct {
	table string
	ix    *climbing.Index      // hidden contribution
	refs  [][]climbing.ListRef // per level of ix.Levels
	run   *exec.RunSource      // visible pre-filter list (own level)
}

// rootStream builds the sorted query-root ID stream by integrating all
// pre-SKT contributions, with or without cross-filtering.
func (ex *executor) rootStream(visPreByTable map[string][]int, indexPreds []int) (exec.BatchIter, error) {
	e, q := ex.e, ex.q
	contribs := make([]contrib, 0, len(indexPreds)+len(visPreByTable))

	// Index contributions (hidden predicates, and device-indexed
	// visible predicates).
	for _, i := range indexPreds {
		p := q.Preds[i]
		ix, _ := e.indexLocked(p.Col.Table, p.Col.Column)
		op := ex.rep.NewOp("ClimbingIndex", q.PredLabel(i))
		phase := e.clock.Now()
		refs := make([][]climbing.ListRef, len(ix.Levels))
		err := forEachEntry(ix, p.P, func(ent climbing.Entry) error {
			for l, r := range ent.Lists {
				if r.Count > 0 {
					refs[l] = append(refs[l], r)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		op.AddTime(e.clock.Span(phase))
		for _, r := range refs[0] {
			op.AddOut(int64(r.Count))
		}
		contribs = append(contribs, contrib{table: p.Col.Table, ix: ix, refs: refs})
	}

	// Visible pre-filter contributions: ship the (per-table intersected)
	// ID lists into the device and spill them as scratch runs.
	// Deterministic order: map iteration order must not decide how
	// contributions hit the (tight) scratch arena.
	preTables := make([]string, 0, len(visPreByTable))
	for t := range visPreByTable {
		preTables = append(preTables, t)
	}
	sort.Strings(preTables)
	for _, t := range preTables {
		idxs := visPreByTable[t]
		ids := ex.visSel[idxs[0]]
		for _, i := range idxs[1:] {
			ids = visible.IntersectSorted(ids, ex.visSel[i])
		}
		op := ex.rep.NewOp("ShipIDList", t)
		phase := e.clock.Now()
		run, err := ex.shipIDList(ids, t, op)
		if err != nil {
			return nil, err
		}
		op.AddTime(e.clock.Span(phase))
		contribs = append(contribs, contrib{table: t, run: &run})
	}

	rootRows := e.rowCounts[q.Root.Name]
	if len(contribs) == 0 {
		return &seqBatch{max: uint32(rootRows)}, nil
	}

	fanin := e.env.Fanin(0.5)
	if ex.spec.CrossFilter {
		return ex.crossFilteredRoot(contribs, fanin)
	}

	// Direct integration: every contribution yields a root-level stream.
	// Under a tight RAM budget the device cannot keep several merge
	// pipelines open at once: it materializes each contribution's root
	// list to scratch sequentially and intersects the (one-page) runs.
	spillMode := len(contribs) > 1 && ex.tightRAM(len(contribs))
	var rootIters []exec.BatchIter
	var runs []exec.RunSource
	closeAll := func() {
		for _, it := range rootIters {
			it.Close()
		}
	}
	for _, c := range contribs {
		it, err := ex.contribAtRoot(c, fanin)
		if err != nil {
			closeAll()
			return nil, err
		}
		if spillMode {
			op := ex.rep.NewOp("Store", "contribution@"+c.table)
			run, err := e.env.SpillBatch(it, op)
			if err != nil {
				closeAll()
				return nil, err
			}
			runs = append(runs, run)
			continue
		}
		rootIters = append(rootIters, it)
	}
	for _, run := range runs {
		it, err := run.OpenBatch()
		if err != nil {
			closeAll()
			return nil, err
		}
		rootIters = append(rootIters, it)
	}
	return e.env.MergeIntersectBatch(rootIters)
}

// tightRAM reports whether n concurrent merge pipelines would endanger
// the arena: each needs a few stream pages plus spill-writer slack.
func (ex *executor) tightRAM(n int) bool {
	pages := ex.e.dev.RAM.Available() / int64(ex.e.dev.Profile.Flash.PageSize)
	return int64(4*(n+1)) > pages
}

// contribAtRoot opens a contribution as a stream of query-root IDs.
func (ex *executor) contribAtRoot(c contrib, fanin int) (exec.BatchIter, error) {
	e, q := ex.e, ex.q
	if c.ix != nil {
		level := c.ix.LevelOf(q.Root.Name)
		if level < 0 {
			return nil, fmt.Errorf("core: index on %s does not climb to %s", c.table, q.Root.Name)
		}
		op := ex.rep.NewOp("MergeLists", c.table+"@"+q.Root.Name)
		return e.env.UnionBatch(e.env.ListSources(c.ix, c.refs[level]), fanin, op)
	}
	// Visible pre-filter run.
	it, err := c.run.OpenBatch()
	if err != nil {
		return nil, err
	}
	if c.table == q.Root.Name {
		return it, nil
	}
	tr, err := e.translator(c.table)
	if err != nil {
		it.Close()
		return nil, err
	}
	level := tr.LevelOf(q.Root.Name)
	if level < 0 {
		return nil, fmt.Errorf("core: translator on %s does not reach %s", c.table, q.Root.Name)
	}
	op := ex.rep.NewOp("Translate", fmt.Sprintf("%s->%s", c.table, q.Root.Name))
	phase := e.clock.Now()
	out, err := e.env.TranslateBatch(it, tr, level, fanin, op)
	op.AddTime(e.clock.Span(phase))
	return out, err
}

// contribAtOwn opens a contribution as a stream at its own table level.
func (ex *executor) contribAtOwn(c contrib, fanin int) (exec.BatchIter, error) {
	e := ex.e
	if c.ix != nil {
		op := ex.rep.NewOp("MergeLists", c.table)
		return e.env.UnionBatch(e.env.ListSources(c.ix, c.refs[0]), fanin, op)
	}
	return c.run.OpenBatch()
}

// crossFilteredRoot combines contributions level by level: intersect at
// each table, translate the (smaller) intersection upward to the nearest
// table with contributions, repeat — the paper's cross-filtering.
func (ex *executor) crossFilteredRoot(contribs []contrib, fanin int) (exec.BatchIter, error) {
	e, q := ex.e, ex.q
	byTable := map[string][]contrib{}
	for _, c := range contribs {
		byTable[c.table] = append(byTable[c.table], c)
	}
	// Order tables deepest first.
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
	}
	sort.Slice(tables, func(i, j int) bool {
		di, dj := e.sch.Depth(tables[i]), e.sch.Depth(tables[j])
		if di != dj {
			return di > dj
		}
		return tables[i] < tables[j]
	})

	spillMode := len(contribs) > 1 && ex.tightRAM(len(byTable))
	park := func(it exec.BatchIter, note string) (exec.BatchIter, error) {
		if !spillMode {
			return it, nil
		}
		op := ex.rep.NewOp("Store", note)
		run, err := e.env.SpillBatch(it, op)
		if err != nil {
			return nil, err
		}
		return run.OpenBatch()
	}

	// pending holds intersections translated up to a table not yet walked.
	// Each is keyed by the nearest ancestor with contributions of its own —
	// a table of byTable, strictly shallower than the one that filled it —
	// so the deepest-first walk reaches every key later and drains it (the
	// lone-contribution shortcut fires only on an empty entry): pending is
	// empty when the walk ends.
	pending := map[string][]exec.BatchIter{}
	var rootIters []exec.BatchIter
	for _, t := range tables {
		var iters []exec.BatchIter
		group := byTable[t]
		// A lone hidden contribution with no partners at this level is
		// cheaper integrated directly at the root (its root list is
		// precomputed).
		if t != q.Root.Name && len(group) == 1 && len(pending[t]) == 0 && group[0].ix != nil {
			it, err := ex.contribAtRoot(group[0], fanin)
			if err != nil {
				return nil, err
			}
			if it, err = park(it, "contribution@"+t); err != nil {
				return nil, err
			}
			rootIters = append(rootIters, it)
			continue
		}
		for _, c := range group {
			it, err := ex.contribAtOwn(c, fanin)
			if err != nil {
				return nil, err
			}
			iters = append(iters, it)
		}
		iters = append(iters, pending[t]...)
		delete(pending, t)
		combined, err := e.env.MergeIntersectBatch(iters)
		if err != nil {
			return nil, err
		}
		if t == q.Root.Name {
			rootIters = append(rootIters, combined)
			continue
		}
		// Translate the intersection up to the nearest ancestor with
		// contributions (the root when none has).
		target := q.Root.Name
		for _, anc := range e.sch.PathToRoot(t)[1:] {
			if _, ok := byTable[anc.Name]; ok {
				target = anc.Name
				break
			}
		}
		tr, err := e.translator(t)
		if err != nil {
			return nil, err
		}
		level := tr.LevelOf(target)
		op := ex.rep.NewOp("Translate", fmt.Sprintf("%s->%s (cross)", t, target))
		phase := e.clock.Now()
		translated, err := e.env.TranslateBatch(combined, tr, level, fanin, op)
		op.AddTime(e.clock.Span(phase))
		if err != nil {
			return nil, err
		}
		if translated, err = park(translated, fmt.Sprintf("translated %s->%s", t, target)); err != nil {
			return nil, err
		}
		if target == q.Root.Name {
			rootIters = append(rootIters, translated)
		} else {
			pending[target] = append(pending[target], translated)
		}
	}
	return e.env.MergeIntersectBatch(rootIters)
}

// shipIDList streams a sorted visible ID list server->terminal->device in
// bus-chunked messages and spills it to a scratch run on the device.
func (ex *executor) shipIDList(ids []uint32, table string, op *stats.Op) (exec.RunSource, error) {
	op.AddIn(int64(len(ids)))
	b := &busIDBatch{ex: ex, ids: ids, note: table + " IDs", kind: trace.KindIDList}
	return ex.e.env.SpillBatch(b, op)
}

// builtBloom is one constructed Bloom filter and the row field it probes.
type builtBloom struct {
	f     *bloom.Filter
	field int
}

// buildBlooms ships each post-filtered table's ID list and hashes it into
// a Bloom filter sized to fit the remaining RAM.
func (ex *executor) buildBlooms(visPostByTable map[string][]int) ([]builtBloom, error) {
	e := ex.e
	var filters []builtBloom
	// Deterministic order.
	var tables []string
	for t := range visPostByTable {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	remaining := len(tables)
	for _, t := range tables {
		idxs := visPostByTable[t]
		ids := ex.visSel[idxs[0]]
		for _, i := range idxs[1:] {
			ids = visible.IntersectSorted(ids, ex.visSel[i])
		}
		op := ex.rep.NewOp("BloomBuild", t)
		phase := e.clock.Now()
		maxBytes := int(e.dev.RAM.Available()) / (remaining + 1)
		b := &busIDBatch{ex: ex, ids: ids, note: t + " IDs (bloom)", kind: trace.KindIDList}
		f, free, err := e.env.BuildBloomBatch(b, len(ids), e.opts.TargetFPR, maxBytes, op)
		if err != nil {
			return nil, err
		}
		op.AddTime(e.clock.Span(phase))
		op.Detail = fmt.Sprintf("%s fpr=%.4f", t, f.EstimatedFPR())
		ex.blooms = append(ex.blooms, free)
		filters = append(filters, builtBloom{f: f, field: ex.field[t]})
		remaining--
	}
	return filters, nil
}

// projectionPasses runs one sort+merge pass per table that needs a
// visible stream: attaching projected visible values and verifying
// post-filtered predicates exactly (repairing Bloom false positives).
func (ex *executor) projectionPasses(rf *exec.RowFile, visPostByTable map[string][]int) (*exec.RowFile, error) {
	e, q := ex.e, ex.q

	// Visible (non-PK) projected columns per table.
	visProj := map[string][]int{} // table -> projection indexes
	for j, c := range q.Projs {
		if c.Hidden {
			continue
		}
		t, _ := e.sch.Table(c.Table)
		if col, _ := t.Column(c.Column); col != nil && col.PrimaryKey {
			continue // IDs are on the device already
		}
		visProj[c.Table] = append(visProj[c.Table], j)
	}

	// Pass list: root first (the file starts sorted by root ID), then
	// the other tables in FROM order.
	passSet := map[string]bool{}
	for t := range visProj {
		passSet[t] = true
	}
	for t := range visPostByTable {
		passSet[t] = true
	}
	var passes []string
	if passSet[q.Root.Name] {
		passes = append(passes, q.Root.Name)
	}
	for _, t := range q.Tables {
		if t != q.Root.Name && passSet[t] {
			passes = append(passes, t)
		}
	}

	sortedBy := q.Root.Name
	for _, t := range passes {
		if err := ex.checkCtx(); err != nil {
			return nil, err
		}
		field := ex.field[t]
		if sortedBy != t {
			op := ex.rep.NewOp("Sort", "by "+t)
			phase := e.clock.Now()
			bufBytes := int(e.dev.RAM.Available()) / 2
			var err error
			rf, err = e.env.SortRowFile(rf, field, bufBytes, e.env.Fanin(0.25), op)
			if err != nil {
				return nil, err
			}
			op.AddTime(e.clock.Span(phase))
			sortedBy = t
		}
		restrict := ex.visRestriction(t)
		cols := visProj[t]
		if len(cols) == 0 {
			// Verification-only pass.
			var err error
			rf, err = ex.mergePass(rf, t, field, "", nil, restrict, true)
			if err != nil {
				return nil, err
			}
			continue
		}
		for k, projIdx := range cols {
			rewrite := k == 0 // the first merge performs the verification
			var err error
			rf, err = ex.mergePass(rf, t, field, q.Projs[projIdx].Column, []int{projIdx}, restrict, rewrite)
			if err != nil {
				return nil, err
			}
		}
	}
	return rf, nil
}

// visRestriction returns the intersected visible selection for a table,
// or nil when the table has no visible predicate (stream everything).
func (ex *executor) visRestriction(table string) []uint32 {
	var ids []uint32
	first := true
	for i, p := range ex.q.Preds {
		if p.Hidden() || p.Col.Table != table {
			continue
		}
		if first {
			ids = ex.visSel[i]
			first = false
		} else {
			ids = visible.IntersectSorted(ids, ex.visSel[i])
		}
	}
	return ids
}

// mergePass merges the row file (sorted by field) against one visible
// stream. column == "" streams bare IDs (verification only); otherwise
// the projected values are recorded for the given projection indexes.
// When rewrite is set, survivors are written to a new row file.
func (ex *executor) mergePass(rf *exec.RowFile, table string, field int, column string, projIdxs []int, restrict []uint32, rewrite bool) (*exec.RowFile, error) {
	e := ex.e
	vt, ok := e.vis.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: no visible table %s", table)
	}
	var kvs []visible.KV
	var err error
	if column == "" {
		pk := mustPK(e, table)
		kvs, err = vt.ProjectSorted(pk, restrict)
	} else {
		kvs, err = vt.ProjectSorted(column, restrict)
	}
	if err != nil {
		return nil, err
	}
	label := table
	if column != "" {
		label = table + "." + column
	}
	op := ex.rep.NewOp("MergeProject", label)
	phase := e.clock.Now()
	stream := &busKVIter{ex: ex, kvs: kvs, note: label + " stream"}

	var out *exec.RowFileWriter
	resultBytes := 0
	matchFn := func(r exec.Row, v value.Value) error {
		for _, j := range projIdxs {
			ex.proj.set(j, r.Seq, v)
			resultBytes += 4 + v.EncodedSize()
		}
		if out != nil {
			return out.Write(r)
		}
		return nil
	}
	rows, err := rf.IterBatch()
	if err != nil {
		return nil, err
	}
	if rewrite {
		out, err = e.env.NewRowFileWriter(rf.Fields())
		if err != nil {
			rows.Close()
			return nil, err
		}
	}
	err = e.env.MergeRowsWithStreamBatch(rows, field, stream, op, matchFn)
	if err != nil {
		if out != nil {
			out.Abort()
		}
		return nil, err
	}
	// Matched values go to the secure display as they are produced.
	if len(projIdxs) > 0 {
		if err := ex.sendResultBytes(resultBytes, label); err != nil {
			return nil, err
		}
	}
	if out != nil {
		// The rewrite's copy cycles belong to this operator's span; the
		// final page program of Close has always been outside it.
		out.Settle()
	}
	op.AddTime(e.clock.Span(phase))
	if out == nil {
		return rf, nil
	}
	return out.Close()
}

func mustPK(e *engine, table string) string {
	t, _ := e.sch.Table(table)
	return t.PrimaryKey().Name
}

// finalScan walks the surviving rows: collects live sequence numbers,
// fetches hidden projections from the device store, emits primary-key
// projections directly from the row IDs, and ships everything to the
// secure display.
func (ex *executor) finalScan(rf *exec.RowFile) error {
	e, q := ex.e, ex.q
	op := ex.rep.NewOp("Project", "hidden + keys")
	phase := e.clock.Now()

	hps, kps := ex.hps[:0], ex.kps[:0]
	for j, c := range q.Projs {
		if c.Hidden {
			td, ok := e.hid.Table(c.Table)
			if !ok {
				return fmt.Errorf("core: no hidden table %s", c.Table)
			}
			col, ok := td.Column(c.Column)
			if !ok {
				return fmt.Errorf("core: no hidden column %s", c)
			}
			strs, _ := col.(*store.VarColumn)
			hps = append(hps, hiddenProj{projIdx: j, field: ex.field[c.Table], col: col, strs: strs})
			continue
		}
		t, _ := e.sch.Table(c.Table)
		if sc, _ := t.Column(c.Column); sc != nil && sc.PrimaryKey {
			kps = append(kps, keyProj{projIdx: j, field: ex.field[c.Table]})
		}
	}
	ex.hps, ex.kps = hps, kps

	resultBytes := 0
	var seen value.Interner // this scan's repeated hidden strings
	// scanRow collects one surviving row: its live sequence number, the
	// hidden projections fetched from the device store (page-cache
	// accesses in row order) and the primary-key projections.
	scanRow := func(r exec.Row) error {
		ex.live.add(r.Seq)
		ex.rootBySeq[r.Seq] = r.IDs[0]
		for _, hp := range hps {
			var v value.Value
			var err error
			if row := int(r.IDs[hp.field]) - 1; hp.strs != nil {
				v, err = hp.strs.ValueInterned(row, &seen)
			} else {
				v, err = hp.col.Value(row)
			}
			if err != nil {
				return err
			}
			ex.proj.set(hp.projIdx, r.Seq, v)
			resultBytes += 4 + v.EncodedSize()
		}
		for _, kp := range kps {
			v := value.NewInt(int64(r.IDs[kp.field]))
			ex.proj.set(kp.projIdx, r.Seq, v)
			resultBytes += 4 + v.EncodedSize()
		}
		resultBytes += 4 // the live seq itself
		return nil
	}
	it, err := rf.IterBatch()
	if err != nil {
		return err
	}
	defer it.Close()
	rb := e.env.NewRowBatch(rf.Fields())
	defer exec.PutRowBatch(rb)
	for {
		if err := ex.checkCtx(); err != nil {
			return err
		}
		k, err := it.Next(rb)
		if err != nil {
			return err
		}
		if k == 0 {
			break
		}
		ex.batches++
		op.AddIn(int64(k))
		for i := 0; i < k; i++ {
			if err := scanRow(rb.Row(i)); err != nil {
				return err
			}
		}
	}
	op.AddOut(int64(ex.live.n))
	op.AddTime(e.clock.Span(phase))
	return ex.sendResultBytes(resultBytes, "result rows")
}

// sendResultBytes charges chunked transfers on the secure device->display
// channel.
func (ex *executor) sendResultBytes(n int, note string) error {
	if n == 0 {
		return nil
	}
	chunk := ex.e.opts.Profile.BusChunkBytes
	for n > 0 {
		sz := chunk
		if n < sz {
			sz = n
		}
		if err := ex.e.net.Send(trace.Device, trace.Display, trace.KindResult, sz, note, nil); err != nil {
			return err
		}
		n -= sz
	}
	return nil
}

// seqSet is a set of distinct sequence numbers below a bound, as a
// bitmap. The final scan meets the survivors in the order of the last
// projection pass's sort key; marking them here and sweeping the words
// hands them to the walk in ascending order without a comparison sort.
type seqSet struct {
	words []uint64
	n     int // members
}

// reset empties the set and sizes it for members below bound, reusing
// the backing storage.
func (s *seqSet) reset(bound int) {
	words := (bound + 63) / 64
	s.words = slices.Grow(s.words[:0], words)[:words]
	clear(s.words)
	s.n = 0
}

func (s *seqSet) add(seq uint32) {
	s.words[seq>>6] |= 1 << (seq & 63)
	s.n++
}

// rowWalk is the one traversal of an execution's physical rows: the base
// pipeline's survivors merged with the delta-resident rows in query-root
// ID order. The two are disjoint — shadowed roots were subtracted from the
// base stream — and each is ordered by root: delta rows by construction,
// base rows because the Store pass numbered them in root order.
type rowWalk struct {
	ex   *executor
	word uint64 // unvisited members of live.words[wi]
	wi   int
	di   int
}

func (ex *executor) newWalk() rowWalk { return rowWalk{ex: ex, wi: -1} }

// next copies the next row in root order into dst (len(q.Projs) wide) and
// returns its query-root ID; ok=false ends the walk.
func (w *rowWalk) next(dst []value.Value) (root uint32, ok bool) {
	ex := w.ex
	for w.word == 0 && w.wi+1 < len(ex.live.words) {
		w.wi++
		w.word = ex.live.words[w.wi]
	}
	seq := w.wi<<6 + bits.TrailingZeros64(w.word) // the next survivor, if word != 0
	if w.di < len(ex.deltaRows) {
		d := &ex.deltaRows[w.di]
		if w.word == 0 || d.root < ex.rootBySeq[seq] {
			w.di++
			copy(dst, d.vals)
			return d.root, true
		}
	}
	if w.word == 0 {
		return 0, false
	}
	w.word &= w.word - 1
	for j := range dst {
		dst[j] = ex.proj.get(j, seq)
	}
	return ex.rootBySeq[seq], true
}

// assemble hands the walk to the front door, on the secure display side.
// An aggregated query folds it straight into its grouper (aggregate.go)
// and never materialises a physical row; any other query copies it into
// rows that share one flat backing array — two allocations for the whole
// result instead of one per row — with their global roots when sh remaps
// them.
func (ex *executor) assemble(res *Result, sh *shardRemap) error {
	q := ex.q
	n := ex.live.n + len(ex.deltaRows)
	if q.Aggregated() {
		return ex.aggregate(res, sh, n)
	}
	// With post-operators the LIMIT applies to the finished result
	// (after ordering/dedup), not to the physical rows. LIMIT 0 is the
	// standard zero-row probe.
	if !q.HasPostOps() && q.HasLimit && n > q.Limit {
		n = q.Limit
	}
	nproj := len(q.Projs)
	flat := make([]value.Value, n*nproj)
	res.Rows = make([][]value.Value, n)
	if sh != nil {
		res.Roots = make([]uint32, n)
	}
	w := ex.newWalk()
	for i := range res.Rows {
		row := flat[i*nproj : (i+1)*nproj : (i+1)*nproj]
		root, _ := w.next(row) // n never exceeds the walk's length
		if sh != nil {
			g, err := sh.apply(root, row)
			if err != nil {
				return err
			}
			res.Roots[i] = g
		}
		res.Rows[i] = row
	}
	ex.rep.ResultRows = n
	return nil
}

// busIDBatch streams a host-side ID list through the network charge model
// (server->terminal LAN hop and terminal->device USB hop per chunk) while
// the device consumes it. Messages go out at bus-chunk boundaries of the
// list, wherever the consumer's batches happen to end, so the wire trace
// and charges do not depend on the batch length.
type busIDBatch struct {
	ex   *executor
	ids  []uint32
	i    int
	note string
	kind trace.Kind
}

func (b *busIDBatch) Next(dst []uint32) (int, error) {
	if b.i >= len(b.ids) {
		return 0, nil
	}
	chunkIDs := b.ex.e.opts.Profile.BusChunkBytes / 4
	if chunkIDs < 1 {
		chunkIDs = 1
	}
	n := 0
	for n < len(dst) && b.i < len(b.ids) {
		if b.i%chunkIDs == 0 {
			c := len(b.ids) - b.i
			if c > chunkIDs {
				c = chunkIDs
			}
			var vals []value.Value
			if b.ex.e.rec.Level() == trace.CaptureFull {
				for _, id := range b.ids[b.i : b.i+c] {
					vals = append(vals, value.NewInt(int64(id)))
				}
			}
			if err := b.ex.e.net.Send(trace.Server, trace.Terminal, b.kind, c*4, b.note, vals); err != nil {
				return n, err
			}
			if err := b.ex.e.net.Send(trace.Terminal, trace.Device, b.kind, c*4, b.note, vals); err != nil {
				return n, err
			}
		}
		// Copy up to the next chunk boundary (where a send is due), the
		// end of the list, or the batch capacity — whichever is first.
		seg := chunkIDs - b.i%chunkIDs
		if rest := len(b.ids) - b.i; seg > rest {
			seg = rest
		}
		if room := len(dst) - n; seg > room {
			seg = room
		}
		copy(dst[n:n+seg], b.ids[b.i:b.i+seg])
		n += seg
		b.i += seg
	}
	return n, nil
}

func (b *busIDBatch) Close() {}

// busKVIter streams (id, value) projection pairs with the same two-hop
// charging; the values are captured for the security audit.
type busKVIter struct {
	ex       *executor
	kvs      []visible.KV
	i        int
	note     string
	chunkEnd int
}

func (b *busKVIter) Next() (exec.KV, bool, error) {
	if b.i >= len(b.kvs) {
		return exec.KV{}, false, nil
	}
	if b.i >= b.chunkEnd {
		chunkBytes := b.ex.e.opts.Profile.BusChunkBytes
		bytes := 0
		end := b.i
		var vals []value.Value
		capture := b.ex.e.rec.Level() == trace.CaptureFull
		for end < len(b.kvs) && bytes < chunkBytes {
			bytes += 4 + b.kvs[end].Val.EncodedSize()
			if capture {
				vals = append(vals, b.kvs[end].Val)
			}
			end++
		}
		if err := b.ex.e.net.Send(trace.Server, trace.Terminal, trace.KindProjection, bytes, b.note, vals); err != nil {
			return exec.KV{}, false, err
		}
		if err := b.ex.e.net.Send(trace.Terminal, trace.Device, trace.KindProjection, bytes, b.note, vals); err != nil {
			return exec.KV{}, false, err
		}
		b.chunkEnd = end
	}
	kv := b.kvs[b.i]
	b.i++
	return exec.KV{ID: kv.ID, Val: kv.Val}, true, nil
}

func (b *busKVIter) Close() {}

// seqBatch scans 1..max (full root scan when no predicate contributes).
type seqBatch struct {
	next uint32
	max  uint32
}

func (s *seqBatch) Next(dst []uint32) (int, error) {
	n := 0
	for n < len(dst) && s.next < s.max {
		s.next++
		dst[n] = s.next
		n++
	}
	return n, nil
}

func (s *seqBatch) Close() {}
