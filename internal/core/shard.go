package core

// Multi-device sharding: one coordinator DB fans a query out to N
// complete single-device engines ("shards") and merges their streams
// host-side. The fact table at the schema root is partitioned
// round-robin on its dense key; every dimension table is fully
// replicated on every shard, which is safe in GhostDB's tree schema
// because foreign keys always point from the root toward the
// dimensions — a shard can therefore evaluate any query subtree
// locally. Each shard owns its own flash, RAM arena, buses and
// simulated clock; the clocks advance independently and the merged
// report's simulated time is the max over the shards, so the reported
// speedup is exactly the paper's cost model run N times in parallel.
//
// Host-side merging follows the secure-display rule: like the
// single-device finishing stage, the coordinator's k-way merge, partial
// aggregation merge and top-K recombination charge no simulated clock
// and send nothing over the traced buses.
//
// Concurrency: the shardSet carries its own RW lock. Queries hold the
// read side for the whole scatter-gather (shard pipelines serialize on
// each child's device gate, but different shards run in parallel);
// DML, INSERT and CHECKPOINT hold the write side so the global root
// mapping never shifts under a running query. Lock order is always
// coordinator db.mu (optional) -> shardSet.mu -> child db.mu.
//
// Cross-shard root INSERTs are not atomic: rows route to their shards
// one statement per shard, and a mid-statement failure (e.g. a foreign
// key killed by a concurrent DELETE) can leave earlier shards applied.
// The coordinator pre-validates arity, coercion and global key density
// to make that window small; if it is ever hit, the global mapping and
// the shard disagree and queries fail with an explicit "outside the
// global root mapping" error rather than returning wrong rows.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// shardLoc places one global root row: which shard holds it and under
// which shard-local dense identifier.
type shardLoc struct {
	shard uint32
	local uint32
}

// shardSet is the coordinator's view of its child devices and the
// global<->local root identifier mapping.
type shardSet struct {
	children []*DB

	// rr round-robins dimension-rooted queries across shards (their
	// tables are replicated, so any shard can answer alone).
	rr atomic.Uint64

	// mu arbitrates queries (read side) against INSERT/DML/CHECKPOINT
	// (write side), which rewrite the mapping below.
	mu sync.RWMutex
	// rootMap maps global root ID g (index g-1) to its shard location.
	rootMap []shardLoc
	// localToGlobal maps, per shard, local root ID l (index l-1) back to
	// the global ID. Strictly increasing per shard: the initial
	// round-robin split, appended INSERTs and CHECKPOINT's renumbering
	// (which walks the old mapping in global order) all preserve it, and
	// the query merge relies on it — per-shard physical rows arrive in
	// local root order, hence also in global root order.
	localToGlobal [][]uint32
}

// ---------------------------------------------------------------------------
// Bulk load.

// buildSharded distributes the bulk-load columns over the shard set:
// the root table round-robin with synthesized shard-local dense keys,
// dimension tables replicated as-is (the column slices are shared
// read-only across children). The coordinator keeps the global row
// counts and the hidden-value audit set; its own device stays empty.
func (db *DB) buildSharded(cols map[string][][]value.Value) error {
	ss := db.shards
	n := len(ss.children)
	root := db.sch.Root()

	rcols, ok := cols[root.Name]
	if !ok || len(rcols) != len(root.Columns) {
		return fmt.Errorf("core: missing column data for %s", root.Name)
	}
	rows := 0
	if len(rcols) > 0 {
		rows = len(rcols[0])
	}
	for i := range rcols {
		if len(rcols[i]) != rows {
			return fmt.Errorf("core: ragged columns in %s", root.Name)
		}
	}
	pkIdx := root.PrimaryKeyIndex()
	for r, v := range rcols[pkIdx] {
		if v.Kind() != value.Int || v.Int() != int64(r+1) {
			return fmt.Errorf("core: %s.%s must be dense 1..N (row %d has %s)",
				root.Name, root.PrimaryKey().Name, r, v)
		}
	}

	// Partition the root: global row r (0-based) goes to shard r%n under
	// the next local identifier; the PK column is rewritten to the local
	// dense sequence.
	perShard := make([]map[string][][]value.Value, n)
	shardCols := make([][][]value.Value, n)
	for s := 0; s < n; s++ {
		shardCols[s] = make([][]value.Value, len(root.Columns))
	}
	ss.rootMap = make([]shardLoc, rows)
	ss.localToGlobal = make([][]uint32, n)
	for r := 0; r < rows; r++ {
		s := r % n
		local := len(shardCols[s][pkIdx]) + 1
		for ci := range root.Columns {
			v := rcols[ci][r]
			if ci == pkIdx {
				v = value.NewInt(int64(local))
			}
			shardCols[s][ci] = append(shardCols[s][ci], v)
		}
		ss.rootMap[r] = shardLoc{shard: uint32(s), local: uint32(local)}
		ss.localToGlobal[s] = append(ss.localToGlobal[s], uint32(r+1))
	}

	for s := range ss.children {
		child := map[string][][]value.Value{}
		for name, tc := range cols {
			if name == root.Name {
				continue
			}
			child[name] = tc // replicated dimensions share the slices
		}
		child[root.Name] = shardCols[s]
		perShard[s] = child
	}

	for s, c := range ss.children {
		c.mu.Lock()
		// Each child's commit record persists its local->global root
		// mapping alongside the data, so recovery from the shard images
		// alone can reassemble the global order.
		c.rootGlobals = append([]uint32(nil), ss.localToGlobal[s]...)
		err := c.build(perShard[s])
		c.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: shard %d load: %w", s, err)
		}
	}

	// Coordinator bookkeeping: global cardinalities for the cost model
	// and the hidden-value audit set (values live on every shard, but the
	// audit is a property of the database, not of a device).
	for _, t := range db.sch.Tables() {
		tcols, ok := cols[t.Name]
		if !ok {
			return fmt.Errorf("core: missing column data for %s", t.Name)
		}
		cnt := 0
		if len(tcols) > 0 {
			cnt = len(tcols[0])
		}
		db.rowCounts[t.Name] = cnt
		for ci, col := range t.Columns {
			if col.Hidden && col.Type.Kind == value.String {
				for _, v := range tcols[ci] {
					db.hiddenVals.Add(v)
				}
			}
		}
	}

	db.loaded = true
	return nil
}

// ---------------------------------------------------------------------------
// Query execution: scatter-gather.

// runSharded executes one bound query over the shard set. Root-rooted
// queries scatter to every shard and gather host-side; dimension-rooted
// queries run whole on one round-robin-chosen shard (the dimensions are
// replicated), which is what lets independent dimension queries from
// concurrent sessions use all the devices at once.
func (db *DB) runSharded(sqlText string, params []value.Value, bound *plan.Query, cfg *queryConfig) (*Result, error) {
	db.mu.Lock()
	closed, loaded := db.closed, db.loaded
	db.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !loaded {
		return nil, fmt.Errorf("core: query before Build")
	}

	ss := db.shards
	ss.mu.RLock()
	defer ss.mu.RUnlock()

	root := db.sch.Root()
	if !strings.EqualFold(bound.Root.Name, root.Name) {
		return db.runReplica(sqlText, params, cfg)
	}
	// A root-rooted query needs every partition; one dead shard means an
	// incomplete answer, so fail fast with its terminal error rather than
	// silently dropping rows.
	for s, c := range ss.children {
		if err := c.FatalError(); err != nil {
			return nil, fmt.Errorf("core: shard %d unavailable: %w", s, err)
		}
	}
	return db.runScatter(sqlText, params, bound, cfg, root.Name, root.PrimaryKey().Name)
}

// cloneCfg copies a query config for one shard, deep-copying the forced
// spec so concurrent shard validations never share a mutable Spec.
func cloneCfg(cfg *queryConfig) *queryConfig {
	out := *cfg
	if cfg.spec != nil {
		fs := cfg.spec.Clone()
		out.spec = &fs
	}
	return &out
}

// runReplica routes a dimension-rooted query, finishing included, to
// one shard chosen round-robin. With WithDegradedReads, dead shards are
// skipped — the dimensions are replicated, so any survivor answers
// exactly; without it, a dead shard anywhere fails the query fast, like
// the scatter path. Caller holds ss.mu.RLock.
func (db *DB) runReplica(sqlText string, params []value.Value, cfg *queryConfig) (*Result, error) {
	ss := db.shards
	if !db.opts.DegradedReads {
		for s, c := range ss.children {
			if err := c.FatalError(); err != nil {
				return nil, fmt.Errorf("core: shard %d unavailable: %w", s, err)
			}
		}
	}
	n := len(ss.children)
	start := int(ss.rr.Add(1)-1) % n
	s := -1
	for i := 0; i < n; i++ {
		if cand := (start + i) % n; ss.children[cand].FatalError() == nil {
			s = cand
			break
		}
	}
	if s < 0 {
		return nil, fmt.Errorf("core: all %d shards unavailable: %w", n, ss.children[start].FatalError())
	}
	child := ss.children[s]
	ccq, _, err := child.compileCached(sqlText)
	if err != nil {
		return nil, err
	}
	cbound, err := ccq.shape.BindParams(params)
	if err != nil {
		return nil, err
	}
	res, err := ccq.runBound(cbound, cloneCfg(cfg), nil)
	if err != nil {
		return nil, err
	}
	reports := make([]*stats.Report, len(ss.children))
	reports[s] = res.Report
	res.ShardReports = reports
	db.feedShardMetrics(res.Report)
	return res, nil
}

// shardGroup is one exported aggregation partial: the group's key
// tuple, its raw accumulator states, and the smallest global root that
// contributed (the group-creation order stamp).
type shardGroup struct {
	keys  []value.Value
	accs  []exec.AggState
	first int64
}

// shardOut is one shard's contribution to the gather phase: res carries
// the group partials (aggregated) or the physical rows with their global
// roots (plain); rows the reduced candidates of a post-op query.
type shardOut struct {
	res  *Result
	rows [][]value.Value // post-op candidates, width+1 with trailing global root
	err  error
}

// runScatter fans the query to every shard in parallel and merges the
// per-shard streams host-side. Caller holds ss.mu.RLock.
func (db *DB) runScatter(sqlText string, params []value.Value, bound *plan.Query, cfg *queryConfig, rootName, pkName string) (*Result, error) {
	ss := db.shards
	n := len(ss.children)
	outs := make([]shardOut, n)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			outs[s] = db.runShard(s, sqlText, params, cfg, rootName, pkName)
		}(s)
	}
	wg.Wait()
	for s := range outs {
		if outs[s].err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", s, outs[s].err)
		}
	}

	// Merge the execution reports: simulated time and RAM are per-device
	// maxima (the devices run concurrently), flash and bus work are sums.
	rep := &stats.Report{Query: sqlText}
	reports := make([]*stats.Report, n)
	res := &Result{
		Columns: append([]string(nil), bound.ColumnLabels()...),
		Report:  rep,
		Query:   bound,
	}
	for s := range outs {
		r := outs[s].res.Report
		reports[s] = r
		if s == 0 {
			rep.PlanLabel = r.PlanLabel
			res.Spec = outs[s].res.Spec
		}
		if r.TotalTime > rep.TotalTime {
			rep.TotalTime = r.TotalTime
		}
		if r.RAMHigh > rep.RAMHigh {
			rep.RAMHigh = r.RAMHigh
		}
		rep.Flash.PageReads += r.Flash.PageReads
		rep.Flash.PagesProgrammed += r.Flash.PagesProgrammed
		rep.Flash.BlockErases += r.Flash.BlockErases
		rep.Flash.BytesRead += r.Flash.BytesRead
		rep.Flash.BytesProgrammed += r.Flash.BytesProgrammed
		rep.Flash.ReadTime += r.Flash.ReadTime
		rep.Flash.ProgTime += r.Flash.ProgTime
		rep.Flash.EraseTime += r.Flash.EraseTime
		rep.BusBytes += r.BusBytes
		rep.BusMsgs += r.BusMsgs
	}
	res.ShardReports = reports

	var rows [][]value.Value
	var err error
	switch {
	case bound.Aggregated():
		rows, err = mergeAggregates(bound, outs)
	case bound.HasPostOps():
		rows = mergeCandidates(bound, outs)
	default:
		rows = mergeRoots(bound, outs)
	}
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	rep.ResultRows = len(rows)
	db.feedShardMetrics(rep)
	return res, nil
}

// feedShardMetrics folds a merged (or routed) shard report into the
// coordinator's registry, mirroring what DB.execute feeds on a single
// device. Children feed their own registries from their executions.
func (db *DB) feedShardMetrics(rep *stats.Report) {
	if m := db.metrics; m != nil {
		m.flashPageReads.Add(rep.Flash.PageReads)
		m.busBytes.Add(rep.BusBytes)
		m.ramHighWater.Observe(rep.RAMHigh)
	}
}

// shardRemap carries a shard's physical rows into the global key space
// while the executor walks them: the local->global root mapping and the
// projections that show the root's primary key.
type shardRemap struct {
	l2g     []uint32
	pkProjs []int
}

// remapFor builds shard s's remap for q. Caller holds ss.mu.RLock for as
// long as the remap is in use.
func (ss *shardSet) remapFor(s int, q *plan.Query, rootName, pkName string) *shardRemap {
	m := &shardRemap{l2g: ss.localToGlobal[s]}
	for j, c := range q.Projs {
		if strings.EqualFold(c.Table, rootName) && strings.EqualFold(c.Column, pkName) {
			m.pkProjs = append(m.pkProjs, j)
		}
	}
	return m
}

// apply returns the global identifier of the shard-local root and
// rewrites the row's root-key projections to it.
func (m *shardRemap) apply(local uint32, row []value.Value) (uint32, error) {
	if local == 0 || int(local) > len(m.l2g) {
		return 0, fmt.Errorf("core: local root %d outside the global root mapping (a cross-shard statement partially applied?)", local)
	}
	g := m.l2g[local-1]
	for _, j := range m.pkProjs {
		row[j] = value.NewInt(int64(g))
	}
	return g, nil
}

// runShard executes the query's physical pipeline on shard s, which
// delivers the form the coordinator merges — aggregation partials, or
// plain rows with global roots — and reduces a post-op query's rows to
// top-K'd candidates.
func (db *DB) runShard(s int, sqlText string, params []value.Value, cfg *queryConfig, rootName, pkName string) (out shardOut) {
	ss := db.shards
	child := ss.children[s]
	ccq, _, err := child.compileCached(sqlText)
	if err != nil {
		out.err = err
		return
	}
	cbound, err := ccq.shape.BindParams(params)
	if err != nil {
		out.err = err
		return
	}
	local, err := ss.localizeQuery(s, cbound, rootName, pkName)
	if err != nil {
		out.err = err
		return
	}
	out.res, out.err = ccq.runBound(local, cloneCfg(cfg), ss.remapFor(s, local, rootName, pkName))
	if out.err == nil && !local.Aggregated() && local.HasPostOps() {
		out.rows = shardCandidates(local, out.res.Rows, out.res.Roots)
	}
	return
}

// shardCandidates reduces a plain post-op query's physical rows to
// output-shaped candidates with a trailing global-root column, applying
// the per-shard pushdowns: DISTINCT always, and top-K (ORDER BY+LIMIT)
// or a plain LIMIT cap. Dropping rows here is safe: rows arrive in
// global root order within a shard, global dedupe keeps the
// earliest-root occurrence of a value, and the sorter breaks ties by
// arrival (= root) order — so any row cut locally has at least LIMIT
// globally-surviving rows ranked before it.
func shardCandidates(q *plan.Query, rows [][]value.Value, groots []uint32) [][]value.Value {
	width := len(q.Outputs)
	out := make([][]value.Value, len(rows))
	// One flat backing array; the sub-slices are cap-limited, so DISTINCT's
	// in-place compaction and the sorter's copy cannot run into a neighbour.
	flat := make([]value.Value, len(rows)*(width+1))
	for i, br := range rows {
		row := flat[i*(width+1) : (i+1)*(width+1) : (i+1)*(width+1)]
		for oi, o := range q.Outputs {
			row[oi] = br[o.Proj]
		}
		row[width] = value.NewInt(int64(groots[i]))
		out[i] = row
	}
	if q.Distinct {
		d := exec.GetDistinct(q.VisibleOuts)
		kept := out[:0]
		for _, r := range out {
			if !d.Seen(r) {
				kept = append(kept, r)
			}
		}
		exec.PutDistinct(d)
		out = kept
	}
	if q.HasLimit {
		switch {
		case len(q.OrderBy) > 0:
			if q.Limit > 0 && len(out) > q.Limit {
				keys := make([]exec.SortKey, len(q.OrderBy))
				for i, k := range q.OrderBy {
					keys[i] = exec.SortKey{Col: k.Out, Desc: k.Desc}
				}
				srt := exec.GetSorter(keys, q.Limit)
				for _, r := range out {
					srt.Push(r)
				}
				sorted := srt.Finish()
				kept := make([][]value.Value, len(sorted))
				copy(kept, sorted)
				exec.PutSorter(srt)
				out = kept
			}
		case len(out) > q.Limit:
			out = out[:q.Limit]
		}
	}
	return out
}

// mergeAggregates absorbs every shard's group partials into one merge
// grouper (identity key columns: the exported key tuples address
// themselves), reorders the groups by their first-seen global root to
// match single-device group creation order, and runs the shared
// finishing tail.
func mergeAggregates(q *plan.Query, outs []shardOut) ([][]value.Value, error) {
	if q.HasLimit && q.Limit == 0 {
		return nil, nil
	}
	idKeys := make([]int, len(q.GroupBy))
	for i := range idKeys {
		idKeys[i] = i
	}
	g := exec.GetGrouper(idKeys, aggOps(q))
	defer exec.PutGrouper(g)
	for _, so := range outs {
		for _, grp := range so.res.groups {
			if err := g.Absorb(grp.keys, grp.accs, grp.first); err != nil {
				return nil, err
			}
		}
	}
	// A global aggregate over an empty scatter still yields one row.
	if !q.Grouped && g.Groups() == 0 {
		g.AddEmptyGroup()
	}
	order := make([]int, g.Groups())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.FirstSeen(order[a]) < g.FirstSeen(order[b]) })
	rows, err := grouperRows(q, g, order)
	if err != nil {
		return nil, err
	}
	return finishTail(q, rows), nil
}

// mergeCandidates restores global root order over the concatenated
// per-shard candidates, strips the trailing root column and runs the
// shared finishing tail — identical tie-breaks to the single device.
func mergeCandidates(q *plan.Query, outs []shardOut) [][]value.Value {
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	width := len(q.Outputs)
	total := 0
	for _, so := range outs {
		total += len(so.rows)
	}
	all := make([][]value.Value, 0, total)
	for _, so := range outs {
		all = append(all, so.rows...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a][width].Int() < all[b][width].Int() })
	for i := range all {
		all[i] = all[i][:width:width]
	}
	return finishTail(q, all)
}

// mergeRoots k-way-merges the per-shard plain result rows by global
// root identifier up to the limit. Per-shard rows are already in global
// root order (localToGlobal is strictly increasing), so a linear merge
// over the shard heads suffices.
func mergeRoots(q *plan.Query, outs []shardOut) [][]value.Value {
	limit := -1
	if q.HasLimit {
		limit = q.Limit
	}
	total := 0
	for _, so := range outs {
		total += len(so.res.Roots)
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	rows := make([][]value.Value, 0, total)
	idx := make([]int, len(outs))
	for limit < 0 || len(rows) < limit {
		best := -1
		var bestRoot uint32
		for s := range outs {
			if idx[s] >= len(outs[s].res.Roots) {
				continue
			}
			if r := outs[s].res.Roots[idx[s]]; best < 0 || r < bestRoot {
				best, bestRoot = s, r
			}
		}
		if best < 0 {
			break
		}
		rows = append(rows, outs[best].res.Rows[idx[best]])
		idx[best]++
	}
	return rows
}

// ---------------------------------------------------------------------------
// Root-key predicate localization.

// localizeQuery clones the bound query for shard s, rewriting every
// predicate on the root table's primary key from global to shard-local
// identifier space. Other predicates (dimension columns, hidden
// columns) pass through unchanged: dimension tables are replicated with
// identical identifiers on every shard. The clone leaves the shared
// compiled shape untouched; the cached predicate labels keep showing
// the global values, which is what a per-shard EXPLAIN should display.
func (ss *shardSet) localizeQuery(s int, q *plan.Query, rootName, pkName string) (*plan.Query, error) {
	needs := false
	for i := range q.Preds {
		if strings.EqualFold(q.Preds[i].Col.Table, rootName) && strings.EqualFold(q.Preds[i].Col.Column, pkName) {
			needs = true
			break
		}
	}
	if !needs {
		return q, nil
	}
	out := *q
	out.Preds = append([]plan.Pred(nil), q.Preds...)
	for i := range out.Preds {
		pr := &out.Preds[i]
		if !strings.EqualFold(pr.Col.Table, rootName) || !strings.EqualFold(pr.Col.Column, pkName) {
			continue
		}
		pr.P = ss.localizePred(s, pr.P)
	}
	return &out, nil
}

// localizePred maps one root-PK predicate into shard s's local key
// space, preserving the predicate's form and operator (the plan spec
// validates strategies against predicate count and shape, so values are
// rewritten, never dropped). The local keys owned by shard s appear in
// the same relative order as their globals, which makes every range
// operator translatable through the count of owned keys at or below the
// global bound. Non-Int values (impossible after bind-time coercion to
// the Int key column) pass through and fail in evaluation exactly as
// they would on a single device.
func (ss *shardSet) localizePred(s int, p pred.P) pred.P {
	l2g := ss.localToGlobal[s]
	// countLE returns how many of shard s's keys have a global ID <= g —
	// equivalently the largest local ID whose global is <= g.
	countLE := func(g int64) int64 {
		lo, hi := 0, len(l2g)
		for lo < hi {
			mid := (lo + hi) / 2
			if int64(l2g[mid]) <= g {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo)
	}
	// localOf returns shard s's local ID for global g, or 0 when g is
	// out of range or owned by another shard (no local row matches; 0 is
	// below every dense identifier).
	localOf := func(g int64) int64 {
		if g >= 1 && g <= int64(len(ss.rootMap)) {
			if loc := ss.rootMap[g-1]; int(loc.shard) == s {
				return int64(loc.local)
			}
		}
		return 0
	}
	switch p.Form {
	case pred.FormCompare:
		if p.Val.Kind() != value.Int {
			return p
		}
		g := p.Val.Int()
		switch p.Op {
		case sql.OpEq, sql.OpNe:
			// Eq: the owner shard matches its local row, every other
			// shard matches nothing (local 0). Ne: the owner excludes
			// exactly that row; elsewhere Ne 0 matches all rows.
			p.Val = value.NewInt(localOf(g))
		case sql.OpLt:
			p.Val = value.NewInt(countLE(g-1) + 1)
		case sql.OpLe:
			p.Val = value.NewInt(countLE(g))
		case sql.OpGt:
			p.Val = value.NewInt(countLE(g))
		case sql.OpGe:
			p.Val = value.NewInt(countLE(g-1) + 1)
		}
	case pred.FormBetween:
		if p.Lo.Kind() != value.Int || p.Hi.Kind() != value.Int {
			return p
		}
		// An empty global range maps to an empty local range (lo > hi),
		// which evaluates to false like on a single device.
		p.Lo = value.NewInt(countLE(p.Lo.Int()-1) + 1)
		p.Hi = value.NewInt(countLE(p.Hi.Int()))
	case pred.FormIn:
		set := make([]value.Value, 0, len(p.Set))
		for _, v := range p.Set {
			if v.Kind() != value.Int {
				set = append(set, v)
				continue
			}
			if l := localOf(v.Int()); l != 0 {
				set = append(set, value.NewInt(l))
			}
		}
		p.Set = set
	}
	return p
}

// ---------------------------------------------------------------------------
// DML routing.

// insert routes a post-build INSERT. Dimension inserts broadcast to
// every shard (replicas stay identical); root inserts are validated
// globally, rewritten to shard-local dense keys and routed round-robin
// by global identifier, extending the mapping only after every shard
// applied. Caller holds the coordinator's device gate.
func (ss *shardSet) insert(db *DB, ins *sql.Insert) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	t, ok := db.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	root := db.sch.Root()
	n := len(ss.children)

	if !strings.EqualFold(t.Name, root.Name) {
		// Replicated dimension: every child validates and applies the
		// identical statement against identical state, so it either
		// applies everywhere or fails on the first child.
		for s, c := range ss.children {
			c.mu.Lock()
			err := c.insertLocked(ins)
			c.mu.Unlock()
			if err != nil {
				return fmt.Errorf("core: shard %d: %w", s, err)
			}
		}
		ss.auditInsert(db, t, ins.Rows)
		return nil
	}

	// Root insert: coordinator-side validation of arity, coercion and
	// global key density, so the only failures after routing begins are
	// device-side ones (e.g. RAM budget), keeping the non-atomic window
	// small.
	pkIdx := t.PrimaryKeyIndex()
	coerced := make([][]value.Value, len(ins.Rows))
	for ri, row := range ins.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("core: %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
		}
		out := make([]value.Value, len(row))
		for ci, v := range row {
			if v.IsParam() {
				return fmt.Errorf("core: INSERT into %s carries an unbound '?' placeholder; bind arguments first", t.Name)
			}
			cv, err := value.Coerce(v, t.Columns[ci].Type.Kind)
			if err != nil {
				return fmt.Errorf("core: %s.%s row %d: %w", t.Name, t.Columns[ci].Name, ri+1, err)
			}
			out[ci] = cv
		}
		want := int64(len(ss.rootMap)) + 1 + int64(ri)
		pkVal := out[pkIdx]
		if pkVal.Kind() != value.Int || pkVal.Int() != want {
			return fmt.Errorf("core: %s primary key must be dense: row %d needs key %d, got %s",
				t.Name, ri+1, want, pkVal)
		}
		coerced[ri] = out
	}

	// Group the rows per target shard with local dense keys.
	type routed struct {
		rows   [][]value.Value
		owners []int // index into coerced, for the mapping extension
	}
	perShard := make([]routed, n)
	locs := make([]shardLoc, len(coerced))
	for ri, row := range coerced {
		g := len(ss.rootMap) + ri // 0-based global index
		s := g % n
		local := len(ss.localToGlobal[s]) + len(perShard[s].rows) + 1
		sr := append([]value.Value(nil), row...)
		sr[pkIdx] = value.NewInt(int64(local))
		perShard[s].rows = append(perShard[s].rows, sr)
		perShard[s].owners = append(perShard[s].owners, ri)
		locs[ri] = shardLoc{shard: uint32(s), local: uint32(local)}
	}
	for s, c := range ss.children {
		if len(perShard[s].rows) == 0 {
			continue
		}
		sub := &sql.Insert{Table: ins.Table, Rows: perShard[s].rows}
		c.mu.Lock()
		err := c.insertLocked(sub)
		c.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", s, err)
		}
	}

	// Every shard applied: extend the global mapping in statement order.
	base := len(ss.rootMap)
	for ri := range coerced {
		ss.rootMap = append(ss.rootMap, locs[ri])
		ss.localToGlobal[locs[ri].shard] = append(ss.localToGlobal[locs[ri].shard], uint32(base+ri+1))
	}
	ss.auditInsert(db, t, coerced)
	return nil
}

// auditInsert adds inserted hidden string values to the coordinator's
// audit set (children maintain their own from their applied rows).
func (ss *shardSet) auditInsert(db *DB, t *schema.Table, rows [][]value.Value) {
	for _, row := range rows {
		for ci, c := range t.Columns {
			if !c.Hidden || c.Type.Kind != value.String || ci >= len(row) {
				continue
			}
			v, err := value.Coerce(row[ci], c.Type.Kind)
			if err != nil {
				continue
			}
			db.hiddenVals.Add(v)
		}
	}
}

// execDML routes a bound DELETE or UPDATE. Dimension DML broadcasts to
// every shard (identical replicas report identical counts; shard 0's is
// returned); root DML is localized per shard like a query predicate and
// the affected counts sum (every live root row lives on exactly one
// shard). Caller holds the coordinator's device gate.
func (ss *shardSet) execDML(db *DB, d *plan.DML) (int64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	// Coordinator audit set: hidden string values written by UPDATE.
	for _, a := range d.Sets {
		c := d.Table.Columns[a.ColIdx]
		if c.Hidden && c.Type.Kind == value.String {
			db.hiddenVals.Add(a.Val)
		}
	}

	root := db.sch.Root()
	if !strings.EqualFold(d.Table.Name, root.Name) {
		var first int64
		for s, c := range ss.children {
			c.mu.Lock()
			cnt, err := c.execDMLLocked(d)
			c.mu.Unlock()
			if err != nil {
				return 0, fmt.Errorf("core: shard %d: %w", s, err)
			}
			if s == 0 {
				first = cnt
			}
		}
		return first, nil
	}

	pkName := root.PrimaryKey().Name
	var total int64
	for s, c := range ss.children {
		sd := *d
		sd.Preds = append([]plan.Pred(nil), d.Preds...)
		for i := range sd.Preds {
			pr := &sd.Preds[i]
			if strings.EqualFold(pr.Col.Table, root.Name) && strings.EqualFold(pr.Col.Column, pkName) {
				pr.P = ss.localizePred(s, pr.P)
			}
		}
		c.mu.Lock()
		cnt, err := c.execDMLLocked(&sd)
		c.mu.Unlock()
		if err != nil {
			return total, fmt.Errorf("core: shard %d: %w", s, err)
		}
		total += cnt
	}
	return total, nil
}

// nextID serves DB.NextID on a sharded database: the root's next global
// dense key, a dimension's next key from shard 0 (replicas agree).
// Caller holds the coordinator's device gate.
func (ss *shardSet) nextID(db *DB, table string) (uint32, error) {
	root := db.sch.Root()
	if strings.EqualFold(table, root.Name) {
		ss.mu.RLock()
		defer ss.mu.RUnlock()
		return uint32(len(ss.rootMap)) + 1, nil
	}
	return ss.children[0].NextID(table)
}

// deltaStats aggregates the per-shard delta state into the logical
// database view: root entries sum across shards, dimension entries are
// counted once (shard 0 stands for the identical replicas).
func (ss *shardSet) deltaStats(db *DB) []DeltaStats {
	root := db.sch.Root()
	merged := map[string]*DeltaStats{}
	for s, c := range ss.children {
		for _, d := range c.DeltaStats() {
			isRoot := strings.EqualFold(d.Table, root.Name)
			if !isRoot && s != 0 {
				continue
			}
			m := merged[d.Table]
			if m == nil {
				m = &DeltaStats{Table: d.Table}
				merged[d.Table] = m
			}
			m.Rows += d.Rows
			m.Tombstones += d.Tombstones
			m.DeviceB += d.DeviceB
			m.HostB += d.HostB
		}
	}
	out := make([]DeltaStats, 0, len(merged))
	for _, m := range merged {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// logicalEntries counts the logical delta size (rows plus tombstones,
// dimensions counted once) — the sharded analogue of delta.Entries()
// that drives auto-checkpointing.
func (ss *shardSet) logicalEntries(db *DB) int {
	total := 0
	for _, d := range ss.deltaStats(db) {
		total += d.Rows + d.Tombstones
	}
	return total
}

// ---------------------------------------------------------------------------
// CHECKPOINT.

// checkpoint runs CHECKPOINT over the shard set as a two-phase merge.
// Phase A prepares every dirty shard in parallel — a pure read pass
// (liveness, renumbering, extraction) that leaves each child untouched,
// so an error or a context cancellation anywhere abandons the whole
// checkpoint with every delta intact. Phase B rebuilds the global root
// mapping from the survivor lists and commits every shard in parallel:
// dirty shards rebuild into their spare flash half and flip their commit
// record; clean shards write a record-only commit, so all shard versions
// advance in lockstep and recovery can pick one global cut (shard
// versions never spread by more than the one a mid-commit crash tears).
//
// Each child renumbers its root survivors densely in ascending old-local
// order; walking the old global mapping in order and consuming each
// shard's survivor list with a cursor therefore assigns exactly the
// child's new local identifiers, and keeps localToGlobal strictly
// increasing. Caller holds the coordinator's device gate.
func (ss *shardSet) checkpoint(db *DB, ctx context.Context) (int64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	absorbed := int64(ss.logicalEntries(db))
	if absorbed == 0 {
		return 0, nil
	}
	ckptStart := time.Now()
	root := db.sch.Root()
	n := len(ss.children)

	type ckptOut struct {
		pending   *ckptPending
		survivors []uint32 // old local root IDs that survived, ascending
		simStart  time.Duration
		span      time.Duration
		err       error
	}
	outs := make([]ckptOut, n)

	// Phase A: prepare in parallel. No device state changes yet.
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := ss.children[s]
			c.mu.Lock()
			defer c.mu.Unlock()
			outs[s].simStart = c.clock.Now()
			p, err := c.checkpointPrepareLocked(ctx)
			outs[s].pending, outs[s].err = p, err
			if p != nil {
				outs[s].survivors = p.survivors
			}
		}(s)
	}
	wg.Wait()
	for s := range outs {
		if outs[s].err != nil {
			return 0, fmt.Errorf("core: shard %d checkpoint: %w", s, outs[s].err)
		}
	}

	// A shard whose delta was empty has nothing to merge: its local space
	// is unchanged, i.e. every local row survives under its own
	// identifier (it still gets a record-only commit below).
	for s := range outs {
		if outs[s].survivors == nil {
			ident := make([]uint32, len(ss.localToGlobal[s]))
			for i := range ident {
				ident[i] = uint32(i + 1)
			}
			outs[s].survivors = ident
		}
	}

	// Rebuild the global mapping: new globals are assigned in old-global
	// order over the surviving rows.
	newMap := make([]shardLoc, 0, len(ss.rootMap))
	newL2G := make([][]uint32, n)
	cursor := make([]int, n)
	for _, loc := range ss.rootMap {
		s := int(loc.shard)
		sv := outs[s].survivors
		for cursor[s] < len(sv) && sv[cursor[s]] < loc.local {
			cursor[s]++
		}
		if cursor[s] >= len(sv) || sv[cursor[s]] != loc.local {
			continue // tombstoned (or cascade-dead): dropped by the merge
		}
		cursor[s]++
		newLocal := uint32(cursor[s]) // survivor rank = child's new dense ID
		newMap = append(newMap, shardLoc{shard: loc.shard, local: newLocal})
		newL2G[s] = append(newL2G[s], uint32(len(newMap)))
	}

	// Phase B: commit in parallel. Each child gets its new mapping slice
	// before writing the record, so the persisted manifest matches the
	// post-merge global order. A commit error latches that child fatal;
	// the mapping still installs — the surviving shards committed, and
	// the dead one fails every touching query with its terminal error.
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := ss.children[s]
			c.mu.Lock()
			defer c.mu.Unlock()
			c.rootGlobals = append([]uint32(nil), newL2G[s]...)
			if p := outs[s].pending; p != nil {
				outs[s].err = c.checkpointCommitLocked(p)
			} else {
				outs[s].err = c.recordOnlyCommitLocked()
			}
			outs[s].span = c.clock.Span(outs[s].simStart)
		}(s)
	}
	wg.Wait()

	ss.rootMap = newMap
	ss.localToGlobal = newL2G

	// Refresh the coordinator's global cardinalities: the root from the
	// rebuilt mapping, dimensions from shard 0's post-merge counts.
	c0 := ss.children[0]
	c0.mu.Lock()
	for name, cnt := range c0.rowCounts {
		if !strings.EqualFold(name, root.Name) {
			db.rowCounts[name] = cnt
		}
	}
	c0.mu.Unlock()
	db.rowCounts[root.Name] = len(newMap)

	var maxSpan time.Duration
	var firstErr error
	for s := range outs {
		if outs[s].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: shard %d checkpoint: %w", s, outs[s].err)
		}
		if outs[s].span > maxSpan {
			maxSpan = outs[s].span
		}
	}

	db.checkpointsRun.Add(1)
	if m := db.metrics; m != nil {
		m.checkpoints.Inc()
		m.checkpointWall.Observe(time.Since(ckptStart).Nanoseconds())
		m.checkpointSim.Observe(int64(maxSpan))
		m.noteDelta(db)
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return absorbed, nil
}

// ---------------------------------------------------------------------------
// Introspection.

// ShardCount reports how many device shards back this DB; 0 means the
// classic single-device engine.
func (db *DB) ShardCount() int {
	if db.shards == nil {
		return 0
	}
	return len(db.shards.children)
}

// ShardInfo summarizes one device shard for monitoring surfaces.
type ShardInfo struct {
	Shard           int
	RootRows        int              // live root rows mapped to this shard
	SimTime         time.Duration    // the shard clock's accumulated simulated time
	Storage         StorageBreakdown // the shard's flash footprint
	DeltaRows       int              // delta-resident row images on this shard
	DeltaTombstones int              // tombstones on this shard
}

// ShardInfos reports per-shard state (nil on single-device DBs).
func (db *DB) ShardInfos() []ShardInfo {
	ss := db.shards
	if ss == nil {
		return nil
	}
	ss.mu.RLock()
	counts := make([]int, len(ss.children))
	for i := range counts {
		counts[i] = len(ss.localToGlobal[i])
	}
	ss.mu.RUnlock()
	out := make([]ShardInfo, len(ss.children))
	for i, c := range ss.children {
		info := ShardInfo{Shard: i, RootRows: counts[i], Storage: c.Storage()}
		c.mu.Lock()
		info.SimTime = c.clock.Now()
		c.mu.Unlock()
		for _, d := range c.DeltaStats() {
			info.DeltaRows += d.Rows
			info.DeltaTombstones += d.Tombstones
		}
		out[i] = info
	}
	return out
}
