package core

// The front door's read path: every DB routes a query to the n >= 1
// device engines ("shards") that can answer it, merges what they hand
// back and finishes it host-side, once. The fact table at the schema root is
// partitioned round-robin on its dense key; every dimension table is fully
// replicated on every shard, which is safe in GhostDB's tree schema
// because foreign keys always point from the root toward the dimensions —
// a shard can therefore evaluate any query subtree locally. Each shard
// owns its own flash, RAM arena, buses and simulated clock; the clocks
// advance independently and the merged report's simulated time is the max
// over the contacted shards, so the reported speedup is exactly the
// paper's cost model run N times in parallel.
//
// Routing chooses targets and nothing else. A dimension-rooted query runs
// on one round-robin-chosen replica. A root-rooted query goes to its target
// set: the shards that own at least one global root key satisfying every
// predicate the statement places on the root's primary key (=, IN,
// BETWEEN, <, <=, >, >= and their conjunction; <> never narrows the set),
// computed from the bound values and the global<->local key mapping by
// shardSet.targets — the one function SELECT, UPDATE and DELETE share.
// No root-key predicate means every shard. Predicates on dimension
// columns, hidden columns or non-key root columns never prune: which
// rows they select is exactly what the devices exist to hide or to
// compute. One gather then serves 0, 1 and k targets in the same steps:
// the targets run in parallel, the last on the caller's goroutine (one
// target: no goroutine at all; zero: no device contacted); their reports
// and rows merge (shard_merge.go), one report or one stream being its own
// merge; finishTail runs once. Only the contacted shards must be healthy,
// and only they advance their clocks.
//
// What the spy learns from routing. A pruned shard sees no message, so
// per-device traffic now depends on the key — but the key is in the
// statement text, which crosses the terminal->server wire in the clear
// already (the paper's spy "learns the queries posed"). The target set is
// a function of that text and of the public key->device placement only,
// never of hidden data or of a dimension predicate's selectivity. Message
// counts per device are still the channel a count attack works on;
// holding this rule is part of ROADMAP's two-world check.
//
// Plan once. The front door's CompiledQuery resolves, on its first run,
// one plan holder per shard that shares its shape and plan space (each
// shard keeps its own optimizer choice), which predicates sit on the root
// key and which projections show it. A run then binds once, clones the
// predicate list only when a root-key predicate must be rewritten into a
// shard's local key space, marks its targets on the stack and borrows
// the gather's state, which holds every engine's half of the result by
// value, from a pool: only the front door allocates a Result.
//
// Host-side merging and finishing follow the secure-display rule
// (aggregate.go): the k-way merge, the groupers' merge, the top-K
// recombination and finishTail charge no simulated clock and send nothing
// over the traced buses. An engine finishes nothing.
//
// One engine is the degenerate set: its root mapping is the identity
// (rootMapping), so a root-rooted query has at most one target, runs
// inline and rewrites no predicate, and its rows or grouper are already
// merged.
//
// Concurrency: the shardSet carries its own RW lock. Queries hold the
// read side for the whole scatter-gather (shard pipelines serialize on
// each engine's device gate, but different shards run in parallel);
// DML, INSERT and CHECKPOINT (shard_write.go) hold the write side so the
// global root mapping never shifts under a running query. Lock order is
// always front door db.mu (optional) -> shardSet.mu -> engine e.mu; the
// front door reaches an engine only through the *engine methods of
// engine.go.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

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

// shardSet is the front door's view of its engines and the
// global<->local root identifier mapping.
type shardSet struct {
	engines []*engine

	// rr round-robins dimension-rooted queries across shards (their
	// tables are replicated, so any shard can answer alone).
	rr atomic.Uint64

	// mu arbitrates queries (read side) against INSERT/DML/CHECKPOINT
	// (write side), which rewrite the mapping below.
	mu    sync.RWMutex
	roots rootMapping
}

// rootMapping places every global root row on an engine. Over several
// engines, loc maps global root ID g (index g-1) to its shard location and
// l2g maps, per shard, local root ID l (index l-1) back to the global ID.
// l2g is strictly increasing per shard: the initial round-robin split,
// appended INSERTs and CHECKPOINT's renumbering (which walks the old
// mapping in global order) all preserve it, and the query merge relies on
// it — per-shard physical rows arrive in local root order, hence also in
// global root order.
//
// With one engine global and local keys coincide: the mapping is the
// identity, kept as its count alone (loc and l2g nil). It places no row,
// persists no region in the commit record and rewrites no predicate.
type rootMapping struct {
	n   int // global root rows, live-inserted ones included
	loc []shardLoc
	l2g [][]uint32
}

// newRootMapping returns the empty mapping over n engines. It is the one
// place the root mapping depends on n.
func newRootMapping(n int) rootMapping {
	if n == 1 {
		return rootMapping{}
	}
	return rootMapping{l2g: make([][]uint32, n)}
}

// identity reports whether global and local root keys coincide.
func (m *rootMapping) identity() bool { return m.l2g == nil }

// place appends the next global root row round-robin and returns its
// shard and local identifier.
func (m *rootMapping) place() (s int, local uint32) {
	m.n++
	if m.identity() {
		return 0, uint32(m.n)
	}
	s = (m.n - 1) % len(m.l2g)
	local = uint32(len(m.l2g[s]) + 1)
	m.loc = append(m.loc, shardLoc{shard: uint32(s), local: local})
	m.l2g[s] = append(m.l2g[s], uint32(m.n))
	return s, local
}

// shardOf returns the shard holding global root g (1 <= g <= n).
func (m *rootMapping) shardOf(g int64) uint32 {
	if m.identity() {
		return 0
	}
	return m.loc[g-1].shard
}

// rows returns how many root rows shard s holds.
func (m *rootMapping) rows(s int) int {
	if m.identity() {
		return m.n
	}
	return len(m.l2g[s])
}

// globals returns shard s's local->global mapping for its commit record:
// a copy, or nil for the identity.
func (m *rootMapping) globals(s int) []uint32 {
	if m.identity() {
		return nil
	}
	return append([]uint32(nil), m.l2g[s]...)
}

// countLE returns how many of shard s's root keys have a global ID <= g.
func (m *rootMapping) countLE(s int, g int64) int64 {
	if m.identity() {
		return min(max(g, 0), int64(m.n))
	}
	return countLE(m.l2g[s], g)
}

// ---------------------------------------------------------------------------
// Plan once.

// coordPlan is what the front door works out about a compiled shape on
// its first run and reuses on every later one. Immutable once published.
type coordPlan struct {
	kids    []enginePlan // per-shard plan holders, index = shard
	replica bool         // dimension-rooted: any one shard answers whole
	keys    []int        // Preds indexes of the root-key predicates
	pkProjs []int        // Projs indexes that show the root's primary key
}

// planOnce returns cq's plan over the engines, building it on first use.
// Concurrent first runs may each build one; they are equivalent and the
// first published wins.
func (ss *shardSet) planOnce(cq *CompiledQuery, root *schema.Table) *coordPlan {
	if cp := cq.coord.Load(); cp != nil {
		return cp
	}
	q := cq.shape
	cp := &coordPlan{
		kids:    make([]enginePlan, len(ss.engines)),
		replica: !strings.EqualFold(q.Root.Name, root.Name),
	}
	for s, e := range ss.engines {
		// Every engine carries the same index set, so the plan space is
		// shared; each keeps its own optimizer choice.
		cp.kids[s] = enginePlan{e: e, shape: q, specs: cq.specs}
	}
	if !cp.replica {
		cp.keys = rootKeyPreds(nil, q.Preds, root)
		pk := root.PrimaryKey().Name
		for j, c := range q.Projs {
			if strings.EqualFold(c.Table, root.Name) && strings.EqualFold(c.Column, pk) {
				cp.pkProjs = append(cp.pkProjs, j)
			}
		}
	}
	if !cq.coord.CompareAndSwap(nil, cp) {
		cp = cq.coord.Load()
	}
	return cp
}

// rootKeyPreds appends to keys the predicates that sit on the root
// table's primary key — the ones that live in the global key space and so
// both narrow the target set and need rewriting per shard.
func rootKeyPreds(keys []int, preds []plan.Pred, root *schema.Table) []int {
	pk := root.PrimaryKey().Name
	for i := range preds {
		if c := preds[i].Col; strings.EqualFold(c.Table, root.Name) && strings.EqualFold(c.Column, pk) {
			keys = append(keys, i)
		}
	}
	return keys
}

// ---------------------------------------------------------------------------
// The target set.

// targets marks in hit (one entry per shard, cleared here) the shards
// that own at least one global root key satisfying every root-key
// predicate preds[keys[i]], and returns how many it marked. The keys a
// conjunction admits are an interval of the dense key space, optionally
// thinned by IN lists; <> is ignored (it can exclude one key, never a
// device worth of them), and a non-Int operand — impossible after
// bind-time coercion to the Int key column — marks every shard so the
// statement fails in evaluation exactly as it would on a single device.
// With no root-key predicate every shard is a target. Caller holds ss.mu.
func (ss *shardSet) targets(hit []bool, preds []plan.Pred, keys []int) int {
	all := func() int {
		for s := range hit {
			hit[s] = true
		}
		return len(hit)
	}
	if len(keys) == 0 {
		return all()
	}
	clear(hit)
	m := &ss.roots
	lo, hi := int64(1), int64(m.n)
	var in []value.Value // the shortest IN list: the candidates to place
	hasIn := false
	for _, i := range keys {
		p := preds[i].P
		switch p.Form {
		case pred.FormCompare:
			if p.Val.Kind() != value.Int {
				return all()
			}
			v := p.Val.Int()
			switch p.Op {
			case sql.OpEq:
				lo, hi = max(lo, v), min(hi, v)
			case sql.OpLt:
				if v <= lo { // also keeps v-1 from wrapping
					return 0
				}
				hi = min(hi, v-1)
			case sql.OpLe:
				hi = min(hi, v)
			case sql.OpGt:
				if v >= hi {
					return 0
				}
				lo = max(lo, v+1)
			case sql.OpGe:
				lo = max(lo, v)
			}
		case pred.FormBetween:
			if p.Lo.Kind() != value.Int || p.Hi.Kind() != value.Int {
				return all()
			}
			lo, hi = max(lo, p.Lo.Int()), min(hi, p.Hi.Int())
		case pred.FormIn:
			for _, v := range p.Set {
				if v.Kind() != value.Int {
					return all()
				}
			}
			if !hasIn || len(p.Set) < len(in) {
				in, hasIn = p.Set, true
			}
		}
	}
	if lo > hi {
		return 0
	}
	count := 0
	mark := func(s uint32) {
		if !hit[s] {
			hit[s] = true
			count++
		}
	}
	switch {
	case hasIn:
	candidates:
		for _, v := range in {
			g := v.Int()
			if g < lo || g > hi {
				continue
			}
			for _, i := range keys {
				if p := preds[i].P; p.Form == pred.FormIn && !inSet(p.Set, g) {
					continue candidates
				}
			}
			mark(m.shardOf(g))
		}
	case lo == hi:
		mark(m.shardOf(lo))
	default:
		for s := range hit {
			if m.countLE(s, hi) > m.countLE(s, lo-1) {
				mark(uint32(s))
			}
		}
	}
	return count
}

func inSet(set []value.Value, g int64) bool {
	for _, v := range set {
		if v.Int() == g {
			return true
		}
	}
	return false
}

// countLE returns how many keys of a shard's ascending local->global
// mapping have a global ID <= g — equivalently the largest local ID whose
// global is <= g.
func countLE(l2g []uint32, g int64) int64 {
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

// ---------------------------------------------------------------------------
// Root-key predicate localization.

// localizePreds returns preds with every root-key predicate (keys)
// rewritten from global to shard s's local identifier space. Other
// predicates (dimension columns, hidden columns) pass through unchanged:
// dimension tables are replicated with identical identifiers on every
// shard. Without a root-key predicate, or under the identity mapping, the
// input is returned as is; otherwise the list is cloned, leaving the
// shared bound query untouched.
// The query's cached predicate labels keep showing the global values,
// which is what a per-shard EXPLAIN should display.
func (ss *shardSet) localizePreds(s int, preds []plan.Pred, keys []int) []plan.Pred {
	if len(keys) == 0 || ss.roots.identity() {
		return preds
	}
	out := append([]plan.Pred(nil), preds...)
	for _, i := range keys {
		out[i].P = ss.localizePred(s, out[i].P)
	}
	return out
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
	l2g := ss.roots.l2g[s]
	// localOf returns shard s's local ID for global g, or 0 when g is
	// out of range or owned by another shard (no local row matches; 0 is
	// below every dense identifier).
	localOf := func(g int64) int64 {
		if g >= 1 && g <= int64(ss.roots.n) {
			if loc := ss.roots.loc[g-1]; int(loc.shard) == s {
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
			p.Val = value.NewInt(countLE(l2g, g-1) + 1)
		case sql.OpLe:
			p.Val = value.NewInt(countLE(l2g, g))
		case sql.OpGt:
			p.Val = value.NewInt(countLE(l2g, g))
		case sql.OpGe:
			p.Val = value.NewInt(countLE(l2g, g-1) + 1)
		}
	case pred.FormBetween:
		if p.Lo.Kind() != value.Int || p.Hi.Kind() != value.Int {
			return p
		}
		// An empty global range maps to an empty local range (lo > hi),
		// which evaluates to false like on a single device.
		p.Lo = value.NewInt(countLE(l2g, p.Lo.Int()-1) + 1)
		p.Hi = value.NewInt(countLE(l2g, p.Hi.Int()))
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
// Query execution: route, scatter, gather.

// targetMarks returns room for one statement's target marks (targets),
// in buf when the engines fit.
func (ss *shardSet) targetMarks(buf *[8]bool) []bool {
	if n := len(ss.engines); n <= len(buf) {
		return buf[:n]
	}
	return make([]bool, len(ss.engines))
}

// gatherState is one query's scratch at the front door: the contacted
// shards' halves and the fan-out's wait group.
type gatherState struct {
	outs []shardOut
	wg   sync.WaitGroup
}

var gatherPool = sync.Pool{New: func() any { return new(gatherState) }}

func getGather(n int) *gatherState {
	g := gatherPool.Get().(*gatherState)
	if cap(g.outs) < n {
		g.outs = make([]shardOut, n)
	}
	g.outs = g.outs[:n]
	return g
}

// putGather returns the shards' groupers to their pool, drops the results
// the state still references and pools it.
func putGather(g *gatherState) {
	for i := range g.outs {
		exec.PutGrouper(g.outs[i].res.grouper)
	}
	clear(g.outs)
	gatherPool.Put(g)
}

// route executes one bound query over the engines: it chooses the
// targets (see the file comment for the rules) and gathers.
func (db *DB) route(cq *CompiledQuery, bound *plan.Query, cfg *queryConfig) (*Result, error) {
	db.mu.Lock()
	closed, loaded := db.closed, db.loaded
	db.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !loaded {
		return nil, fmt.Errorf("core: query before Build")
	}

	ss := &db.shards
	cp := ss.planOnce(cq, db.sch.Root())
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	var buf [8]bool
	hit := ss.targetMarks(&buf)
	if cp.replica {
		if err := db.pickReplica(hit); err != nil {
			return nil, err
		}
		return db.gather(cp, bound, cfg, hit, 1)
	}
	return db.gather(cp, bound, cfg, hit, ss.targets(hit, bound.Preds, cp.keys))
}

// pickReplica marks in hit the one shard a dimension-rooted query runs
// on, chosen round-robin. With WithDegradedReads, dead shards are skipped
// — the dimensions are replicated, so any survivor answers exactly;
// without it, a dead shard anywhere fails the query fast. Caller holds
// ss.mu.RLock.
func (db *DB) pickReplica(hit []bool) error {
	ss := &db.shards
	if !db.opts.DegradedReads {
		for _, e := range ss.engines {
			if err := e.fatalError(); err != nil {
				return err
			}
		}
	}
	clear(hit)
	n := len(ss.engines)
	start := int(ss.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		if s := (start + i) % n; ss.engines[s].fatalError() == nil {
			hit[s] = true
			return nil
		}
	}
	return fmt.Errorf("core: all %d shards unavailable: %w", n, ss.engines[start].fatalError())
}

// gather runs the query on the count shards marked in hit and finishes
// it once, whatever count is: it fans out, merges the reports and the
// rows (shard_merge.go) and runs finishTail. One dead target fails the
// query fast with its terminal error rather than silently dropping rows;
// shards outside the targets are not consulted at all. Caller holds
// ss.mu.RLock.
func (db *DB) gather(cp *coordPlan, bound *plan.Query, cfg *queryConfig, hit []bool, count int) (*Result, error) {
	ss := &db.shards
	for s, target := range hit {
		if !target {
			continue
		}
		if err := ss.engines[s].fatalError(); err != nil {
			return nil, err
		}
	}
	switch {
	case cp.replica:
		db.metrics.noteRoute(routeReplica, count)
	case count == len(hit):
		db.metrics.noteRoute(routeScatter, count)
	default:
		db.metrics.noteRoute(routePruned, count)
	}

	// Fan out; the caller's goroutine takes the last target itself.
	g := getGather(count)
	defer putGather(g)
	outs := g.outs
	i := 0
	for s, target := range hit {
		if !target {
			continue
		}
		if i == count-1 {
			db.runShard(cp, s, bound, cfg, &outs[i])
			break
		}
		g.wg.Add(1)
		go func(i, s int) {
			defer g.wg.Done()
			db.runShard(cp, s, bound, cfg, &outs[i])
		}(i, s)
		i++
	}
	g.wg.Wait()
	for i := range outs {
		if err := outs[i].err; err != nil {
			if count == 1 {
				return nil, err // as the device said it: there is no merge to place it in
			}
			return nil, fmt.Errorf("core: shard %d: %w", outs[i].shard, err)
		}
	}

	res := &Result{
		// Copy: database/sql hands the driver's column slice to users
		// without copying, and the labels are shared by every execution
		// of the shape.
		Columns:      append([]string(nil), bound.ColumnLabels()...),
		Report:       mergeReports(bound, outs),
		Query:        bound,
		ShardReports: make([]*stats.Report, len(hit)),
	}
	if cfg.explain {
		res.choices = make([]*choice, len(hit))
	}
	for i := range outs {
		res.ShardReports[outs[i].shard] = outs[i].res.Report
		if cfg.explain {
			res.choices[outs[i].shard] = outs[i].res.choices[0]
		}
	}
	if count > 0 {
		res.Spec = outs[0].res.Spec
	}
	rows, err := finish(bound, outs)
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	res.Report.ResultRows = len(rows)
	return res, nil
}

// runShard executes the query's physical pipeline on shard s and leaves
// the engine's half in out, a post-op query's rows reduced to candidates
// (shardCandidates). On a remapped root-rooted query the root-key
// predicates move into the shard's local key space and its rows are
// carried back into the global one; the identity mapping and a
// dimension-rooted query's replica need neither.
func (db *DB) runShard(cp *coordPlan, s int, bound *plan.Query, cfg *queryConfig, out *shardOut) {
	ss := &db.shards
	local := bound
	var sh *shardRemap
	if !cp.replica && !ss.roots.identity() {
		if len(cp.keys) > 0 {
			lq := *bound
			lq.Preds = ss.localizePreds(s, bound.Preds, cp.keys)
			local = &lq
		}
		sh = &shardRemap{l2g: ss.roots.l2g[s], pkProjs: cp.pkProjs}
	}
	out.shard = s
	out.err = cp.kids[s].run(local, cfg, sh, &out.res)
	if out.err == nil && !local.Aggregated() && local.HasPostOps() {
		out.rows = shardCandidates(local, out.res.Rows, out.res.Roots)
	}
}
