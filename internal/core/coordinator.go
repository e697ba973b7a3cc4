package core

// The front door's read path: every DB routes a query to the n >= 1
// device engines ("shards") that can answer it and, when there are
// several, merges their streams host-side. The fact table at the schema root is
// partitioned round-robin on its dense key; every dimension table is fully
// replicated on every shard, which is safe in GhostDB's tree schema
// because foreign keys always point from the root toward the dimensions —
// a shard can therefore evaluate any query subtree locally. Each shard
// owns its own flash, RAM arena, buses and simulated clock; the clocks
// advance independently and the merged report's simulated time is the max
// over the contacted shards, so the reported speedup is exactly the
// paper's cost model run N times in parallel.
//
// Routing. A dimension-rooted query runs whole, finishing included, on
// one round-robin-chosen replica. A root-rooted query goes to its target
// set: the shards that own at least one global root key satisfying every
// predicate the statement places on the root's primary key (=, IN,
// BETWEEN, <, <=, >, >= and their conjunction; <> never narrows the set),
// computed from the bound values and the global<->local key mapping by
// shardSet.targets — the one function SELECT, UPDATE and DELETE share.
// No root-key predicate means every shard. Predicates on dimension
// columns, hidden columns or non-key root columns never prune: which
// rows they select is exactly what the devices exist to hide or to
// compute. One target runs inline on the caller's goroutine and finishes
// its own rows (shardRemap.finish): no goroutine, no merge. Zero targets
// is answered here without contacting a device. Several targets scatter
// in parallel and gather through shard_merge.go. Only the contacted
// shards must be healthy, and only they advance their clocks.
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
// the scatter's state from a pool only when it contacts several shards.
//
// Host-side merging follows the secure-display rule: like the
// single-device finishing stage, the front door's k-way merge, partial
// aggregation merge and top-K recombination charge no simulated clock
// and send nothing over the traced buses.
//
// One engine is the degenerate set: its root mapping is the identity
// (rootMapping), so a root-rooted query has at most one target, runs
// inline, rewrites no predicate and finishes on the device's own result.
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

// gatherState is the scratch of a scatter over several shards: the
// contacted shards' outputs and the fan-out's wait group.
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

// putGather drops the results the state still references and pools it.
func putGather(g *gatherState) {
	clear(g.outs)
	gatherPool.Put(g)
}

// route executes one bound query over the engines; see the file comment
// for the routing rules.
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
	if cp.replica {
		return db.runReplica(cp, bound, cfg)
	}
	var buf [8]bool
	hit := ss.targetMarks(&buf)
	return db.gather(cp, bound, cfg, hit, ss.targets(hit, bound.Preds, cp.keys))
}

// runReplica routes a dimension-rooted query, finishing included, to
// one shard chosen round-robin. With WithDegradedReads, dead shards are
// skipped — the dimensions are replicated, so any survivor answers
// exactly; without it, a dead shard anywhere fails the query fast.
// Caller holds ss.mu.RLock.
func (db *DB) runReplica(cp *coordPlan, bound *plan.Query, cfg *queryConfig) (*Result, error) {
	ss := &db.shards
	if !db.opts.DegradedReads {
		for _, e := range ss.engines {
			if err := e.fatalError(); err != nil {
				return nil, err
			}
		}
	}
	n := len(ss.engines)
	start := int(ss.rr.Add(1)-1) % n
	s := -1
	for i := 0; i < n; i++ {
		if cand := (start + i) % n; ss.engines[cand].fatalError() == nil {
			s = cand
			break
		}
	}
	if s < 0 {
		return nil, fmt.Errorf("core: all %d shards unavailable: %w", n, ss.engines[start].fatalError())
	}
	res, err := cp.kids[s].run(bound, cfg, nil)
	if err != nil {
		return nil, err
	}
	reports := make([]*stats.Report, n)
	reports[s] = res.Report
	res.ShardReports = reports
	res.choices = atShard(res.choices, s, n)
	db.metrics.noteRoute(routeReplica, 1)
	return res, nil
}

// gather runs a root-rooted query on the count shards marked in hit and
// returns the rows a single device would have. A root-rooted answer needs
// every partition that can hold a matching row, so one dead target fails
// the query fast with its terminal error rather than silently dropping
// rows; shards outside the target set are not consulted at all. Caller
// holds ss.mu.RLock.
func (db *DB) gather(cp *coordPlan, bound *plan.Query, cfg *queryConfig, hit []bool, count int) (*Result, error) {
	ss := &db.shards
	n := len(ss.engines)
	for s, target := range hit {
		if !target {
			continue
		}
		if err := ss.engines[s].fatalError(); err != nil {
			return nil, err
		}
	}
	if count == n {
		db.metrics.noteRoute(routeScatter, count)
	} else {
		db.metrics.noteRoute(routePruned, count)
	}
	reports := make([]*stats.Report, n)

	if count == 1 {
		s := 0
		for !hit[s] {
			s++
		}
		out := db.runShard(cp, s, bound, cfg, true)
		if out.err != nil {
			return nil, out.err // as the device said it: there is no merge to place it in
		}
		res := out.res
		res.Query = bound
		reports[s] = res.Report
		res.ShardReports = reports
		res.choices = atShard(res.choices, s, n)
		return res, nil
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
			outs[i] = db.runShard(cp, s, bound, cfg, false)
			break
		}
		g.wg.Add(1)
		go func(i, s int) {
			defer g.wg.Done()
			outs[i] = db.runShard(cp, s, bound, cfg, false)
		}(i, s)
		i++
	}
	g.wg.Wait()
	for i := range outs {
		if outs[i].err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", outs[i].shard, outs[i].err)
		}
	}

	// Merge the execution reports: simulated time and RAM are per-device
	// maxima (the devices run concurrently), flash and bus work are sums.
	// Plan label and spec are the first contacted shard's; with no shard
	// contacted there was no plan to run.
	rep := &stats.Report{Query: bound.SQL, PlanLabel: "pruned"}
	res := &Result{
		Columns:      append([]string(nil), bound.ColumnLabels()...),
		Report:       rep,
		Query:        bound,
		ShardReports: reports,
	}
	if cfg.explain {
		res.choices = make([]*choice, n)
	}
	for i := range outs {
		r := outs[i].res.Report
		reports[outs[i].shard] = r
		if cfg.explain {
			res.choices[outs[i].shard] = outs[i].res.choices[0]
		}
		if i == 0 {
			rep.PlanLabel = r.PlanLabel
			res.Spec = outs[i].res.Spec
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

	var err error
	switch {
	case bound.Aggregated():
		res.Rows, err = mergeAggregates(bound, outs)
	case bound.HasPostOps():
		res.Rows = mergeCandidates(bound, outs)
	default:
		res.Rows = mergeRoots(bound, outs)
	}
	if err != nil {
		return nil, err
	}
	rep.ResultRows = len(res.Rows)
	return res, nil
}

// atShard re-indexes the one-device choices of an explained run that
// shard s of n answered alone; nil stays nil.
func atShard(choices []*choice, s, n int) []*choice {
	if choices == nil {
		return nil
	}
	out := make([]*choice, n)
	out[s] = choices[0]
	return out
}

// runShard executes the query's physical pipeline on shard s. Over
// several engines the root-key predicates move into the shard's local key
// space and its rows are carried back into the global one: as one of
// several targets the shard delivers the form the front door merges —
// aggregation partials, or plain rows with global roots, a post-op query's
// rows reduced to top-K'd candidates; as the only target it delivers the
// finished result. Under the identity mapping the device's own result is
// already the answer.
func (db *DB) runShard(cp *coordPlan, s int, bound *plan.Query, cfg *queryConfig, only bool) shardOut {
	ss := &db.shards
	local := bound
	var sh *shardRemap
	if !ss.roots.identity() {
		if len(cp.keys) > 0 {
			lq := *bound
			lq.Preds = ss.localizePreds(s, bound.Preds, cp.keys)
			local = &lq
		}
		sh = &shardRemap{l2g: ss.roots.l2g[s], pkProjs: cp.pkProjs, finish: only}
	}
	out := shardOut{shard: s}
	out.res, out.err = cp.kids[s].run(local, cfg, sh)
	if out.err == nil && !only && !local.Aggregated() && local.HasPostOps() {
		out.rows = shardCandidates(local, out.res.Rows, out.res.Roots)
	}
	return out
}
