package core

// The write side of the shard coordinator: the bulk load's partitioning,
// INSERT and DELETE/UPDATE routing, and the two-phase CHECKPOINT that
// rebuilds the global root mapping. All of it runs under the write side
// of shardSet.mu, so no query ever sees the mapping move.
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
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

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

	for s := range ss.children {
		// Each child's commit record persists its local->global root
		// mapping alongside the data, so recovery from the shard images
		// alone can reassemble the global order.
		if err := ss.child(s).shardLoad(perShard[s], append([]uint32(nil), ss.localToGlobal[s]...)); err != nil {
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
		for s := range ss.children {
			if err := ss.child(s).shardInsert(ins); err != nil {
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
	for s := range ss.children {
		if len(perShard[s].rows) == 0 {
			continue
		}
		sub := &sql.Insert{Table: ins.Table, Rows: perShard[s].rows}
		if err := ss.child(s).shardInsert(sub); err != nil {
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
// returned). Root DML goes to the shards its root-key predicates can
// match — the target set a SELECT with the same WHERE would contact — with
// those predicates localized per shard, and the affected counts sum (every
// live root row lives on exactly one shard). A shard outside the target
// set is not visited: its clock, delta and health play no part in the
// statement. Caller holds the coordinator's device gate.
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
		for s := range ss.children {
			cnt, err := ss.child(s).shardExecDML(d)
			if err != nil {
				return 0, fmt.Errorf("core: shard %d: %w", s, err)
			}
			if s == 0 {
				first = cnt
			}
		}
		return first, nil
	}

	keys := rootKeyPreds(d.Preds, root)
	hit := make([]bool, len(ss.children))
	ss.targets(hit, d.Preds, keys)
	return ss.execRootDML(d, keys, hit)
}

// execRootDML applies a root-table DELETE or UPDATE on the shards marked
// in hit, one after the other, with the root-key predicates (keys)
// localized per shard. Caller holds ss.mu.
func (ss *shardSet) execRootDML(d *plan.DML, keys []int, hit []bool) (int64, error) {
	var total int64
	for s, target := range hit {
		if !target {
			continue
		}
		sd := *d
		sd.Preds = ss.localizePreds(s, d.Preds, keys)
		cnt, err := ss.child(s).shardExecDML(&sd)
		if err != nil {
			return total, fmt.Errorf("core: shard %d: %w", s, err)
		}
		total += cnt
	}
	return total, nil
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
			o := &outs[s]
			o.pending, o.simStart, o.err = ss.child(s).shardCheckpointPrepare(ctx)
			if o.pending != nil {
				o.survivors = o.pending.survivors
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
			o := &outs[s]
			o.span, o.err = ss.child(s).shardCheckpointCommit(o.pending, append([]uint32(nil), newL2G[s]...), o.simStart)
		}(s)
	}
	wg.Wait()

	ss.rootMap = newMap
	ss.localToGlobal = newL2G

	// Refresh the coordinator's global cardinalities: the root from the
	// rebuilt mapping, dimensions from shard 0's post-merge counts.
	ss.child(0).shardRowCounts(db.rowCounts)
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
	db.metrics.checkpoints.Inc()
	db.metrics.checkpointWall.Observe(time.Since(ckptStart).Nanoseconds())
	db.metrics.checkpointSim.Observe(int64(maxSpan))
	db.metrics.noteDelta(db)
	if firstErr != nil {
		return 0, firstErr
	}
	return absorbed, nil
}
