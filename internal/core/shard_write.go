package core

// The write side of the front door: the bulk load's partitioning, INSERT
// and DELETE/UPDATE routing, and the two-phase CHECKPOINT that rebuilds
// the global root mapping. All of it runs under the write side of
// shardSet.mu, so no query ever sees the mapping move.
//
// Cross-shard root INSERTs are not atomic: rows route to their shards
// one statement per shard, and a mid-statement failure (e.g. a foreign
// key killed by a concurrent DELETE) can leave earlier shards applied.
// The front door pre-validates arity, coercion and global key density
// to make that window small; if it is ever hit, the global mapping and
// the shard disagree and queries fail with an explicit "outside the
// global root mapping" error rather than returning wrong rows. Under the
// identity mapping a statement goes to its one engine whole.
//
// Errors of the load and of the statements, which visit their engines one
// after another, come back as the engine said them (a dead device's
// latched error names its shard); the CHECKPOINT phases, which run the
// engines in parallel, name the shard that failed.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// each runs fn(s) for every shard, in parallel over several; the
// caller's goroutine takes the last shard itself.
func (ss *shardSet) each(fn func(s int)) {
	var wg sync.WaitGroup
	last := len(ss.engines) - 1
	for s := 0; s < last; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s)
		}(s)
	}
	fn(last)
	wg.Wait()
}

// ---------------------------------------------------------------------------
// Bulk load.

// load distributes the bulk-load image over the engines: the root table
// round-robin (as is under the identity mapping), dimension tables
// replicated as-is (their columns are shared read-only across engines).
func (ss *shardSet) load(sch *schema.Schema, img []tableImage, ddl []string) error {
	root := sch.Root()
	rim := &img[root.Ordinal()]

	// Partition the root: global row r (0-based) goes to shard r%n under
	// the next local identifier.
	n := len(ss.engines)
	roots := newRootMapping(n)
	parts := make([]tableImage, n)
	if roots.identity() {
		roots.n = rim.n
		parts[0] = *rim
	} else {
		for s := range parts {
			parts[s] = newTableImage(root, rim.n/n+1)
		}
		for r := 0; r < rim.n; r++ {
			s, _ := roots.place()
			parts[s].appendFrom(root, rim, r)
		}
	}

	for s, e := range ss.engines {
		part := slices.Clone(img) // replicated dimensions share the columns
		part[root.Ordinal()] = parts[s]
		// Each engine's commit record persists its local->global root
		// mapping alongside the data, so recovery from the shard images
		// alone can reassemble the global order.
		if err := e.load(part, roots.globals(s), ddl); err != nil {
			return err
		}
	}
	ss.roots = roots
	return nil
}

// ---------------------------------------------------------------------------
// DML routing.

// insert routes a post-build INSERT. Dimension inserts broadcast to
// every shard (replicas stay identical); root inserts are validated
// globally, rewritten to shard-local dense keys and routed round-robin
// by global identifier, extending the mapping only after every shard
// applied. Applied rows join the hidden-value audit set. Caller holds
// db.mu.
func (ss *shardSet) insert(db *DB, ins *sql.Insert) error {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	t, ok := db.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	isRoot := strings.EqualFold(t.Name, db.sch.Root().Name)
	if !isRoot || ss.roots.identity() {
		// A replicated dimension, or the root on its one engine: every
		// engine validates and applies the identical statement against
		// identical state, so it either applies everywhere or fails on the
		// first engine.
		for _, e := range ss.engines {
			if err := e.insert(ins); err != nil {
				return err
			}
		}
		if isRoot {
			ss.roots.n += len(ins.Rows)
		}
		auditInsert(db, t, ins.Rows)
		return nil
	}

	// Root insert: front-door validation of arity, coercion and global
	// key density, so the only failures after routing begins are
	// device-side ones (e.g. RAM budget), keeping the non-atomic window
	// small.
	pkIdx := t.PrimaryKeyIndex()
	coerced := make([][]value.Value, len(ins.Rows))
	for ri, row := range ins.Rows {
		out := make([]value.Value, len(t.Columns))
		if err := checkRow(t, row, out, ri, int64(ss.roots.n)+1+int64(ri), nil); err != nil {
			return err
		}
		coerced[ri] = out
	}

	// Group the rows per target shard with local dense keys: global row g
	// (0-based) goes to shard g%n under that shard's next local key, which
	// is where rootMapping.place puts it once every shard applied.
	n := len(ss.engines)
	perShard := make([][][]value.Value, n)
	for ri, row := range coerced {
		s := (ss.roots.n + ri) % n
		sr := append([]value.Value(nil), row...)
		sr[pkIdx] = value.NewInt(int64(len(ss.roots.l2g[s]) + len(perShard[s]) + 1))
		perShard[s] = append(perShard[s], sr)
	}
	for s, e := range ss.engines {
		if len(perShard[s]) == 0 {
			continue
		}
		if err := e.insert(&sql.Insert{Table: ins.Table, Rows: perShard[s]}); err != nil {
			return err
		}
	}
	for range coerced {
		ss.roots.place()
	}
	auditInsert(db, t, coerced)
	return nil
}

// auditInsert adds inserted hidden string values to the audit set.
func auditInsert(db *DB, t *schema.Table, rows [][]value.Value) {
	for _, row := range rows {
		for ci, c := range t.Columns {
			if c.Hidden && c.Type.Kind == value.String && ci < len(row) && row[ci].Kind() == value.String {
				db.hiddenVals.Add(row[ci])
			}
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
// statement. An UPDATE that changed a row adds its hidden string values
// to the audit set. Caller holds db.mu.
func (ss *shardSet) execDML(db *DB, d *plan.DML) (int64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	var total int64
	var err error
	if root := db.sch.Root(); !strings.EqualFold(d.Table.Name, root.Name) {
		for s, e := range ss.engines {
			cnt, serr := e.execDML(d)
			if serr != nil {
				return 0, serr
			}
			if s == 0 {
				total = cnt
			}
		}
	} else {
		var kbuf [4]int
		var hbuf [8]bool
		keys, hit := rootKeyPreds(kbuf[:0], d.Preds, root), ss.targetMarks(&hbuf)
		ss.targets(hit, d.Preds, keys)
		total, err = ss.execRootDML(d, keys, hit)
	}
	if total > 0 {
		for _, a := range d.Sets {
			if c := &d.Table.Columns[a.ColIdx]; c.Hidden && c.Type.Kind == value.String {
				db.hiddenVals.Add(a.Val)
			}
		}
	}
	return total, err
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
		sd := d
		if len(keys) > 0 && !ss.roots.identity() {
			local := *d
			local.Preds = ss.localizePreds(s, d.Preds, keys)
			sd = &local
		}
		cnt, err := ss.engines[s].execDML(sd)
		if err != nil {
			return total, err
		}
		total += cnt
	}
	return total, nil
}

// ---------------------------------------------------------------------------
// CHECKPOINT.

// checkpoint runs CHECKPOINT over the shard set as a two-phase merge.
// Phase A prepares every dirty shard in parallel — a pure read pass
// (liveness, renumbering, extraction) that leaves each engine untouched,
// so an error or a context cancellation anywhere abandons the whole
// checkpoint with every delta intact. Phase B rebuilds the global root
// mapping from the survivor lists and commits every shard in parallel:
// dirty shards rebuild into their spare flash half and flip their commit
// record; clean shards write a record-only commit, so all shard versions
// advance in lockstep and recovery can pick one global cut (shard
// versions never spread by more than the one a mid-commit crash tears).
//
// Each engine renumbers its root survivors densely in ascending old-local
// order; walking the old global mapping in order and consuming each
// shard's survivor list with a cursor therefore assigns exactly the
// engine's new local identifiers, and keeps l2g strictly increasing.
// Under the identity mapping the new count is the survivor count. Caller
// holds db.mu.
func (ss *shardSet) checkpoint(db *DB, ctx context.Context) (int64, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()

	rows, tombs, _ := ss.deltaTotals(db.sch)
	absorbed := int64(rows + tombs)
	if absorbed == 0 {
		return 0, nil
	}
	ckptStart := time.Now()

	type ckptOut struct {
		pending  *ckptPending
		simStart time.Duration
		span     time.Duration
		end      time.Time // when the engine's commit ended
		err      error
	}
	outs := make([]ckptOut, len(ss.engines))

	// Phase A: prepare in parallel. No device state changes yet.
	ss.each(func(s int) {
		o := &outs[s]
		o.pending, o.simStart, o.err = ss.engines[s].checkpointPrepare(ctx)
	})
	for s := range outs {
		if outs[s].err != nil {
			return 0, fmt.Errorf("core: shard %d checkpoint: %w", s, outs[s].err)
		}
	}

	// Rebuild the global mapping: new globals are assigned in old-global
	// order over the surviving rows. A shard whose delta was empty has
	// nothing to merge: every local row survives under its own identifier
	// (it still gets a record-only commit below).
	next := newRootMapping(len(ss.engines))
	if next.identity() {
		next.n = ss.roots.n
		if p := outs[0].pending; p != nil {
			next.n = len(p.survivors)
		}
	} else {
		cursor := make([]int, len(ss.engines))
		for _, loc := range ss.roots.loc {
			s := int(loc.shard)
			if p := outs[s].pending; p != nil {
				sv := p.survivors
				for cursor[s] < len(sv) && sv[cursor[s]] < loc.local {
					cursor[s]++
				}
				if cursor[s] >= len(sv) || sv[cursor[s]] != loc.local {
					continue // tombstoned (or cascade-dead): dropped by the merge
				}
			}
			cursor[s]++
			next.n++
			// survivor rank = the engine's new dense ID
			next.loc = append(next.loc, shardLoc{shard: loc.shard, local: uint32(cursor[s])})
			next.l2g[s] = append(next.l2g[s], uint32(next.n))
		}
	}

	// Phase B: commit in parallel. Each engine gets its new mapping slice
	// before writing the record, so the persisted manifest matches the
	// post-merge global order. A commit error latches that engine fatal;
	// the mapping still installs — the surviving shards committed, and
	// the dead one fails every touching query with its terminal error.
	ss.each(func(s int) {
		o := &outs[s]
		o.span, o.end, o.err = ss.engines[s].checkpointCommit(o.pending, next.globals(s), o.simStart, ckptStart)
	})
	ss.roots = next

	// The total ends where the last engine's commit phase ended, so the
	// phases partition it by construction (checkpointCommitLocked): what
	// the engines do after that (their own metrics) and the join are not
	// CHECKPOINT's time.
	var maxSpan time.Duration
	end := ckptStart
	var firstErr error
	for s := range outs {
		if outs[s].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: shard %d checkpoint: %w", s, outs[s].err)
		}
		maxSpan = max(maxSpan, outs[s].span)
		if outs[s].end.After(end) {
			end = outs[s].end
		}
	}

	m := db.metrics
	m.checkpoints.Inc()
	m.checkpointWall.Observe(end.Sub(ckptStart).Nanoseconds())
	m.checkpointSim.Observe(int64(maxSpan))
	m.noteDelta(db)
	if firstErr != nil {
		return 0, firstErr
	}
	return absorbed, nil
}
