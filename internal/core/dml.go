package core

// Live DML after the bulk load. The flash constraint keeps the base
// column segments write-once, so INSERT/UPDATE/DELETE after Build land
// in a per-table RAM delta (internal/delta): inserted and updated row
// images plus a tombstone set, charged against the device RAM arena for
// their hidden share. Queries subtract the shadowed identifiers from the
// base pipeline (the climbing indexes, Bloom filters and SKTs answer for
// the base segments only) and re-evaluate them — plus the inserted rows
// — directly against the effective state. CHECKPOINT merges the delta
// into fresh flash segments, renumbering the survivors densely, rebuilds
// the index structures, pays the simulated erase/program cost, and
// releases the delta's RAM grant.
//
// Deletion cascades virtually over the tree schema: a row whose
// foreign-key chain passes through a tombstoned ancestor is dead, and
// CHECKPOINT materializes the cascade by dropping it.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/delta"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
	"github.com/ghostdb/ghostdb/internal/visible"
)

// ErrUnboundDML is returned when a DML statement carrying '?'
// placeholders is executed without arguments for them.
var ErrUnboundDML = errors.New("core: DML statement carries unbound '?' placeholders; use a prepared statement")

// checkpointScript is the parsed form of the CHECKPOINT statement.
var checkpointScript = []sql.Statement{&sql.Checkpoint{}}

// Exec parses and executes a script of statements: CREATE TABLE and
// INSERT (staged before the load is finalized, live after), DELETE,
// UPDATE and CHECKPOINT. The first DML statement finalizes a pending
// bulk load. It returns the total number of rows affected.
func (db *DB) Exec(sqlText string) (int64, error) {
	stmts, err := sql.ParseScript(sqlText)
	if err != nil {
		return 0, err
	}
	return db.exec(context.Background(), nil, stmts, nil)
}

// exec is the exec door (see Session.ExecContext), attributed to s when
// it is not nil. A single DELETE or UPDATE that carries args runs its
// cached CompiledDML; any other script binds args into its statements
// and runs through the dispatcher.
func (db *DB) exec(ctx context.Context, s *Session, stmts []sql.Statement, args []value.Value) (int64, error) {
	if len(stmts) == 1 && len(args) > 0 {
		switch st := stmts[0].(type) {
		case *sql.Delete, *sql.Update:
			cd, hit, err := db.compileDMLCached(st)
			if err != nil {
				return 0, err
			}
			if s != nil {
				s.recordCache(hit)
			}
			return cd.exec(ctx, args)
		}
	}
	bound, err := sql.BindScript(stmts, args)
	if err != nil {
		return 0, fmt.Errorf("core: %w: %w", plan.ErrBind, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	return db.execLocked(ctx, bound)
}

// execLocked is the one statement dispatcher: CREATE TABLE, INSERT,
// DELETE, UPDATE and CHECKPOINT, each under ctx, which is checked before
// every statement and inside every CHECKPOINT — explicit or
// delta-limit-triggered — at table boundaries of its read phase (a
// canceled CHECKPOINT leaves the delta intact and the database
// untouched; its commit phase, once entered, runs to completion). DML
// and CHECKPOINT finalize a pending bulk load. Statements must be fully
// bound. Caller holds db.mu.
func (db *DB) execLocked(ctx context.Context, stmts []sql.Statement) (int64, error) {
	var affected int64
	for _, s := range stmts {
		if err := ctx.Err(); err != nil {
			return affected, err
		}
		var n int64
		var err error
		switch s := s.(type) {
		case *sql.CreateTable:
			err = db.applyCreate(s)
		case *sql.Insert:
			if err = db.insertLocked(s); err == nil {
				n, err = db.dmlDoneLocked(ctx, int64(len(s.Rows)), nil)
			}
		case *sql.Delete, *sql.Update:
			var d *plan.DML
			if d, err = db.bindDMLLocked(s); err == nil {
				if d.NumParams > 0 {
					err = ErrUnboundDML
				} else {
					n, err = db.execDMLLocked(ctx, d)
				}
			}
		case *sql.Checkpoint:
			if err = db.ensureBuiltLocked(); err == nil {
				n, err = db.checkpointAnyLocked(ctx)
			}
		default:
			err = fmt.Errorf("core: cannot execute %T", s)
		}
		affected += n
		if err != nil {
			return affected, err
		}
	}
	return affected, nil
}

// bindDMLLocked finalizes a pending bulk load and binds a DELETE or
// UPDATE against the frozen schema. Caller holds db.mu.
func (db *DB) bindDMLLocked(stmt sql.Statement) (*plan.DML, error) {
	if err := db.ensureBuiltLocked(); err != nil {
		return nil, err
	}
	return plan.BindDML(db.sch, stmt)
}

// execDMLLocked runs one fully bound DELETE or UPDATE over the engines
// and then the tail every DML statement shares, on the script path and
// the compiled path alike (dmlDoneLocked). Caller holds db.mu.
func (db *DB) execDMLLocked(ctx context.Context, d *plan.DML) (int64, error) {
	n, err := db.shards.execDML(db, d)
	return db.dmlDoneLocked(ctx, n, err)
}

// dmlDoneLocked is the tail of every DML statement — INSERT, DELETE and
// UPDATE, staged or live: it folds the statement into the DML counters,
// refreshes the delta gauges and, when the statement succeeded, runs the
// delta-limit CHECKPOINT under the caller's ctx. It returns n, the rows
// the statement affected. Caller holds db.mu.
func (db *DB) dmlDoneLocked(ctx context.Context, n int64, err error) (int64, error) {
	db.metrics.dmlStatements.Inc()
	db.metrics.rowsAffected.Add(n)
	db.metrics.noteDelta(db)
	if err != nil {
		return n, err
	}
	return n, db.maybeAutoCheckpoint(ctx)
}

// maybeAutoCheckpoint runs a CHECKPOINT when the deltalimit knob is set
// and the logical delta (rows plus tombstones over the engines) has grown
// past it.
func (db *DB) maybeAutoCheckpoint(ctx context.Context) error {
	if !db.loaded || db.opts.DeltaLimit <= 0 {
		return nil
	}
	if rows, tombs, _ := db.shards.deltaTotals(db.sch); rows+tombs < db.opts.DeltaLimit {
		return nil
	}
	_, err := db.checkpointAnyLocked(ctx)
	return err
}

// checkpointAnyLocked runs CHECKPOINT over the engines (shardSet.checkpoint).
func (db *DB) checkpointAnyLocked(ctx context.Context) (int64, error) {
	if !db.loaded {
		return 0, fmt.Errorf("core: CHECKPOINT before Build")
	}
	if err := db.FatalError(); err != nil {
		return 0, err
	}
	return db.shards.checkpoint(db, ctx)
}

// Checkpoint merges the delta into fresh flash segments (see the package
// comment) and returns the number of delta entries absorbed.
func (db *DB) Checkpoint() (int64, error) {
	return db.exec(context.Background(), nil, checkpointScript, nil)
}

// CompiledDML is the cacheable compiled form of a DELETE or UPDATE
// shape, the DML analogue of CompiledQuery: parsed and bound once,
// bind-many/run-many afterwards, shared through the plan cache.
type CompiledDML struct {
	db    *DB
	shape *plan.DML
}

// compileDMLCached returns the compiled form of a DELETE or UPDATE,
// consulting the shared plan cache first; the second result reports
// whether the lookup hit. A miss finalizes a pending bulk load.
func (db *DB) compileDMLCached(stmt sql.Statement) (*CompiledDML, bool, error) {
	key := "dml\x00" + normalizeSQL(stmt.String())
	if v, ok := db.planCache.get(key); ok {
		if cd, ok := v.(*CompiledDML); ok {
			db.metrics.planCacheHits.Inc()
			return cd, true, nil
		}
	}
	db.mu.Lock()
	var d *plan.DML
	err := ErrClosed
	if !db.closed {
		d, err = db.bindDMLLocked(stmt)
	}
	db.mu.Unlock()
	if err != nil {
		return nil, false, err
	}
	cd := &CompiledDML{db: db, shape: d}
	db.metrics.planCacheMisses.Inc()
	db.planCache.put(key, cd)
	return cd, false, nil
}

// exec binds the compiled shape to params (ordinal order, one per '?')
// and executes it under ctx, returning the number of rows affected.
func (cd *CompiledDML) exec(ctx context.Context, params []value.Value) (int64, error) {
	bound, err := cd.shape.BindParams(params)
	if err != nil {
		return 0, fmt.Errorf("core: %w: %w", plan.ErrBind, err)
	}
	db := cd.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return db.execDMLLocked(ctx, bound)
}

// ---------------------------------------------------------------------------
// Effective state: base segments overlaid with the RAM delta.
//
// Everything here runs on the table views loadState built (tableView):
// tables are addressed by schema ordinal — the delta store by the same
// ordinal — and columns by position, so no name is resolved, lower-cased
// or concatenated per row or per cell. Invariants: a view is valid for
// exactly one loadState (CHECKPOINT, Recover and OpenPath build new ones
// with the new stores); and the views change where the host finds a
// value, never what the device is charged for it — one CyclesTombstone
// and one tombstone_probes_total per fresh liveness evaluation (the memo
// lives for one operation), CyclesDecode per delta-resident value,
// CyclesCompare per descend hop, base hidden values through the charged
// page cache in the same read order.

// liveness memoizes chain-liveness per table/ID for one operation. A row
// is live iff it is not tombstoned and every row its foreign-key chain
// references is live (the virtual delete cascade). Each fresh evaluation
// charges one tombstone probe to the device CPU.
type liveness struct {
	e *engine
	// States are 0 unknown, 1 live, 2 dead. dense (by table ordinal, then
	// ID) serves an operation that sweeps whole tables; sparse, keyed
	// ordinal<<32|ID, holds what dense does not cover — every identifier
	// a point operation touches, so a keyed statement costs O(1) in the
	// table size.
	dense  [][]uint8
	sparse map[uint64]uint8
}

func (e *engine) newLiveness(sweep bool) *liveness {
	l := &liveness{e: e, sparse: map[uint64]uint8{}}
	if sweep {
		l.dense = make([][]uint8, len(e.views))
		for ord, tv := range e.views {
			l.dense[ord] = make([]uint8, e.maxID(tv)+1)
		}
	}
	return l
}

func (l *liveness) live(ord int, id uint32) bool {
	key := uint64(ord)<<32 | uint64(id)
	var cell *uint8
	var state uint8
	if l.dense != nil && int(id) < len(l.dense[ord]) {
		cell = &l.dense[ord][id]
		state = *cell
	} else {
		state = l.sparse[key]
	}
	if state != 0 {
		return state == 1
	}
	l.e.dev.CPU.Charge(sim.CyclesTombstone)
	l.e.metrics.tombstoneProbes.Inc()
	state = 2
	if l.computeLive(l.e.views[ord], id) {
		state = 1
	}
	if cell != nil {
		*cell = state
	} else {
		l.sparse[key] = state
	}
	return state == 1
}

func (l *liveness) computeLive(tv *tableView, id uint32) bool {
	if id == 0 {
		return false
	}
	var img []value.Value
	if d := l.e.deltaOf(tv); d != nil {
		if d.Tombstoned(id) {
			return false
		}
		img, _ = d.Row(id)
	}
	if int(id) > tv.baseN && img == nil {
		return false // beyond the base segment a row must be delta-resident
	}
	for _, ci := range tv.fks {
		cid, err := l.e.fkOf(tv, img, ci, id)
		if err != nil || !l.live(tv.cols[ci].ref, cid) {
			return false
		}
	}
	return true
}

// deltaOf returns the table's delta, nil when it has none.
func (e *engine) deltaOf(tv *tableView) *delta.Table { return e.delta.Get(tv.t.Ordinal()) }

// maxID returns the highest identifier ever assigned in the table.
func (e *engine) maxID(tv *tableView) uint32 {
	if d := e.deltaOf(tv); d != nil {
		return d.MaxID()
	}
	return uint32(tv.baseN)
}

// image returns the delta image of row id, or nil while the base version
// is current. Callers reading several columns of one row fetch it once.
func (e *engine) image(tv *tableView, id uint32) []value.Value {
	if d := e.deltaOf(tv); d != nil {
		img, _ := d.Row(id)
		return img
	}
	return nil
}

// fkOf reads the current value of the foreign key at column position ci
// of row id, whose delta image (or nil) is img: the image when the row is
// delta-resident, the retained base edge otherwise.
func (e *engine) fkOf(tv *tableView, img []value.Value, ci int, id uint32) (uint32, error) {
	if img != nil {
		return uint32(img[ci].Int()), nil
	}
	if int(id) > tv.baseN {
		return 0, fmt.Errorf("core: %s id %d has no row", tv.t.Name, id)
	}
	return tv.cols[ci].fk[id-1], nil
}

// valueOf reads the current value of column position ci of row id, whose
// delta image (or nil) is img. Delta images are served from device RAM;
// base hidden values from the flash store (charged through the page
// cache); base visible values and primary keys from the untrusted side
// for free.
func (e *engine) valueOf(tv *tableView, img []value.Value, ci int, id uint32) (value.Value, error) {
	if img != nil {
		e.dev.CPU.Charge(sim.CyclesDecode)
		return img[ci], nil
	}
	if int(id) > tv.baseN {
		return value.Value{}, fmt.Errorf("core: %s id %d has no row", tv.t.Name, id)
	}
	switch cv := &tv.cols[ci]; {
	case tv.t.Columns[ci].PrimaryKey:
		return value.NewInt(int64(id)), nil
	case cv.hid != nil:
		return cv.hid.Value(int(id) - 1)
	default:
		return cv.vis.Value(id)
	}
}

// fkHop is one step down the foreign-key chain: the foreign key at
// column position col of table tv.
type fkHop struct {
	tv  *tableView
	col int
}

// descent returns the hops leading from a row of from down to the row of
// target it transitively references (none when they are the same table).
func (e *engine) descent(from, target *tableView) ([]fkHop, error) {
	var hops []fkHop
	for tv := target; tv != from; tv = e.views[tv.parent] {
		if tv.parent < 0 {
			return nil, fmt.Errorf("core: %s is not reachable from %s", target.t.Name, from.t.Name)
		}
		hops = append(hops, fkHop{tv: e.views[tv.parent], col: tv.up})
	}
	slices.Reverse(hops)
	return hops, nil
}

// effectiveDescend walks from row id down the effective foreign-key
// chain along hops.
func (e *engine) effectiveDescend(id uint32, hops []fkHop) (uint32, error) {
	for _, h := range hops {
		e.dev.CPU.Charge(sim.CyclesCompare)
		next, err := e.fkOf(h.tv, e.image(h.tv, id), h.col, id)
		if err != nil {
			return 0, err
		}
		id = next
	}
	return id, nil
}

// effectiveRow materializes the full current image of row id (schema
// column order).
func (e *engine) effectiveRow(tv *tableView, id uint32) ([]value.Value, error) {
	if img := e.image(tv, id); img != nil {
		e.dev.CPU.Charge(sim.CyclesDeltaRow)
		return slices.Clone(img), nil
	}
	out := make([]value.Value, len(tv.cols))
	for ci := range tv.cols {
		v, err := e.valueOf(tv, nil, ci, id)
		if err != nil {
			return nil, err
		}
		out[ci] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// INSERT after Build.

// deltaInsertLocked validates and applies a post-build INSERT: dense
// primary keys continuing the sequence, literals coerced to column
// kinds, foreign keys referencing live rows. The statement ships over
// the bus to the device, which stores the hidden share in its RAM arena;
// the whole statement applies atomically or not at all.
func (e *engine) deltaInsertLocked(ins *sql.Insert) error {
	t, ok := e.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	tv := e.views[t.Ordinal()]
	dt := e.delta.Ensure(t, tv.baseN)
	lv := e.newLiveness(false)
	rows := make([][]value.Value, len(ins.Rows))
	busBytes := 0
	live := func(ci int, id uint32) bool { return lv.live(tv.cols[ci].ref, id) }
	for ri, row := range ins.Rows {
		out := make([]value.Value, len(t.Columns))
		if err := checkRow(t, row, out, ri, int64(dt.NextID())+int64(ri), live); err != nil {
			return err
		}
		for _, v := range out {
			busBytes += v.EncodedSize()
		}
		rows[ri] = out
	}
	// The statement travels terminal -> device; the hidden payload is
	// never echoed to the server.
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindDML, busBytes, "INSERT "+t.Name, nil); err != nil {
		e.noteDeviceErr(err)
		return err
	}
	_, err := dt.InsertAll(rows)
	return err
}

// ---------------------------------------------------------------------------
// DELETE / UPDATE.

// execDMLLocked runs one fully bound DELETE or UPDATE under the gate and
// returns the number of live rows affected.
func (e *engine) execDMLLocked(d *plan.DML) (int64, error) {
	if !e.loaded {
		return 0, fmt.Errorf("core: DML before Build")
	}
	if err := e.fatalError(); err != nil {
		return 0, err
	}
	if d.NumParams > 0 {
		return 0, ErrUnboundDML
	}
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindDML, len(d.SQL), d.Op.String()+" "+d.Table.Name, nil); err != nil {
		e.noteDeviceErr(err)
		return 0, err
	}
	ids, err := e.matchDMLLocked(d)
	if err != nil {
		e.noteDeviceErr(err)
		return 0, err
	}
	// Apply all-or-nothing: validate, build every new image, then hand
	// the statement to the delta in one charge — a statement that runs out
	// of device RAM midway must leave nothing behind for CHECKPOINT to
	// make durable.
	tv := e.views[d.Table.Ordinal()]
	dt := e.delta.Ensure(d.Table, tv.baseN)
	switch d.Op {
	case plan.OpDelete:
		if err := dt.DeleteAll(ids); err != nil {
			return 0, err
		}
	case plan.OpUpdate:
		if len(ids) == 0 {
			break
		}
		lv := e.newLiveness(false)
		for _, a := range d.Sets {
			if c := &d.Table.Columns[a.ColIdx]; c.IsForeignKey() &&
				(a.Val.Kind() != value.Int || !lv.live(tv.cols[a.ColIdx].ref, uint32(a.Val.Int()))) {
				return 0, fmt.Errorf("core: UPDATE %s: foreign key %s = %s references no live %s row",
					d.Table.Name, c.Name, a.Val, c.RefTable)
			}
		}
		rows := make([][]value.Value, len(ids))
		for i, id := range ids {
			row, err := e.effectiveRow(tv, id)
			if err != nil {
				return 0, err
			}
			for _, a := range d.Sets {
				row[a.ColIdx] = a.Val
			}
			rows[i] = row
		}
		if err := dt.ApplyAll(ids, rows); err != nil {
			return 0, err
		}
	}
	return int64(len(ids)), nil
}

// matchDMLLocked returns the sorted live identifiers matching the DML's
// predicates over the effective state: base candidates come from the
// climbing indexes (hidden predicates, exact posting lists) and the
// untrusted side's selections (visible predicates) minus the shadowed
// set; delta-resident images are scanned directly in RAM.
func (e *engine) matchDMLLocked(d *plan.DML) ([]uint32, error) {
	ord := d.Table.Ordinal()
	baseN := e.views[ord].baseN
	dt := e.delta.Get(ord)
	lv := e.newLiveness(false)
	rep := &stats.Report{}

	// Base candidates: intersect the per-predicate exact ID lists.
	var base []uint32
	if len(d.Preds) == 0 {
		base = make([]uint32, baseN)
		for i := range base {
			base[i] = uint32(i + 1)
		}
	} else {
		for i, p := range d.Preds {
			var ids []uint32
			if p.Hidden() {
				ix, ok := e.indexLocked(p.Col.Table, p.Col.Column)
				if !ok {
					return nil, fmt.Errorf("core: no index on hidden column %s", p.Col)
				}
				op := rep.NewOp("ClimbingIndex", p.String())
				var refs []climbing.ListRef
				err := forEachEntry(ix, p.P, func(ent climbing.Entry) error {
					if ent.Lists[0].Count > 0 {
						refs = append(refs, ent.Lists[0])
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				it, err := e.env.UnionBatch(e.env.ListSources(ix, refs), e.env.Fanin(0.5), op)
				if err != nil {
					return nil, err
				}
				if ids, err = exec.CollectBatch(it); err != nil {
					return nil, err
				}
			} else {
				var err error
				if ids, err = e.visSelect(p); err != nil {
					return nil, err
				}
			}
			if i == 0 {
				base = ids
			} else {
				base = visible.IntersectSorted(base, ids)
			}
			if len(base) == 0 {
				break
			}
		}
	}

	var out []uint32
	for _, id := range base {
		if dt != nil && dt.Shadowed(id) {
			continue // re-evaluated from the delta image below
		}
		if !lv.live(ord, id) {
			continue
		}
		out = append(out, id)
	}

	// Delta-resident images: direct RAM scan.
	if dt != nil {
		predCols := make([]int, len(d.Preds)) // column position per predicate
		for i, p := range d.Preds {
			predCols[i] = d.Table.ColumnIndex(p.Col.Column)
		}
		for _, id := range dt.DeltaIDs() {
			if !lv.live(ord, id) {
				continue
			}
			row, _ := dt.Row(id)
			e.dev.CPU.Charge(sim.CyclesDeltaRow)
			match := true
			for i, p := range d.Preds {
				e.dev.CPU.Charge(sim.CyclesPredicate)
				ok, err := p.P.Eval(row[predCols[i]])
				if err != nil {
					return nil, err
				}
				if !ok {
					match = false
					break
				}
			}
			if match {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out, nil
}

// ---------------------------------------------------------------------------
// CHECKPOINT.

// ckptPending is a prepared CHECKPOINT: the extracted post-merge column
// data and survivor lists, ready to commit into the inactive flash half.
// Between prepare and commit the database is fully intact — the delta
// still holds every mutation, so abandoning a pending checkpoint (on
// context cancellation, say) loses nothing.
type ckptPending struct {
	// survivors lists the root table's surviving old identifiers in
	// ascending order; never nil (empty when every root row died).
	survivors []uint32
	img       []tableImage
	committed time.Time // end of the commit phase, set on every outcome
}

// checkpointPrepareLocked runs the read-only phase of a CHECKPOINT:
// liveness, renumbering, and extraction of the effective column data.
// It checks ctx at every table boundary; any error — cancellation
// included — returns with the database untouched and the delta intact.
// A clean delta returns (nil, nil).
func (e *engine) checkpointPrepareLocked(ctx context.Context) (*ckptPending, error) {
	if !e.loaded {
		return nil, fmt.Errorf("core: CHECKPOINT before Build")
	}
	if e.delta.Entries() == 0 {
		return nil, nil
	}
	p := &ckptPending{}
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindDML, len("CHECKPOINT"), "CHECKPOINT", nil); err != nil {
		e.noteDeviceErr(err)
		return nil, err
	}
	lv := e.newLiveness(true)

	// Pass 1: survivors and their new dense identifiers, per table
	// ordinal (renumber[ord][old] is the new identifier, 0 when dead).
	oldIDs := make([][]uint32, len(e.views))
	renumber := make([][]uint32, len(e.views))
	for ord, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		maxID := e.maxID(tv)
		ids := make([]uint32, 0, maxID)
		remap := make([]uint32, maxID+1)
		for id := uint32(1); id <= maxID; id++ {
			if lv.live(ord, id) {
				ids = append(ids, id)
				remap[id] = uint32(len(ids))
			}
		}
		oldIDs[ord], renumber[ord] = ids, remap
	}

	// Pass 2: extract the effective columns with foreign keys remapped,
	// before anything is torn down. Row-major, so the page cache sees the
	// base hidden columns in the same order as ever.
	img := make([]tableImage, len(e.views))
	for ord, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		t, ids := tv.t, oldIDs[ord]
		tim := newTableImage(t, len(ids))
		for _, oldID := range ids {
			row := e.image(tv, oldID)
			for ci := range t.Columns {
				switch c := &t.Columns[ci]; {
				case c.PrimaryKey:
				case c.IsForeignKey():
					oldChild, err := e.fkOf(tv, row, ci, oldID)
					if err != nil {
						return nil, err
					}
					remap := renumber[tv.cols[ci].ref]
					if int(oldChild) >= len(remap) || remap[oldChild] == 0 {
						return nil, fmt.Errorf("core: checkpoint: %s.%s row %d dangles", t.Name, c.Name, oldID)
					}
					tim.fks[ci] = append(tim.fks[ci], remap[oldChild])
				default:
					v, err := e.valueOf(tv, row, ci, oldID)
					if err != nil {
						e.noteDeviceErr(err)
						return nil, err
					}
					tim.cols[ci].Append(v)
				}
			}
		}
		tim.n = len(ids)
		img[ord] = tim
	}
	p.survivors = oldIDs[e.sch.Root().Ordinal()]
	p.img = img
	return p, nil
}

// checkpointCommitLocked makes a prepared checkpoint durable: it swaps
// to the inactive flash half (erasing only the version-before-last),
// rebuilds the column files and indexes there at full simulated cost,
// and then — as the last device operation — writes the new commit
// record. A crash at any point leaves exactly the previous committed
// version recoverable; an error mid-commit latches the DB fatal, since
// the in-RAM structures no longer match any committed flash state.
// Feeds the device's phase metrics on every outcome, and stamps
// p.committed before it does: the front door's total
// (shardSet.checkpoint) runs from since, when the CHECKPOINT began, to the
// last device's p.committed. The prepare phase runs from since to this
// commit's start — the read phase and the front door's renumbering of
// the root mapping, waiting for the other devices' reads included — so on
// one device prepare, rebuild and commit partition the total exactly.
func (e *engine) checkpointCommitLocked(p *ckptPending, since time.Time) error {
	start := time.Now()
	var rebuilt time.Time // zero until the rebuild phase has succeeded
	defer func() {
		p.committed = time.Now()
		m := e.metrics
		m.checkpointPrepareWall.Observe(start.Sub(since).Nanoseconds())
		if !rebuilt.IsZero() {
			m.checkpointRebuildWall.Observe(rebuilt.Sub(start).Nanoseconds())
			m.checkpointCommitWall.Observe(p.committed.Sub(rebuilt).Nanoseconds())
		}
	}()
	// Tear down the old device structures: drop the page cache grant,
	// swap to the spare half (erasing the version-before-last) and
	// release the delta RAM.
	e.hid.Release()
	if err := e.dev.SwapHalf(); err != nil {
		e.setFatal(err)
		return err
	}
	e.delta.ReleaseAll()

	// Rebuild at full simulated cost: every AppendRegion programs pages,
	// on top of the erase charges above. The clock is NOT rewound — this
	// is the price of making the delta durable.
	vis, err := e.loadState(p.img)
	if err != nil {
		e.setFatal(err)
		return err
	}
	rebuilt = time.Now()
	e.version++
	e.stashCommitted(e.version, vis)
	if err := e.writeCommitRecord(); err != nil {
		// The new state is built but not committed: recovery would land
		// on the previous version, diverging from the live in-RAM state.
		e.setFatal(err)
		return err
	}
	return nil
}

// recordOnlyCommitLocked advances this device's committed version
// without rebuilding its data: the commit record is re-pointed at the
// current (unchanged) column extents. The front door uses it on
// shards whose delta was empty during a global CHECKPOINT, keeping all
// shard versions in lockstep so recovery can pick one global cut.
func (e *engine) recordOnlyCommitLocked() error {
	e.version++
	if prev, ok := e.committedVis[e.version-1]; ok {
		e.committedVis[e.version] = prev
		if e.version >= 2 {
			delete(e.committedVis, e.version-2)
		}
	}
	if err := e.writeCommitRecord(); err != nil {
		e.setFatal(err)
		return err
	}
	return nil
}

// mustTable returns a frozen-schema table by name (checkpoint internals;
// the schema validated these references at load time).
func (e *engine) mustTable(name string) *schema.Table {
	t, _ := e.sch.Table(name)
	return t
}

// ---------------------------------------------------------------------------
// Query-path delta footprint.

// deltaFootprint computes, for a query rooted at q.Root, the base root
// identifiers whose referenced tree touches the delta (they must be
// subtracted from the base pipeline) and the sorted candidate root
// identifiers to re-evaluate against the effective state (the subtracted
// set plus the root's own delta-resident rows).
func (e *engine) deltaFootprint(q *plan.Query) (map[uint32]struct{}, []uint32) {
	if !e.delta.Dirty() {
		return nil, nil
	}
	root := e.views[q.Root.Ordinal()]

	// Tables the query root transitively references (the liveness and
	// value chain of a root row), including the root itself.
	var reach []*tableView
	var visit func(tv *tableView)
	visit = func(tv *tableView) {
		reach = append(reach, tv)
		for _, ci := range tv.fks {
			visit(e.views[tv.cols[ci].ref])
		}
	}
	visit(root)

	dirty := map[uint32]struct{}{}
	for _, tv := range reach {
		d := e.deltaOf(tv)
		if d == nil || !d.Dirty() {
			continue
		}
		// Propagate the shadowed base identifiers up the referencing
		// chain to the query root through the retained inverted edges
		// (a row references one row, so the lists met are disjoint).
		cur := d.ShadowedBaseIDs()
		for ; tv != root && len(cur) > 0; tv = e.views[tv.parent] {
			inv := e.views[tv.parent].cols[tv.up].inv
			var next []uint32
			for _, id := range cur {
				if int(id) <= len(inv) {
					next = append(next, inv[id-1]...)
				}
			}
			cur = next
		}
		for _, id := range cur {
			dirty[id] = struct{}{}
		}
	}

	cands := map[uint32]struct{}{}
	for id := range dirty {
		cands[id] = struct{}{}
	}
	if d := e.deltaOf(root); d != nil {
		for _, id := range d.DeltaIDs() {
			cands[id] = struct{}{}
		}
	}
	if len(dirty) == 0 {
		dirty = nil
	}
	return dirty, sortedKeys(cands)
}

// sortedKeys lists m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
