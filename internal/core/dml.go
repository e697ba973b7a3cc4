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
// CHECKPOINT materializes the cascade by dropping it. A point operation
// asks liveness row by row; CHECKPOINT's prepare works out each table's
// dead rows from the delta and the retained inverted edges instead, so
// its host work follows the delta (plus the copy of the clean rows and
// their hidden reads), while the device is charged the probe of every
// identifier a row-by-row walk would make.

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
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
	return db.exec(context.Background(), stmts, nil)
}

// exec is the exec door (see Session.ExecContext). The script's
// placeholder count is checked once, before its first statement runs;
// each statement then binds its own placeholders from args just before
// it runs (execLocked).
func (db *DB) exec(ctx context.Context, stmts []sql.Statement, args []value.Value) (int64, error) {
	if want := sql.CountParams(stmts...); len(args) != want {
		return 0, fmt.Errorf("core: %w: script has %d placeholders, got %d arguments", plan.ErrBind, want, len(args))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	return db.execLocked(ctx, stmts, args)
}

// execLocked is the one statement dispatcher: CREATE TABLE, INSERT,
// DELETE, UPDATE and CHECKPOINT, each under ctx, which is checked before
// every statement and inside every CHECKPOINT — explicit or
// delta-limit-triggered — at table boundaries of its read phase (a
// canceled CHECKPOINT leaves the delta intact and the database
// untouched; its commit phase, once entered, runs to completion). DML
// and CHECKPOINT finalize a pending bulk load. args are the script's,
// one per '?' in ordinal order across the whole script: an INSERT binds
// them with Insert.BindParams, a DELETE or UPDATE with plan.BindDML and
// then plan.DML.BindParams, and an argument that does not bind there is
// plan.ErrBind. Caller holds db.mu.
func (db *DB) execLocked(ctx context.Context, stmts []sql.Statement, args []value.Value) (int64, error) {
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
			if s, err = s.BindParams(args); err != nil {
				err = fmt.Errorf("core: %w: %w", plan.ErrBind, err)
			} else if err = db.insertLocked(s); err == nil {
				n, err = db.dmlDoneLocked(ctx, int64(len(s.Rows)), nil)
			}
		case *sql.Delete, *sql.Update:
			var d *plan.DML
			if d, err = db.bindDMLLocked(s); err == nil {
				if d, err = d.BindParams(args); err != nil {
					err = fmt.Errorf("core: %w: %w", plan.ErrBind, err)
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
// and then the tail every DML statement shares (dmlDoneLocked). Caller
// holds db.mu.
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
	return db.exec(context.Background(), checkpointScript, nil)
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
// lives for one operation; CHECKPOINT pays one per identifier of every
// table), CyclesDecode per delta-resident value, CyclesCompare per
// descend hop, base hidden values through the charged page cache in the
// same read order.

// liveness memoizes chain-liveness per table/ID for one point operation
// (DML matching, the foreign-key checks of INSERT and UPDATE, the query
// path's delta scan). A row is live iff it is not tombstoned and every
// row its foreign-key chain references is live (the virtual delete
// cascade). Each fresh evaluation charges one tombstone probe to the
// device CPU. The memo, keyed ordinal<<32|ID, holds only the identifiers
// the operation touches, so a keyed statement costs O(1) in the table
// size. CHECKPOINT works out its dead rows from the delta instead
// (checkpointPrepareLocked).
type liveness struct {
	e    *engine
	memo map[uint64]uint8 // 1 live, 2 dead
}

// newLiveness returns an empty memo with room for about hint entries.
func (e *engine) newLiveness(hint int) *liveness {
	return &liveness{e: e, memo: make(map[uint64]uint8, hint)}
}

func (l *liveness) live(ord int, id uint32) bool {
	key := uint64(ord)<<32 | uint64(id)
	if state := l.memo[key]; state != 0 {
		return state == 1
	}
	l.e.dev.CPU.Charge(sim.CyclesTombstone)
	l.e.metrics.tombstoneProbes.Inc()
	state := uint8(2)
	if l.computeLive(l.e.views[ord], id) {
		state = 1
	}
	l.memo[key] = state
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
	lv := e.newLiveness(0)
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
		lv := e.newLiveness(0)
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
				err := ix.Walk(p.P, func(ent climbing.Entry) error {
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

	// The memo holds the candidates and the rows their foreign keys reach:
	// one entry per base candidate, about one per key and row in the delta.
	var deltaIDs []uint32
	if dt != nil {
		deltaIDs = dt.DeltaIDs()
	}
	lv := e.newLiveness(len(base) + len(deltaIDs)*(1+len(e.views[ord].fks)))
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
		for _, id := range deltaIDs {
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
// which rows survive, their new dense identifiers, and the extraction of
// the effective column data. Its host work grows with the delta, not the
// database, apart from copying the clean rows and reading their hidden
// cells; its simulated bill is the one a sweep of every identifier would
// run up (see deadRows and extractLocked). It checks ctx at every table
// boundary of both passes; any error — cancellation included — returns
// with the database untouched and the delta intact. A clean delta returns
// (nil, nil).
func (e *engine) checkpointPrepareLocked(ctx context.Context) (*ckptPending, error) {
	if !e.loaded {
		return nil, fmt.Errorf("core: CHECKPOINT before Build")
	}
	if e.delta.Entries() == 0 {
		return nil, nil
	}
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindDML, len("CHECKPOINT"), "CHECKPOINT", nil); err != nil {
		e.noteDeviceErr(err)
		return nil, err
	}

	// Pass 1: the dead rows of every table, in ordinal order, so the
	// tables a table references are settled before it.
	tabs := make([]ckptTable, len(e.views))
	for _, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		e.deadRows(tv, tabs)
	}

	// Pass 2: extract the effective columns with foreign keys remapped,
	// before anything is torn down.
	img := make([]tableImage, len(e.views))
	for ord, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		tim, err := e.extractLocked(tv, tabs)
		if err != nil {
			return nil, err
		}
		img[ord] = tim
	}
	root := &tabs[e.sch.Root().Ordinal()]
	return &ckptPending{survivors: root.survivors(), img: img}, nil
}

// ckptTable is one table's side of a CHECKPOINT prepare, worked out from
// its delta.
type ckptTable struct {
	maxID uint32   // the highest identifier ever assigned
	imgs  []uint32 // delta-resident identifiers, ascending
	dead  []uint32 // identifiers that do not survive, ascending
	remap []uint32 // remap[old] is old's new identifier, 0 when dead; built on first use
}

// newIDs returns the renumbering of a table that lost rows: survivors
// take 1, 2, ... in ascending order of their old identifiers.
func (c *ckptTable) newIDs() []uint32 {
	if c.remap == nil {
		c.remap = make([]uint32, c.maxID+1)
		for i, old := range c.survivors() {
			c.remap[old] = uint32(i + 1)
		}
	}
	return c.remap
}

// newID returns the identifier old survives under, 0 when it dies or
// was never assigned.
func (c *ckptTable) newID(old uint32) uint32 {
	switch {
	case old == 0 || old > c.maxID:
		return 0
	case len(c.dead) == 0:
		return old
	}
	return c.newIDs()[old]
}

// survivors lists the surviving old identifiers, ascending; never nil.
func (c *ckptTable) survivors() []uint32 {
	out := make([]uint32, 0, int(c.maxID)-len(c.dead))
	dead := c.dead
	for id := uint32(1); id <= c.maxID; id++ {
		if len(dead) > 0 && dead[0] == id {
			dead = dead[1:]
			continue
		}
		out = append(out, id)
	}
	return out
}

// deadRows fills tabs[ord] for table tv from its delta alone; the tables
// tv references (declared before it) are filled already. A row is dead
// when it is tombstoned, when a foreign key of its delta image names a
// dead row, or when it is a base row without an image that a dead row
// reaches through the retained inverted edge. The device is charged what
// a row-by-row walk is charged: one tombstone probe per identifier in
// 1..maxID (each a fresh chain-liveness evaluation), paid in one
// ChargeUnits per table, so a CHECKPOINT canceled between tables has paid
// what the walk would have.
func (e *engine) deadRows(tv *tableView, tabs []ckptTable) {
	c := &tabs[tv.t.Ordinal()]
	c.maxID = e.maxID(tv)
	d := e.deltaOf(tv)
	var dead []uint32
	if d != nil {
		c.imgs = d.DeltaIDs()
		dead = d.TombstonedIDs()
	}
	for _, ci := range tv.fks {
		cv := &tv.cols[ci]
		gone := tabs[cv.ref].dead
		if len(gone) == 0 {
			continue
		}
		for _, g := range gone {
			if int(g) > len(cv.inv) {
				break // past the referenced base segment: no base row names g
			}
			for _, r := range cv.inv[g-1] {
				if d == nil || !d.Shadowed(r) { // a row with an image goes by its image
					dead = append(dead, r)
				}
			}
		}
		for _, id := range c.imgs {
			row, _ := d.Row(id)
			if _, found := slices.BinarySearch(gone, uint32(row[ci].Int())); found {
				dead = append(dead, id)
			}
		}
	}
	slices.Sort(dead)
	c.dead = slices.Compact(dead)
	e.dev.CPU.ChargeUnits(sim.CyclesTombstone, int64(c.maxID))
	e.metrics.tombstoneProbes.Add(int64(c.maxID))
}

// extractLocked builds table tv's post-merge image from its survivors in
// ascending order: a run of clean base rows is copied column by column —
// visible cells from the committed visible columns, foreign keys from
// the retained edges (renumbered when the referenced table lost rows) —
// and then its hidden cells are read through the page cache row by row,
// in schema order, which is the order (and so the page-cache and fault
// plan history) a row-at-a-time extraction has; a delta image is copied
// cell by cell at one decode charge per value cell.
func (e *engine) extractLocked(tv *tableView, tabs []ckptTable) (tableImage, error) {
	t, c := tv.t, &tabs[tv.t.Ordinal()]
	n := int(c.maxID) - len(c.dead)
	tim := newTableImage(t, n)
	tim.n = n
	var hidden []int // hidden value columns, schema order
	values := int64(0)
	for ci := range t.Columns {
		if col := &t.Columns[ci]; col.PrimaryKey || col.IsForeignKey() {
			continue
		}
		values++
		if tv.cols[ci].hid != nil {
			hidden = append(hidden, ci)
		}
	}
	interners := make([]value.Interner, len(hidden)) // one per hidden column: its repeated strings
	dangles := func(ci int, id uint32) error {
		return fmt.Errorf("core: checkpoint: %s.%s row %d dangles", t.Name, t.Columns[ci].Name, id)
	}

	// copyRun copies the clean base rows lo..hi-1.
	copyRun := func(lo, hi uint32) error {
		if int(hi-1) > tv.baseN {
			return fmt.Errorf("core: %s id %d has no row", t.Name, tv.baseN+1)
		}
		for ci := range t.Columns {
			col, cv := &t.Columns[ci], &tv.cols[ci]
			switch {
			case col.PrimaryKey:
			case col.IsForeignKey():
				src, ref := cv.fk[lo-1:hi-1], &tabs[cv.ref]
				if len(ref.dead) == 0 {
					tim.fks[ci] = append(tim.fks[ci], src...)
					continue
				}
				remap := ref.newIDs()
				for j, old := range src {
					if remap[old] == 0 {
						return dangles(ci, lo+uint32(j))
					}
					tim.fks[ci] = append(tim.fks[ci], remap[old])
				}
			case cv.hid == nil:
				tim.cols[ci].AppendRange(cv.vis.Cells(), int(lo-1), int(hi-1))
			}
		}
		for id := lo; id < hi; id++ {
			for k, ci := range hidden {
				if err := tv.cols[ci].hid.AppendTo(&tim.cols[ci], int(id)-1, &interners[k]); err != nil {
					e.noteDeviceErr(err)
					return err
				}
			}
		}
		return nil
	}
	// copyImage copies the delta image of row id.
	copyImage := func(id uint32, row []value.Value) error {
		e.dev.CPU.ChargeUnits(sim.CyclesDecode, values)
		for ci := range t.Columns {
			switch col := &t.Columns[ci]; {
			case col.PrimaryKey:
			case col.IsForeignKey():
				nid := tabs[tv.cols[ci].ref].newID(uint32(row[ci].Int()))
				if nid == 0 {
					return dangles(ci, id)
				}
				tim.fks[ci] = append(tim.fks[ci], nid)
			default:
				tim.cols[ci].Append(row[ci])
			}
		}
		return nil
	}

	// Walk 1..maxID by what the delta names — dead rows and images —
	// copying the clean runs between them.
	d := e.deltaOf(tv)
	dead, imgs := c.dead, c.imgs
	for lo := uint32(1); lo <= c.maxID; {
		next := c.maxID + 1
		if len(dead) > 0 {
			next = min(next, dead[0])
		}
		if len(imgs) > 0 {
			next = min(next, imgs[0])
		}
		if lo < next {
			if err := copyRun(lo, next); err != nil {
				return tableImage{}, err
			}
		}
		if next > c.maxID {
			break
		}
		isDead := len(dead) > 0 && dead[0] == next
		if isDead {
			dead = dead[1:]
		}
		if len(imgs) > 0 && imgs[0] == next {
			imgs = imgs[1:]
			if !isDead {
				row, _ := d.Row(next)
				if err := copyImage(next, row); err != nil {
					return tableImage{}, err
				}
			}
		}
		lo = next + 1
	}
	return tim, nil
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
	sidecar, err := e.loadState(p.img, e.version+1)
	if err != nil {
		e.setFatal(err)
		return err
	}
	rebuilt = time.Now()
	e.version++
	if err := e.commitLocked(sidecar); err != nil {
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
	if err := e.commitLocked(e.stashCommitted(e.version, e.committedVis[e.version-1])); err != nil {
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
func (e *engine) deltaFootprint(q *plan.Query) (idSet, []uint32) {
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

	var dirty []uint32
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
		dirty = append(dirty, cur...)
	}
	dead := newIDSet(dirty)

	// The candidates: the dead set in ascending order, merged with the
	// root's delta-resident rows (sorted too; an updated base row is in
	// both).
	cands := dead.appendTo(make([]uint32, 0, len(dirty)))
	if d := e.deltaOf(root); d != nil {
		cands = append(cands, d.DeltaIDs()...)
		slices.Sort(cands)
		cands = slices.Compact(cands)
	}
	return dead, cands
}

// idSet is a set of row identifiers as a bitset, bit id-1 standing for
// id, sized to its largest member: a probe is one shift and one mask,
// and an identifier past the end is absent. The empty set is nil.
type idSet []uint64

// newIDSet returns the set of ids (in any order, repeats allowed).
func newIDSet(ids []uint32) idSet {
	if len(ids) == 0 {
		return nil
	}
	s := make(idSet, (slices.Max(ids)+63)/64)
	for _, id := range ids {
		s[(id-1)/64] |= 1 << ((id - 1) % 64)
	}
	return s
}

// has reports whether id is in the set.
func (s idSet) has(id uint32) bool {
	i := (id - 1) / 64 // id 0 wraps past any set
	return int(i) < len(s) && s[i]&(1<<((id-1)%64)) != 0
}

// count reports the number of members.
func (s idSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendTo appends the members to dst in ascending order.
func (s idSet) appendTo(dst []uint32) []uint32 {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, uint32(i*64+bits.TrailingZeros64(w)+1))
		}
	}
	return dst
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
