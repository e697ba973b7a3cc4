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
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/ghostdb/ghostdb/internal/climbing"
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
// placeholders is executed without going through CompileDML/Exec.
var ErrUnboundDML = errors.New("core: DML statement carries unbound '?' placeholders; use a prepared statement")

// Exec parses and executes a script of statements: CREATE TABLE and
// INSERT (staged before Build, live after), DELETE, UPDATE and
// CHECKPOINT. The first DML statement finalizes a pending bulk load. It
// returns the total number of rows affected.
func (db *DB) Exec(sqlText string) (int64, error) {
	stmts, err := sql.ParseScript(sqlText)
	if err != nil {
		return 0, err
	}
	return db.ExecStatements(stmts)
}

// ExecStatements executes already-parsed statements (see Exec). INSERT
// rows must be fully bound; bind '?' placeholders first.
func (db *DB) ExecStatements(stmts []sql.Statement) (int64, error) {
	return db.ExecStatementsContext(context.Background(), stmts)
}

// ExecStatementsContext is ExecStatements under a context: CHECKPOINT —
// explicit or delta-limit-triggered — checks ctx at table boundaries
// during its read phase and aborts cleanly (delta intact, database
// untouched) when the context is done. The commit phase, once entered,
// always runs to completion.
func (db *DB) ExecStatementsContext(ctx context.Context, stmts []sql.Statement) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	var affected int64
	var dmlStmts, dmlRows int64
	// Fold the DML counters and refresh the delta gauges on every exit
	// path; runs before the gate is released (defers are LIFO).
	defer func() {
		if m := db.metrics; m != nil && dmlStmts > 0 {
			m.dmlStatements.Add(dmlStmts)
			m.rowsAffected.Add(dmlRows)
			m.noteDelta(db)
		}
	}()
	for _, s := range stmts {
		switch s := s.(type) {
		case *sql.CreateTable:
			if err := db.applyCreate(s); err != nil {
				return affected, err
			}
		case *sql.Insert:
			if err := db.insertLocked(s); err != nil {
				return affected, err
			}
			affected += int64(len(s.Rows))
			dmlStmts++
			dmlRows += int64(len(s.Rows))
			if err := db.maybeAutoCheckpoint(ctx); err != nil {
				return affected, err
			}
		case *sql.Delete, *sql.Update:
			if err := db.ensureBuiltLocked(); err != nil {
				return affected, err
			}
			d, err := plan.BindDML(db.sch, s)
			if err != nil {
				return affected, err
			}
			if d.NumParams > 0 {
				return affected, ErrUnboundDML
			}
			n, err := db.execDMLLocked(d)
			affected += n
			dmlStmts++
			dmlRows += n
			if err != nil {
				return affected, err
			}
			if err := db.maybeAutoCheckpoint(ctx); err != nil {
				return affected, err
			}
		case *sql.Checkpoint:
			if err := db.ensureBuiltLocked(); err != nil {
				return affected, err
			}
			n, err := db.checkpointAnyLocked(ctx)
			affected += n
			if err != nil {
				return affected, err
			}
		default:
			return affected, fmt.Errorf("core: cannot execute %T", s)
		}
	}
	return affected, nil
}

// ensureBuiltLocked finalizes a pending bulk load under the gate.
func (db *DB) ensureBuiltLocked() error {
	if db.loaded {
		return nil
	}
	return db.buildStaged()
}

// maybeAutoCheckpoint runs a CHECKPOINT when the deltalimit knob is set
// and the delta has grown past it. On a sharded DB the trigger counts
// the logical delta across the shard set (the children run with the
// knob off; the coordinator decides when the merge happens).
func (db *DB) maybeAutoCheckpoint(ctx context.Context) error {
	if !db.loaded || db.opts.DeltaLimit <= 0 {
		return nil
	}
	entries := 0
	if db.shards != nil {
		entries = db.shards.logicalEntries(db)
	} else {
		entries = db.delta.Entries()
	}
	if entries < db.opts.DeltaLimit {
		return nil
	}
	_, err := db.checkpointAnyLocked(ctx)
	return err
}

// checkpointAnyLocked dispatches CHECKPOINT to the engine at hand: the
// parallel per-shard merge on a sharded DB, the classic single-device
// merge otherwise.
func (db *DB) checkpointAnyLocked(ctx context.Context) (int64, error) {
	if !db.loaded {
		return 0, fmt.Errorf("core: CHECKPOINT before Build")
	}
	if err := db.fatalError(); err != nil {
		return 0, err
	}
	if db.shards != nil {
		return db.shards.checkpoint(db, ctx)
	}
	n, _, err := db.checkpointLocked(ctx)
	return n, err
}

// Checkpoint merges the delta into fresh flash segments (see the package
// comment) and returns the number of delta entries absorbed.
func (db *DB) Checkpoint() (int64, error) {
	return db.CheckpointContext(context.Background())
}

// CheckpointContext is Checkpoint under a context: the read phase
// checks ctx at table boundaries and aborts cleanly (delta intact) when
// the context is done; the commit phase, once entered, runs to
// completion.
func (db *DB) CheckpointContext(ctx context.Context) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	if err := db.ensureBuiltLocked(); err != nil {
		return 0, err
	}
	return db.checkpointAnyLocked(ctx)
}

// CompiledDML is the cacheable compiled form of a DELETE or UPDATE
// shape, the DML analogue of CompiledQuery: parsed and bound once,
// bind-many/run-many afterwards, shared through the plan cache.
type CompiledDML struct {
	db    *DB
	shape *plan.DML
}

// SQL returns the canonical statement text (placeholders render as '?').
func (cd *CompiledDML) SQL() string { return cd.shape.SQL }

// NumParams reports how many '?' placeholders the shape carries.
func (cd *CompiledDML) NumParams() int { return cd.shape.NumParams }

// CompileDML parses and binds a DELETE or UPDATE without touching the
// plan cache. The bulk load must be finalized first.
func (db *DB) CompileDML(sqlText string) (*CompiledDML, error) {
	db.mu.Lock()
	closed, loaded := db.closed, db.loaded
	db.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if !loaded {
		return nil, fmt.Errorf("core: DML before Build")
	}
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sql.Delete, *sql.Update:
	default:
		return nil, fmt.Errorf("core: CompileDML expects DELETE or UPDATE, got %T", stmt)
	}
	d, err := plan.BindDML(db.sch, stmt)
	if err != nil {
		return nil, err
	}
	return &CompiledDML{db: db, shape: d}, nil
}

// compileDMLCached returns the compiled DML for sqlText, consulting the
// shared plan cache first.
func (db *DB) compileDMLCached(sqlText string) (*CompiledDML, bool, error) {
	key := "dml\x00" + normalizeSQL(sqlText)
	if v, ok := db.planCache.get(key); ok {
		if cd, ok := v.(*CompiledDML); ok {
			return cd, true, nil
		}
	}
	cd, err := db.CompileDML(sqlText)
	if err != nil {
		return nil, false, err
	}
	db.planCache.put(key, cd)
	return cd, false, nil
}

// Exec binds the compiled shape to params (ordinal order, one per '?')
// and executes it, returning the number of rows affected.
func (cd *CompiledDML) Exec(params []value.Value) (int64, error) {
	bound, err := cd.shape.BindParams(params)
	if err != nil {
		return 0, err
	}
	db := cd.db
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	n, err := db.execDMLLocked(bound)
	if m := db.metrics; m != nil {
		m.dmlStatements.Inc()
		m.rowsAffected.Add(n)
		m.noteDelta(db)
	}
	if err != nil {
		return n, err
	}
	return n, db.maybeAutoCheckpoint(context.Background())
}

// ---------------------------------------------------------------------------
// Effective state: base segments overlaid with the RAM delta.

// liveness memoizes chain-liveness per table/ID for one operation. A row
// is live iff it is not tombstoned and every row its foreign-key chain
// references is live (the virtual delete cascade). Each fresh evaluation
// charges one tombstone probe to the device CPU.
type liveness struct {
	db   *DB
	memo map[string]map[uint32]bool
}

func (db *DB) newLiveness() *liveness {
	return &liveness{db: db, memo: map[string]map[uint32]bool{}}
}

func (l *liveness) live(table string, id uint32) bool {
	m := l.memo[table]
	if m == nil {
		m = map[uint32]bool{}
		l.memo[table] = m
	}
	if v, ok := m[id]; ok {
		return v
	}
	l.db.dev.CPU.Charge(sim.CyclesTombstone)
	if em := l.db.metrics; em != nil {
		em.tombstoneProbes.Inc()
	}
	v := l.computeLive(table, id)
	m[id] = v
	return v
}

func (l *liveness) computeLive(table string, id uint32) bool {
	db := l.db
	t, ok := db.sch.Table(table)
	if !ok || id == 0 {
		return false
	}
	d, hasDelta := db.delta.Get(t.Name)
	if hasDelta && d.Tombstoned(id) {
		return false
	}
	if int(id) > db.rowCounts[t.Name] {
		// Beyond the base segment: the row must be delta-resident.
		if !hasDelta {
			return false
		}
		if _, ok := d.Row(id); !ok {
			return false
		}
	}
	for _, fk := range t.ForeignKeys() {
		cid, err := db.effectiveFK(t, t.ColumnIndex(fk.Name), id)
		if err != nil || !l.live(fk.RefTable, cid) {
			return false
		}
	}
	return true
}

// effectiveFK reads the current foreign-key value of row id: the delta
// image when the row is delta-resident, the retained base edge array
// otherwise.
func (db *DB) effectiveFK(t *schema.Table, colIdx int, id uint32) (uint32, error) {
	if d, ok := db.delta.Get(t.Name); ok {
		if row, ok := d.Row(id); ok {
			return uint32(row[colIdx].Int()), nil
		}
	}
	if int(id) > db.rowCounts[t.Name] {
		return 0, fmt.Errorf("core: %s id %d has no row", t.Name, id)
	}
	ids := db.fkArrays[fkKey(t.Name, t.Columns[colIdx].Name)]
	return ids[id-1], nil
}

// effectiveValue reads the current value of column colIdx of row id.
// Delta images are served from device RAM; base hidden values from the
// flash store (charged through the page cache); base visible values and
// primary keys from the untrusted side for free.
func (db *DB) effectiveValue(t *schema.Table, colIdx int, id uint32) (value.Value, error) {
	if d, ok := db.delta.Get(t.Name); ok {
		if row, ok := d.Row(id); ok {
			db.dev.CPU.Charge(sim.CyclesDecode)
			return row[colIdx], nil
		}
	}
	if int(id) > db.rowCounts[t.Name] {
		return value.Value{}, fmt.Errorf("core: %s id %d has no row", t.Name, id)
	}
	c := t.Columns[colIdx]
	if c.PrimaryKey {
		return value.NewInt(int64(id)), nil
	}
	if c.Hidden {
		td, ok := db.hid.Table(t.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("core: no hidden table %s", t.Name)
		}
		col, ok := td.Column(c.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("core: no hidden column %s.%s", t.Name, c.Name)
		}
		return col.Value(int(id) - 1)
	}
	vt, ok := db.vis.Table(t.Name)
	if !ok {
		return value.Value{}, fmt.Errorf("core: no visible table %s", t.Name)
	}
	return vt.Value(c.Name, id)
}

// effectiveDescend walks from a row of `from` down the effective
// foreign-key chain to its row in target (which `from` transitively
// references).
func (db *DB) effectiveDescend(from *schema.Table, fromID uint32, target string) (uint32, error) {
	if from.Name == target {
		return fromID, nil
	}
	path := db.sch.PathToRoot(target)
	start := -1
	for i, t := range path {
		if t.Name == from.Name {
			start = i
			break
		}
	}
	if start <= 0 {
		return 0, fmt.Errorf("core: %s is not reachable from %s", target, from.Name)
	}
	id := fromID
	for i := start; i > 0; i-- {
		parent := path[i]
		child := path[i-1]
		_, fk := db.sch.Parent(child.Name)
		db.dev.CPU.Charge(sim.CyclesCompare)
		next, err := db.effectiveFK(parent, parent.ColumnIndex(fk.Name), id)
		if err != nil {
			return 0, err
		}
		id = next
	}
	return id, nil
}

// effectiveRow materializes the full current image of row id (schema
// column order).
func (db *DB) effectiveRow(t *schema.Table, id uint32) ([]value.Value, error) {
	if d, ok := db.delta.Get(t.Name); ok {
		if row, ok := d.Row(id); ok {
			db.dev.CPU.Charge(sim.CyclesDeltaRow)
			out := make([]value.Value, len(row))
			copy(out, row)
			return out, nil
		}
	}
	out := make([]value.Value, len(t.Columns))
	for i := range t.Columns {
		v, err := db.effectiveValue(t, i, id)
		if err != nil {
			return nil, err
		}
		out[i] = v
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
func (db *DB) deltaInsertLocked(ins *sql.Insert) error {
	t, ok := db.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	dt := db.delta.Ensure(t, db.rowCounts[t.Name])
	lv := db.newLiveness()
	rows := make([][]value.Value, len(ins.Rows))
	busBytes := 0
	for ri, row := range ins.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("core: %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
		}
		out := make([]value.Value, len(row))
		for ci, v := range row {
			if v.IsParam() {
				return fmt.Errorf("core: INSERT into %s carries an unbound '?' placeholder; bind arguments first", t.Name)
			}
			c := t.Columns[ci]
			cv, err := value.Coerce(v, c.Type.Kind)
			if err != nil {
				return fmt.Errorf("core: %s.%s row %d: %w", t.Name, c.Name, ri+1, err)
			}
			out[ci] = cv
			busBytes += cv.EncodedSize()
		}
		want := int64(dt.NextID()) + int64(ri)
		pkVal := out[t.PrimaryKeyIndex()]
		if pkVal.Kind() != value.Int || pkVal.Int() != want {
			return fmt.Errorf("core: %s primary key must be dense: row %d needs key %d, got %s",
				t.Name, ri+1, want, pkVal)
		}
		for _, fk := range t.ForeignKeys() {
			ref := out[t.ColumnIndex(fk.Name)]
			if ref.Kind() != value.Int || !lv.live(fk.RefTable, uint32(ref.Int())) {
				return fmt.Errorf("core: %s row %d: foreign key %s = %s references no live %s row",
					t.Name, ri+1, fk.Name, ref, fk.RefTable)
			}
		}
		rows[ri] = out
	}
	// The statement travels terminal -> device; the hidden payload is
	// never echoed to the server.
	if err := db.net.Send(trace.Terminal, trace.Device, trace.KindDML, busBytes, "INSERT "+t.Name, nil); err != nil {
		db.noteDeviceErr(err)
		return err
	}
	if _, err := dt.InsertAll(rows); err != nil {
		return err
	}
	for _, row := range rows {
		for ci, c := range t.Columns {
			if c.Hidden && c.Type.Kind == value.String {
				db.hiddenVals.Add(row[ci])
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// DELETE / UPDATE.

// execDMLLocked runs one fully bound DELETE or UPDATE under the gate and
// returns the number of live rows affected.
func (db *DB) execDMLLocked(d *plan.DML) (int64, error) {
	if !db.loaded {
		return 0, fmt.Errorf("core: DML before Build")
	}
	if err := db.fatalError(); err != nil {
		return 0, err
	}
	if d.NumParams > 0 {
		return 0, ErrUnboundDML
	}
	if db.shards != nil {
		return db.shards.execDML(db, d)
	}
	if err := db.net.Send(trace.Terminal, trace.Device, trace.KindDML, len(d.SQL), d.Op.String()+" "+d.Table.Name, nil); err != nil {
		db.noteDeviceErr(err)
		return 0, err
	}
	ids, err := db.matchDMLLocked(d)
	if err != nil {
		db.noteDeviceErr(err)
		return 0, err
	}
	dt := db.delta.Ensure(d.Table, db.rowCounts[d.Table.Name])
	switch d.Op {
	case plan.OpDelete:
		for _, id := range ids {
			if err := dt.Delete(id); err != nil {
				return 0, err
			}
		}
	case plan.OpUpdate:
		lv := db.newLiveness()
		for _, id := range ids {
			row, err := db.effectiveRow(d.Table, id)
			if err != nil {
				return 0, err
			}
			for _, a := range d.Sets {
				c := d.Table.Columns[a.ColIdx]
				if c.IsForeignKey() {
					if a.Val.Kind() != value.Int || !lv.live(c.RefTable, uint32(a.Val.Int())) {
						return 0, fmt.Errorf("core: UPDATE %s: foreign key %s = %s references no live %s row",
							d.Table.Name, c.Name, a.Val, c.RefTable)
					}
				}
				row[a.ColIdx] = a.Val
				if c.Hidden && c.Type.Kind == value.String {
					db.hiddenVals.Add(a.Val)
				}
			}
			if err := dt.Apply(id, row); err != nil {
				return 0, err
			}
		}
	}
	return int64(len(ids)), nil
}

// matchDMLLocked returns the sorted live identifiers matching the DML's
// predicates over the effective state: base candidates come from the
// climbing indexes (hidden predicates, exact posting lists) and the
// untrusted side's selections (visible predicates) minus the shadowed
// set; delta-resident images are scanned directly in RAM.
func (db *DB) matchDMLLocked(d *plan.DML) ([]uint32, error) {
	t := d.Table
	baseN := db.rowCounts[t.Name]
	dt, hasDelta := db.delta.Get(t.Name)
	lv := db.newLiveness()
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
				ix, ok := db.indexLocked(p.Col.Table, p.Col.Column)
				if !ok {
					return nil, fmt.Errorf("core: no index on hidden column %s", p.Col)
				}
				op := rep.NewOp("ClimbingIndex", p.String())
				var sources []exec.IDSource
				err := forEachEntry(ix, p.P, func(e climbing.Entry) error {
					if e.Lists[0].Count > 0 {
						sources = append(sources, exec.ClimbSource{Env: db.env, Ix: ix, Ref: e.Lists[0]})
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				it, err := db.env.Union(sources, db.env.Fanin(0.5), op)
				if err != nil {
					return nil, err
				}
				if ids, err = exec.Collect(it); err != nil {
					return nil, err
				}
			} else {
				var err error
				if ids, err = db.visSelect(p); err != nil {
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
		if hasDelta && dt.Shadowed(id) {
			continue // re-evaluated from the delta image below
		}
		if !lv.live(t.Name, id) {
			continue
		}
		out = append(out, id)
	}

	// Delta-resident images: direct RAM scan.
	if hasDelta {
		for _, id := range dt.DeltaIDs() {
			if !lv.live(t.Name, id) {
				continue
			}
			row, _ := dt.Row(id)
			db.dev.CPU.Charge(sim.CyclesDeltaRow)
			match := true
			for _, p := range d.Preds {
				db.dev.CPU.Charge(sim.CyclesPredicate)
				colIdx := t.ColumnIndex(p.Col.Column)
				ok, err := p.P.Eval(row[colIdx])
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
	absorbed  int64
	oldIDs    map[string][]uint32
	cols      map[string][][]value.Value
	wallStart time.Time
	simStart  time.Duration
}

// checkpointLocked merges the delta into fresh flash segments: it
// extracts the chain-live rows of every table (reading base hidden
// values through the charged page cache and delta images from RAM),
// renumbers the survivors densely — materializing the virtual delete
// cascade — builds the column files, SKTs and climbing indexes into the
// inactive flash half at full program cost, flips the commit record,
// and releases the delta's RAM grants. It returns the number of delta
// entries absorbed and the root table's surviving old identifiers in
// ascending order (each survivor's new dense identifier is its rank in
// that list) — the sharded coordinator rebuilds its global mapping from
// them. A no-op checkpoint returns a nil survivor list.
func (db *DB) checkpointLocked(ctx context.Context) (int64, []uint32, error) {
	p, err := db.checkpointPrepareLocked(ctx)
	if err != nil || p == nil {
		return 0, nil, err
	}
	if err := db.checkpointCommitLocked(p); err != nil {
		return 0, nil, err
	}
	return p.absorbed, p.oldIDs[db.sch.Root().Name], nil
}

// checkpointPrepareLocked runs the read-only phase of a CHECKPOINT:
// liveness, renumbering, and extraction of the effective column data.
// It checks ctx at every table boundary; any error — cancellation
// included — returns with the database untouched and the delta intact.
// A clean delta returns (nil, nil).
func (db *DB) checkpointPrepareLocked(ctx context.Context) (*ckptPending, error) {
	if !db.loaded {
		return nil, fmt.Errorf("core: CHECKPOINT before Build")
	}
	absorbed := int64(db.delta.Entries())
	if absorbed == 0 {
		return nil, nil
	}
	p := &ckptPending{absorbed: absorbed, wallStart: time.Now(), simStart: db.clock.Now()}
	if err := db.net.Send(trace.Terminal, trace.Device, trace.KindDML, len("CHECKPOINT"), "CHECKPOINT", nil); err != nil {
		db.noteDeviceErr(err)
		return nil, err
	}
	lv := db.newLiveness()

	// Pass 1: survivors and their new dense identifiers, per table.
	oldIDs := map[string][]uint32{}
	renumber := map[string]map[uint32]uint32{}
	for _, t := range db.sch.Tables() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		maxID := uint32(db.rowCounts[t.Name])
		if d, ok := db.delta.Get(t.Name); ok {
			maxID = d.MaxID()
		}
		var ids []uint32
		remap := map[uint32]uint32{}
		for id := uint32(1); id <= maxID; id++ {
			if !lv.live(t.Name, id) {
				continue
			}
			ids = append(ids, id)
			remap[id] = uint32(len(ids))
		}
		oldIDs[t.Name] = ids
		renumber[t.Name] = remap
	}

	// Pass 2: extract the effective columns with foreign keys remapped,
	// before anything is torn down.
	cols := map[string][][]value.Value{}
	for _, t := range db.sch.Tables() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		ids := oldIDs[t.Name]
		tcols := make([][]value.Value, len(t.Columns))
		for ci := range t.Columns {
			tcols[ci] = make([]value.Value, len(ids))
		}
		for newIdx, oldID := range ids {
			for ci, c := range t.Columns {
				switch {
				case c.PrimaryKey:
					tcols[ci][newIdx] = value.NewInt(int64(newIdx + 1))
				case c.IsForeignKey():
					oldChild, err := db.effectiveFK(t, ci, oldID)
					if err != nil {
						return nil, err
					}
					newChild, ok := renumber[db.mustTable(c.RefTable).Name][oldChild]
					if !ok {
						return nil, fmt.Errorf("core: checkpoint: %s.%s row %d dangles", t.Name, c.Name, oldID)
					}
					tcols[ci][newIdx] = value.NewInt(int64(newChild))
				default:
					v, err := db.effectiveValue(t, ci, oldID)
					if err != nil {
						db.noteDeviceErr(err)
						return nil, err
					}
					tcols[ci][newIdx] = v
				}
			}
		}
		cols[t.Name] = tcols
	}
	p.oldIDs = oldIDs
	p.cols = cols
	return p, nil
}

// checkpointCommitLocked makes a prepared checkpoint durable: it swaps
// to the inactive flash half (erasing only the version-before-last),
// rebuilds the column files and indexes there at full simulated cost,
// and then — as the last device operation — writes the new commit
// record. A crash at any point leaves exactly the previous committed
// version recoverable; an error mid-commit latches the DB fatal, since
// the in-RAM structures no longer match any committed flash state.
// Feeds the checkpoint metrics on every outcome.
func (db *DB) checkpointCommitLocked(p *ckptPending) error {
	defer func() {
		db.checkpointsRun.Add(1)
		if m := db.metrics; m != nil {
			m.checkpoints.Inc()
			m.checkpointWall.Observe(time.Since(p.wallStart).Nanoseconds())
			m.checkpointSim.Observe(int64(db.clock.Span(p.simStart)))
			m.noteDelta(db)
		}
	}()
	// Tear down the old device structures: drop the page cache grant,
	// swap to the spare half (erasing the version-before-last) and
	// release the delta RAM.
	db.hid.Release()
	if err := db.dev.SwapHalf(); err != nil {
		db.setFatal(err)
		return err
	}
	db.delta.ReleaseAll()

	// Rebuild at full simulated cost: every AppendRegion programs pages,
	// on top of the erase charges above. The clock is NOT rewound — this
	// is the price of making the delta durable.
	if err := db.loadState(p.cols); err != nil {
		db.setFatal(err)
		return err
	}
	db.version++
	db.stashCommitted(db.version, p.cols)
	if err := db.writeCommitRecord(); err != nil {
		// The new state is built but not committed: recovery would land
		// on the previous version, diverging from the live in-RAM state.
		db.setFatal(err)
		return err
	}
	return nil
}

// recordOnlyCommitLocked advances this device's committed version
// without rebuilding its data: the commit record is re-pointed at the
// current (unchanged) column extents. A sharded coordinator uses it on
// shards whose delta was empty during a global CHECKPOINT, keeping all
// shard versions in lockstep so recovery can pick one global cut.
func (db *DB) recordOnlyCommitLocked() error {
	db.version++
	if prev, ok := db.committedVis[db.version-1]; ok {
		db.committedVis[db.version] = prev
		if db.version >= 2 {
			delete(db.committedVis, db.version-2)
		}
	}
	if err := db.writeCommitRecord(); err != nil {
		db.setFatal(err)
		return err
	}
	return nil
}

// mustTable returns a frozen-schema table by name (checkpoint internals;
// the schema validated these references at load time).
func (db *DB) mustTable(name string) *schema.Table {
	t, _ := db.sch.Table(name)
	return t
}

// ---------------------------------------------------------------------------
// Query-path delta footprint.

// deltaFootprint computes, for a query rooted at q.Root, the base root
// identifiers whose referenced tree touches the delta (they must be
// subtracted from the base pipeline) and the sorted candidate root
// identifiers to re-evaluate against the effective state (the subtracted
// set plus the root's own delta-resident rows).
func (db *DB) deltaFootprint(q *plan.Query) (map[uint32]struct{}, []uint32) {
	if !db.delta.Dirty() {
		return nil, nil
	}
	root := q.Root

	// Tables the query root transitively references (the liveness and
	// value chain of a root row), including the root itself.
	var reach []*schema.Table
	var visit func(t *schema.Table)
	visit = func(t *schema.Table) {
		reach = append(reach, t)
		for _, fk := range t.ForeignKeys() {
			visit(db.mustTable(fk.RefTable))
		}
	}
	visit(root)

	dirty := map[uint32]struct{}{}
	for _, t := range reach {
		d, ok := db.delta.Get(t.Name)
		if !ok || !d.Dirty() {
			continue
		}
		ids := d.ShadowedBaseIDs()
		if len(ids) == 0 {
			continue
		}
		if t.Name == root.Name {
			for _, id := range ids {
				dirty[id] = struct{}{}
			}
			continue
		}
		// Propagate the shadowed base identifiers up the referencing
		// chain to the query root through the retained inverted edges.
		path := db.sch.PathToRoot(t.Name)
		cur := ids
		for j := 0; j+1 < len(path) && len(cur) > 0; j++ {
			child, parent := path[j], path[j+1]
			inv := db.inverted[invKey(parent.Name, child.Name)]
			next := map[uint32]struct{}{}
			for _, id := range cur {
				if int(id) <= len(inv) {
					for _, p := range inv[id-1] {
						next[p] = struct{}{}
					}
				}
			}
			cur = sortedIDs(next)
			if parent.Name == root.Name {
				break
			}
		}
		for _, id := range cur {
			dirty[id] = struct{}{}
		}
	}

	cands := map[uint32]struct{}{}
	for id := range dirty {
		cands[id] = struct{}{}
	}
	if d, ok := db.delta.Get(root.Name); ok {
		for _, id := range d.DeltaIDs() {
			cands[id] = struct{}{}
		}
	}
	if len(dirty) == 0 {
		dirty = nil
	}
	return dirty, sortedIDs(cands)
}

func sortedIDs(set map[uint32]struct{}) []uint32 {
	out := make([]uint32, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}
