package core

// The device engine: one simulated smart USB device and everything that
// lives on it or beside it — clock, flash, RAM arena, buses and wire
// trace, the hidden store and its indexes, the visible store of the rows
// it holds, the RAM delta, the committed versions and the fatal latch.
// Every database is a front door (DB) over n >= 1 engines; the front door
// reaches an engine only through the methods in this file, each of which
// takes the engine's device gate (e.mu) for exactly as long as the device
// works. Lock order is front door db.mu (optional) -> shardSet.mu ->
// engine e.mu.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/delta"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/skt"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
	"github.com/ghostdb/ghostdb/internal/visible"
)

// engine is one device and its pipeline. The device is a single-core chip
// with a private clock, RAM arena and scratch flash, so execution against
// it is serialized by the device gate (mu), exactly as a hardware token
// serializes its USB command stream.
type engine struct {
	opts  Options // the database's, with this engine's backend path
	sch   *schema.Schema
	shard int // this engine's number in its database

	clock *sim.Clock
	dev   *device.Device
	env   *exec.Env
	net   *bus.Network
	rec   *trace.Recorder

	// metrics is the device's registry: what the device and its pipeline
	// did (flash, bus, RAM, batches, liveness probes, faults, CHECKPOINT
	// phases). The database's registry is its front door's plus the sum of
	// its engines' (DB.MetricsSnapshot).
	metrics *engineMetrics

	// inj is the armed fault injector (nil when no plan targets this
	// device). Immutable after open.
	inj *fault.Injector
	// fatalErr latches the first unrecoverable device error — power cut,
	// bus disconnect, or a failed commit that may have left flash torn.
	// Once set, every query and mutation on the device fails fast with
	// it; the path back is Snapshot + Recover. Read lock-free.
	fatalErr atomic.Pointer[fatalCause]

	// mu is the device gate: it serializes load, queries, DML and
	// CHECKPOINT on the device and guards all fields below it.
	mu     sync.Mutex
	closed bool
	loaded bool

	vis       *visible.Store
	hid       *store.Store
	skts      map[string]*skt.SKT // per table with a subtree
	rowCounts map[string]int

	// views resolves every schema table, by ordinal, to the base structures
	// of the current load (see tableView).
	views []*tableView

	// delta holds the post-build mutations (inserted/updated row images,
	// tombstones), charged against the device RAM arena for its hidden
	// share.
	delta *delta.Store

	// version numbers the committed device states: 0 is the bulk load,
	// each CHECKPOINT commit increments it. The commit record for
	// version v lives in record slot v%2.
	version uint64
	// committedVis retains the visible (non-hidden, non-PK) column data
	// of the last two committed versions. Recovery pairs it with the flash
	// image: the paper's visible store is server-durable, the device is
	// what crashes. Columns are shared by reference and never mutated.
	committedVis map[uint64]visImage
	// ddl is the catalog's CREATE TABLE text, persisted in the sidecar of
	// a file-backed engine.
	ddl []string
	// rootGlobals maps engine-local root identifiers (index l-1) to global
	// ones; nil while the root mapping is the identity. The commit record
	// persists it next to the data.
	rootGlobals []uint32
}

// enginePath is where engine i of n keeps its device on a file backend:
// a single engine lives at the database path itself, several live in one
// shardN subdirectory each. It is the one place the directory layout
// depends on n.
func enginePath(root string, i, n int) string {
	if n == 1 {
		return root
	}
	return shardPath(root, i)
}

// shardPath returns shard i's device directory under a sharded file
// backend's root path.
func shardPath(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard%d", i))
}

// newEngine builds engine i of n over the shared catalog. On the file
// backend it creates the device at its path (Open cleared the database
// path first; reopening is OpenPath's job, which lifts the flash images
// before landing here).
func newEngine(opts Options, sch *schema.Schema, i, n int) (*engine, error) {
	clock := sim.NewClock()
	var dev *device.Device
	var err error
	if opts.Backend.IsFile() {
		opts.Backend.Path = enginePath(opts.Backend.Path, i, n)
		fd, ferr := filedev.Open(opts.Backend.Path, opts.Profile.Flash, opts.Backend.Fsync)
		if ferr != nil {
			return nil, ferr
		}
		dev, err = device.NewWithBackend(opts.Profile, clock, fd)
		if err != nil {
			fd.Close()
		}
	} else {
		dev, err = device.New(opts.Profile, clock)
	}
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(opts.Capture)
	net := bus.NewNetwork(clock, rec)
	net.Connect(trace.Terminal, trace.Server, bus.LAN())
	net.Connect(trace.Terminal, trace.Device, opts.USB)
	net.Connect(trace.Device, trace.Display, opts.USB)
	e := &engine{
		opts:      opts,
		sch:       sch,
		shard:     i,
		clock:     clock,
		dev:       dev,
		env:       exec.NewEnv(dev),
		net:       net,
		rec:       rec,
		metrics:   newDeviceMetrics(),
		skts:      map[string]*skt.SKT{},
		rowCounts: map[string]int{},
		delta:     delta.NewStore(dev.RAM),
	}
	e.installFault(opts.FaultPlan, i)
	return e, nil
}

// installFault arms the fault injector on this device's flash and bus,
// wiring its observations into the device metrics. A nil plan — or one
// targeting a different shard — leaves the device clean.
func (e *engine) installFault(p *fault.Plan, shard int) {
	inj := fault.New(p, shard)
	if inj == nil {
		return
	}
	inj.SetSink(faultSink{e.metrics})
	// The secure-setting bulk load is fault-free (the device is
	// provisioned at the publisher); load arms the injector when the
	// database goes live, so cutop/failop count operational ops only.
	inj.Disarm()
	e.inj = inj
	e.dev.Flash.SetInjector(inj)
	e.net.SetInjector(inj)
}

// fatalCause boxes the latched terminal device error, wrapped once with
// the engine's shard number: every caller that meets the dead device gets
// the same error value, so errors.Is matches it against DB.FatalError.
type fatalCause struct{ err error }

// setFatal latches the first unrecoverable device error. Later calls
// keep the original cause.
func (e *engine) setFatal(err error) {
	if err == nil {
		return
	}
	e.fatalErr.CompareAndSwap(nil, &fatalCause{err: fmt.Errorf("core: shard %d unavailable: %w", e.shard, err)})
}

// fatalError returns the latched terminal error, or nil while the device
// is healthy. Read lock-free.
func (e *engine) fatalError() error {
	if c := e.fatalErr.Load(); c != nil {
		return c.err
	}
	return nil
}

// noteDeviceErr latches err as fatal when it indicates the device is
// gone for good (power cut, bus disconnect, or a corrupted read that
// survived the retry ladder is NOT fatal — only dead devices are).
func (e *engine) noteDeviceErr(err error) {
	if fault.IsDeviceDead(err) {
		e.setFatal(err)
	}
}

// close flushes and releases the storage backend (a no-op on the
// simulated device; the file backend syncs dirty segments if asked to and
// drops its segment handles) after the query in flight, if any. Committed
// state was already made durable at each commit point, so a Sync error
// here is not fatal to the data.
func (e *engine) close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.dev.Flash.Sync()
	if cerr := e.dev.Flash.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// What the front door asks of an engine.

// load bulk-loads the device's partition; rootGlobals is its local->global
// root mapping (nil: the identity), persisted with every commit record.
func (e *engine) load(img []tableImage, rootGlobals []uint32, ddl []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rootGlobals, e.ddl = rootGlobals, ddl
	vis, err := e.loadState(img)
	if err != nil {
		return err
	}

	// Commit version 0: stash the visible columns and write the first
	// commit record, so a crash at any later point can recover at least
	// the freshly loaded state. Still inside the secure setting, so the
	// record's flash cost is rewound along with the load's.
	e.stashCommitted(0, vis)
	if err := e.writeCommitRecord(); err != nil {
		return err
	}

	// The secure-setting load is free: rewind the simulated time it
	// consumed and reset operational stats.
	e.clock.Reset()
	e.dev.Flash.ResetStats()
	e.hid.Cache().ResetStats()
	e.dev.RAM.ResetHigh()
	e.net.ResetStats()
	e.rec.Reset()

	e.loaded = true
	e.inj.Arm() // go live: faults apply from here on
	return nil
}

// insert applies a post-build INSERT whose keys are already local.
func (e *engine) insert(ins *sql.Insert) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.fatalError(); err != nil {
		return err
	}
	return e.deltaInsertLocked(ins)
}

// execDML applies a bound DELETE or UPDATE whose root-key predicates are
// already local.
func (e *engine) execDML(d *plan.DML) (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.execDMLLocked(d)
}

// checkpointPrepare is CHECKPOINT's read-only phase; a nil pending means
// the device's delta is empty. simStart is the device clock at entry,
// handed back to checkpointCommit.
func (e *engine) checkpointPrepare(ctx context.Context) (*ckptPending, time.Duration, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	simStart := e.clock.Now()
	p, err := e.checkpointPrepareLocked(ctx)
	return p, simStart, err
}

// checkpointCommit installs the post-merge root mapping and commits: the
// prepared rebuild of a CHECKPOINT that began at since, or a record-only
// commit for a clean device. It returns the simulated time since simStart
// and the host wall-clock instant the commit ended.
func (e *engine) checkpointCommit(p *ckptPending, rootGlobals []uint32, simStart time.Duration, since time.Time) (time.Duration, time.Time, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rootGlobals = rootGlobals
	if p == nil {
		err := e.recordOnlyCommitLocked()
		return e.clock.Span(simStart), time.Now(), err
	}
	err := e.checkpointCommitLocked(p, since)
	return e.clock.Span(simStart), p.committed, err
}

// addDelta adds the device's delta of table t (when it holds anything)
// to acc.
func (e *engine) addDelta(t *schema.Table, acc *DeltaStats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.delta.Get(t.Ordinal()); d != nil && d.Dirty() {
		acc.Rows += d.Rows()
		acc.Tombstones += d.Tombstones()
		acc.DeviceB += d.DeviceBytes()
		acc.HostB += d.HostBytes()
	}
}

// nextID reports the dense key the device's next INSERT into table
// carries.
func (e *engine) nextID(t *schema.Table) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.delta.Get(t.Ordinal()); d != nil {
		return d.NextID()
	}
	return uint32(e.rowCounts[t.Name]) + 1
}

// baseRows reads the device's base cardinality of table.
func (e *engine) baseRows(table string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rowCounts[table]
}

// simTime reads the device clock's accumulated simulated time.
func (e *engine) simTime() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.clock.Now()
}

// storage reports the device's flash footprint by structure.
func (e *engine) storage() StorageBreakdown {
	e.mu.Lock()
	defer e.mu.Unlock()
	var b StorageBreakdown
	for _, s := range e.skts {
		b.SKTs += s.Bytes()
	}
	for _, tv := range e.views {
		for _, c := range tv.cols {
			if c.ix != nil {
				b.Climbing += c.ix.Bytes()
			}
		}
	}
	b.Total = e.dev.Main.UsedBytes()
	b.BaseColumns = b.Total - b.SKTs - b.Climbing
	return b
}

// Index returns the climbing index on table.column, if any.
func (e *engine) Index(table, column string) (*climbing.Index, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.indexLocked(table, column)
}

// ---------------------------------------------------------------------------
// Loading.

// visImage is one committed version's visible non-key columns, keyed
// table -> column (lowercased).
type visImage map[string]map[string]value.Column

// stashCommitted retains the visible columns of a committed version for
// Snapshot/Recover, pruning everything older than the previous version —
// the only one still recoverable from the A/B record slots.
func (e *engine) stashCommitted(version uint64, vis visImage) {
	if e.committedVis == nil {
		e.committedVis = map[uint64]visImage{}
	}
	e.committedVis[version] = vis
	if version >= 2 {
		delete(e.committedVis, version-2)
	}
}

// tableView is one schema table resolved to positions for the lifetime
// of one loadState: everything that overlays the RAM delta on the base
// segments (liveness, effective values, DML matching, the query-path
// footprint, CHECKPOINT) addresses tables by schema ordinal and columns
// by position through it, and never resolves a name per row or per cell.
// Row identifiers are public by design — the primary keys live on the
// untrusted side too — so retaining the foreign-key edges host-side leaks
// nothing. loadState builds fresh views beside the stores they point
// into (bulk load, CHECKPOINT, Recover, OpenPath); nothing outlives it.
type tableView struct {
	t     *schema.Table
	baseN int       // base segment cardinality
	fks   []int     // foreign-key column positions, declaration order
	cols  []colView // by column position
	// parent is the ordinal of the table referencing this one and up the
	// position of that table's foreign key pointing here; parent is -1 on
	// the schema root.
	parent, up int
}

// colView is one column's base access paths; which fields are set
// follows from the column's declaration.
type colView struct {
	ref int             // foreign key: the referenced table's ordinal
	fk  []uint32        // foreign key: row i references fk[i]
	inv [][]uint32      // foreign key: inv[id-1] lists the rows referencing id, ascending
	hid store.Column    // hidden: the device column file
	vis *visible.Column // visible non-key: the untrusted side's column
	ix  *climbing.Index // the column's climbing index, if it has one
}

// loadState builds fresh stores, device index structures and table views
// from a table image: visible columns and PKs to the public store; hidden
// columns, SKTs and climbing indexes to the device. It is shared by the
// bulk load (whose charges are then rewound) and by CHECKPOINT (which
// pays them as the cost of merging the delta into flash). It returns the
// visible columns for the commit's stash. Its one check, the foreign-key
// range, is for a recovered image: outside input, refused before any
// page is programmed.
//
// The work runs in three steps. The host side first: views, foreign-key
// checks, inverted edges and the INTEGER foreign-key columns. Then the
// climbing indexes are encoded on GOMAXPROCS workers while this goroutine
// programs the column files and SKTs. Last, the indexes are programmed in
// declaration order. Every page goes to flash in the order a one-core
// build would program it, so images, charges and file sizes do not
// depend on the worker count.
func (e *engine) loadState(img []tableImage) (visImage, error) {
	start := time.Now()
	hid, err := store.New(e.dev)
	if err != nil {
		return nil, err
	}
	e.hid = hid
	e.vis = visible.NewStore()
	e.skts = map[string]*skt.SKT{}
	e.rowCounts = map[string]int{}
	e.views = nil
	tables := e.sch.Tables()
	views := make([]*tableView, len(tables))
	data := make([][]value.Column, len(tables)) // the image's columns, foreign keys as INTEGER

	for ord, t := range tables {
		im := &img[ord]
		n := im.n
		e.rowCounts[t.Name] = n
		tv := &tableView{t: t, baseN: n, cols: make([]colView, len(t.Columns)), parent: -1}
		views[ord] = tv
		data[ord] = slices.Clone(im.cols)
		for i, c := range t.Columns {
			if !c.IsForeignKey() {
				continue
			}
			// The schema declares referenced tables first, so the
			// referenced view exists already.
			ref := views[e.mustTable(c.RefTable).Ordinal()]
			ids := im.fks[i]
			for r, id := range ids {
				if id < 1 || int(id) > ref.baseN {
					return nil, fmt.Errorf("%w: %s.%s row %d: foreign key %d out of 1..%d", ErrCorruptState, t.Name, c.Name, r+1, id, ref.baseN)
				}
			}
			cv := &tv.cols[i]
			cv.ref, cv.fk, cv.inv = ref.t.Ordinal(), ids, invertEdge(ids, ref.baseN)
			tv.fks = append(tv.fks, i)
			ref.parent, ref.up = ord, i
			data[ord][i] = intColumn(n, func(r int) int64 { return int64(ids[r]) })
		}
	}

	// Climbing indexes: every hidden column, dense translators on every
	// non-root primary key (the pre-filtering machinery), and any
	// visible columns requested via WithDeviceIndex. They are encoded
	// from here on, beside the column files and SKTs; nothing below
	// writes what an encoder reads (the columns, the views' edges).
	invLookup := func(parent, child string) ([][]uint32, error) {
		if ct, ok := e.sch.Table(child); ok {
			if cv := views[ct.Ordinal()]; cv.parent >= 0 && strings.EqualFold(views[cv.parent].t.Name, parent) {
				return views[cv.parent].cols[cv.up].inv, nil
			}
		}
		return nil, fmt.Errorf("core: no inverted edge %s<-%s", parent, child)
	}
	wantDevice := map[string]bool{}
	for _, spec := range e.opts.DeviceIndexes {
		wantDevice[strings.ToLower(spec)] = true
	}
	root := e.sch.Root()
	var jobs []indexJob
	for ord, tv := range views {
		t := tv.t
		for i, c := range t.Columns {
			dense := c.PrimaryKey && t != root
			if !dense && !c.Hidden && !wantDevice[strings.ToLower(t.Name+"."+c.Name)] {
				continue
			}
			col := data[ord][i]
			if c.PrimaryKey {
				col = intColumn(tv.baseN, func(r int) int64 { return int64(r + 1) })
			}
			jobs = append(jobs, indexJob{col: &tv.cols[i], table: t.Name, column: c.Name, data: col, dense: dense})
		}
	}
	pool := encodeIndexes(e.sch, jobs, invLookup)
	defer pool.stop()

	vis := make(visImage, len(tables))
	for ord, tv := range views {
		t := tv.t
		tvis := map[string]value.Column{}
		vis[strings.ToLower(t.Name)] = tvis

		// Visible side: PK plus visible columns.
		vt, err := e.vis.CreateTable(t.Name, tv.baseN)
		if err != nil {
			return nil, err
		}
		// Hidden side: hidden columns.
		if _, err := e.hid.CreateTable(t.Name, tv.baseN); err != nil {
			return nil, err
		}
		for i, c := range t.Columns {
			cv := &tv.cols[i]
			if c.PrimaryKey {
				if err := vt.AddKeyColumn(c.Name); err != nil {
					return nil, err
				}
				continue
			}
			col := data[ord][i]
			if c.Hidden {
				if cv.hid, err = e.hid.AddColumn(t.Name, c.Name, col); err != nil {
					return nil, err
				}
			} else {
				if err := vt.AddColumn(c.Name, col); err != nil {
					return nil, err
				}
				cv.vis, _ = vt.Column(c.Name)
				tvis[strings.ToLower(c.Name)] = col
			}
		}
	}

	columnsDone := time.Now()

	// Subtree Key Tables for every table that references others.
	fkLookup := func(table, col string) ([]uint32, error) {
		if t, ok := e.sch.Table(table); ok {
			if ci := t.ColumnIndex(col); ci >= 0 && t.Columns[ci].IsForeignKey() {
				return views[t.Ordinal()].cols[ci].fk, nil
			}
		}
		return nil, fmt.Errorf("core: no foreign key data for %s.%s", table, col)
	}
	for _, tv := range views {
		if len(tv.fks) == 0 {
			continue
		}
		s, err := skt.Build(e.hid, e.sch, tv.t.Name, tv.baseN, fkLookup)
		if err != nil {
			return nil, err
		}
		e.skts[tv.t.Name] = s
	}

	sktDone := time.Now()

	// The indexes go to flash in declaration order, each as soon as its
	// encoder is done; the first failure in that order is the one
	// reported.
	for k := range jobs {
		j := &jobs[k]
		j.done.Wait()
		if j.err != nil {
			return nil, j.err
		}
		if j.col.ix, err = j.enc.Program(e.hid); err != nil {
			return nil, err
		}
	}
	e.views = views
	// Only a CHECKPOINT's rebuild is observed: the secure-setting load is
	// as free in the metrics as on the simulated clock.
	if e.loaded {
		m := e.metrics
		m.checkpointColumnsWall.Observe(columnsDone.Sub(start).Nanoseconds())
		m.checkpointSKTWall.Observe(sktDone.Sub(columnsDone).Nanoseconds())
		m.checkpointClimbingWall.Observe(time.Since(sktDone).Nanoseconds())
	}
	return vis, nil
}

// indexJob is one climbing index of a loadState: what to encode, and
// the encoder's answer once done is released.
type indexJob struct {
	col           *colView // the indexed column's view; ix is set when programmed
	table, column string
	data          value.Column
	dense         bool

	done sync.WaitGroup // held from encodeIndexes until the answer is in
	enc  *climbing.Encoded
	err  error
}

// encoders is a pool of climbing-index encoders working through a job
// list in order.
type encoders struct {
	next    atomic.Int64 // the next job to take
	stopped atomic.Bool  // take no further jobs
	wg      sync.WaitGroup
}

// encodeIndexes starts min(GOMAXPROCS, len(jobs)) workers encoding jobs,
// each taking the lowest job not yet taken. Encoding is host work on
// read-only inputs, so the worker count changes no byte of the result.
func encodeIndexes(sch *schema.Schema, jobs []indexJob, inv climbing.Inverted) *encoders {
	p := &encoders{}
	for k := range jobs {
		jobs[k].done.Add(1)
	}
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for !p.stopped.Load() {
				k := p.next.Add(1) - 1
				if k >= int64(len(jobs)) {
					return
				}
				j := &jobs[k]
				j.enc, j.err = climbing.Encode(sch, j.table, j.column, j.data, j.dense, inv)
				j.done.Done()
			}
		}()
	}
	return p
}

// stop lets the workers finish the jobs they hold, take no more, and
// returns once every one has exited.
func (p *encoders) stop() {
	p.stopped.Store(true)
	p.wg.Wait()
}

// invertEdge inverts a foreign key (row r+1 references fk[r], every
// reference in 1..refN): inv[id-1] lists the rows referencing id. It is
// built for climbing index construction and the live-DML merge's upward
// propagation: count, carve one backing array, fill — three allocations
// whatever the fan-out — and filled in row order, so every list is
// ascending.
func invertEdge(fk []uint32, refN int) [][]uint32 {
	count := make([]uint32, refN)
	for _, id := range fk {
		count[id-1]++
	}
	inv := make([][]uint32, refN)
	back := make([]uint32, len(fk))
	at := uint32(0)
	for i, n := range count {
		inv[i] = back[at : at : at+n] // empty, with room for exactly its list
		at += n
	}
	for r, id := range fk {
		inv[id-1] = append(inv[id-1], uint32(r+1))
	}
	return inv
}

// indexLocked is Index for callers already holding the device gate.
func (e *engine) indexLocked(table, column string) (*climbing.Index, bool) {
	t, ok := e.sch.Table(table)
	if !ok || e.views == nil {
		return nil, false
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return nil, false
	}
	ix := e.views[t.Ordinal()].cols[ci].ix
	return ix, ix != nil
}

// hasIndexLocked is HasIndex for callers already holding the device gate.
func (e *engine) hasIndexLocked(table, column string) bool {
	_, ok := e.indexLocked(table, column)
	return ok
}

// translator returns the dense climbing index on the table's primary
// key. Callers must hold the device gate.
func (e *engine) translator(table string) (*climbing.Index, error) {
	t, ok := e.sch.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %s", table)
	}
	ix, ok := e.indexLocked(t.Name, t.PrimaryKey().Name)
	if !ok {
		return nil, fmt.Errorf("core: no translator index on %s", table)
	}
	return ix, nil
}
