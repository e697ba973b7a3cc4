// Package core is GhostDB's engine — the paper's primary contribution.
// It splits a database between an untrusted visible store and a simulated
// smart USB device along the HIDDEN column attribute, bulk-loads both
// sides with the device's index structures (Subtree Key Tables, climbing
// indexes), and executes SQL queries that mix visible and hidden data
// under the one-way rule: visible data flows into the device; neither
// hidden data nor intermediate results ever leave it. Results go to the
// secure display channel only.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Options configure a DB.
type Options struct {
	Profile   device.Profile
	USB       bus.Profile
	Capture   trace.CaptureLevel
	TargetFPR float64 // Bloom target false-positive rate
	// DeviceIndexes lists visible columns ("Table.Column") that also get
	// a climbing index on the device, like Figure 4's Doctor.Country
	// index: the device can then evaluate the visible predicate itself
	// with zero bus traffic, at extra flash cost.
	DeviceIndexes []string
	// PlanCacheSize bounds the shared compiled-plan cache (entries);
	// n <= 0 disables caching. The default is 256.
	PlanCacheSize int
	// DeltaLimit auto-checkpoints the live-DML delta: when the number of
	// delta rows plus tombstones reaches the limit after a mutation, the
	// engine runs a CHECKPOINT before returning. Zero or negative means
	// no automatic checkpoint (mutations fail with a RAM budget error
	// once the delta outgrows the device arena).
	DeltaLimit int
	// Hooks are tracing callbacks fired on query start/finish/error.
	Hooks []QueryHook
	// SlowQueryThreshold, when positive, counts queries whose wall-clock
	// latency reaches it in the slow_queries_total metric (see also
	// WithSlowQuery, which pairs the threshold with a slog logger).
	SlowQueryThreshold time.Duration
	// Shards is how many simulated devices the database runs on,
	// max(1, Shards). Over several, the fact table at the schema root is
	// partitioned round-robin on its dense key, dimension tables are
	// replicated, and queries run scatter-gather across per-shard
	// pipelines in parallel. Each shard owns a full device stack — flash,
	// RAM arena, bus, sim clock — so reported simulated time becomes
	// max-over-shards. 0 or 1 is one device.
	Shards int
	// FaultPlan arms the deterministic fault injector on the simulated
	// device stack (flash and bus). Nil — the default — injects nothing
	// and adds zero overhead. See fault.ParsePlan for the DSN grammar.
	FaultPlan *fault.Plan
	// DegradedReads lets a sharded DB keep serving dimension-rooted
	// queries from surviving replicas after a shard's device has died
	// (power cut, bus disconnect). Off by default: any query touching a
	// dead shard fails fast with the device's terminal error.
	DegradedReads bool
	// Backend selects the storage backend under the device's flash
	// allocator. The zero value (or Kind "sim") is the simulated NAND
	// chip, whose operations charge the simulated clock. Kind "file"
	// stores pages in real files under Backend.Path — Open CREATES the
	// device there, wiping any previous contents; OpenPath reopens an
	// existing file-backed database. One device lives at Path itself; a
	// sharded file-backed DB puts each device in a "shardN" subdirectory.
	Backend storage.Config
}

// Option mutates Options.
type Option func(*Options)

// WithProfile selects the device hardware profile.
func WithProfile(p device.Profile) Option { return func(o *Options) { o.Profile = p } }

// WithUSB selects the terminal<->device channel profile.
func WithUSB(p bus.Profile) Option { return func(o *Options) { o.USB = p } }

// WithCapture selects how much wire payload the trace records.
func WithCapture(l trace.CaptureLevel) Option { return func(o *Options) { o.Capture = l } }

// WithTargetFPR sets the Bloom filters' target false-positive rate.
func WithTargetFPR(f float64) Option { return func(o *Options) { o.TargetFPR = f } }

// WithDeviceIndex additionally builds a device climbing index on a
// visible column (Figure 4 shows one on Doctor.Country), enabling the
// device-index strategy for its predicates.
func WithDeviceIndex(table, column string) Option {
	return func(o *Options) { o.DeviceIndexes = append(o.DeviceIndexes, table+"."+column) }
}

// WithPlanCacheSize bounds the compiled-plan cache to n entries (LRU).
// n <= 0 disables plan caching: every Query then compiles from scratch,
// which is how the engine behaved before the cache.
func WithPlanCacheSize(n int) Option { return func(o *Options) { o.PlanCacheSize = n } }

// WithDeltaLimit auto-checkpoints once the delta holds n entries (rows
// plus tombstones) after a mutation. n <= 0 disables auto-checkpointing.
func WithDeltaLimit(n int) Option {
	return func(o *Options) { o.DeltaLimit = n }
}

// WithShards splits the database over n simulated devices (see
// Options.Shards). n <= 1 is one device.
func WithShards(n int) Option {
	return func(o *Options) { o.Shards = n }
}

// WithFaultPlan arms the deterministic fault injector with the given
// plan (see Options.FaultPlan). Pass nil to disable injection.
func WithFaultPlan(p *fault.Plan) Option {
	return func(o *Options) { o.FaultPlan = p }
}

// WithDegradedReads lets a sharded DB serve dimension-rooted queries
// from surviving replicas when a shard's device has died (see
// Options.DegradedReads).
func WithDegradedReads(on bool) Option {
	return func(o *Options) { o.DegradedReads = on }
}

// WithBackend selects the storage backend (see Options.Backend). The
// usual configs are storage.Sim() and storage.File(path, fsync).
func WithBackend(cfg storage.Config) Option {
	return func(o *Options) { o.Backend = cfg }
}

// WithQueryHook registers a tracing hook fired on query start, finish
// and error (see QueryHook). Hooks run on the querying goroutine;
// multiple hooks fire in registration order.
func WithQueryHook(h QueryHook) Option {
	return func(o *Options) {
		if h != nil {
			o.Hooks = append(o.Hooks, h)
		}
	}
}

// WithSlowQuery arms the built-in slow-query logger: queries whose
// wall-clock latency reaches d are logged through slog (Default when lg
// is nil) and counted in slow_queries_total. d <= 0 is a no-op.
func WithSlowQuery(d time.Duration, lg *slog.Logger) Option {
	return func(o *Options) {
		if d <= 0 {
			return
		}
		o.SlowQueryThreshold = d
		o.Hooks = append(o.Hooks, SlowQueryHook(d, lg))
	}
}

// defaultOptions is the one home of every option's default: Open and
// OpenPath start from it, and a DSN names only what it changes.
func defaultOptions() Options {
	return Options{
		Profile:       device.SmartUSB2007(),
		USB:           bus.USBFullSpeed(),
		Capture:       trace.CaptureMeta,
		TargetFPR:     0.01,
		PlanCacheSize: 256,
	}
}

// ErrClosed is returned by every DB and Session operation after Close.
var ErrClosed = errors.New("core: database is closed")

// DB is a GhostDB instance: the front door over n >= 1 device engines
// (Options.Shards; one unless the database is sharded). The front door
// owns the options, the catalog and its DDL, the plan cache, hooks,
// sessions, the metrics registry and the hidden-value audit set, and the
// shard set with its root mapping; it routes every query, DML statement
// and CHECKPOINT to the engines that hold the rows (coordinator.go,
// shard_write.go). The engines own the devices (engine.go).
//
// A DB is safe for concurrent use by multiple goroutines. Host-side work
// (parsing, binding, plan enumeration, routing, merging) runs outside any
// device gate; execution on one device serializes on its engine's gate,
// exactly as a hardware token serializes its USB command stream.
type DB struct {
	opts Options

	// planCache memoizes compiled query shapes across all sessions. It
	// has its own mutex: cache traffic never takes a gate.
	planCache *planCache

	// metrics is the front door's registry (queries, plan cache, DML,
	// CHECKPOINT, the delta gauges, routing); feeds are atomic and never
	// touch a simulated clock. MetricsSnapshot adds the engines' registries.
	metrics *engineMetrics
	// hooks are the query tracing callbacks, immutable after Open.
	hooks []QueryHook

	// mu guards the front door's state below: lifecycle, sessions, the
	// catalog while DDL stages, and the staged bulk load.
	mu          sync.Mutex
	closed      bool
	nextSession int
	sessions    int // open session count

	// sch is the catalog, shared read-only with every engine once frozen.
	sch *schema.Schema
	// hiddenVals is the security audit's set of the string values stored
	// in hidden columns: a property of the database, kept here once.
	hiddenVals *schema.HiddenValueSet

	// staged is the bulk load's image while INSERTs stage, one per table
	// by ordinal; every staged row went through the boundary (appendRows).
	staged []tableImage
	loaded bool
	// ddl retains the CREATE TABLE statements in application order so a
	// recovered DB can rebuild the same catalog.
	ddl []string

	// shards is the engine set and its root mapping. The set's own RW
	// lock arbitrates queries against DML/CHECKPOINT, so db.mu is not held
	// during fan-out.
	shards shardSet
}

// Open creates an empty GhostDB.
func Open(options ...Option) (*DB, error) {
	opts := defaultOptions()
	for _, o := range options {
		o(&opts)
	}
	return openResolved(opts)
}

// openResolved builds a DB from fully resolved options: the front door
// and max(1, Shards) engines. Open and Recover both land here.
func openResolved(opts Options) (*DB, error) {
	if err := opts.Backend.Validate(); err != nil {
		return nil, err
	}
	if opts.Backend.IsFile() {
		// Open CREATES the database: whatever the path held — a device or
		// shard directories of any earlier layout — goes first.
		if err := filedev.Wipe(opts.Backend.Path); err != nil {
			return nil, fmt.Errorf("core: clearing %s: %w", opts.Backend.Path, err)
		}
	}
	db := &DB{
		opts:       opts,
		planCache:  newPlanCache(opts.PlanCacheSize),
		metrics:    newFrontDoorMetrics(),
		hooks:      opts.Hooks,
		sch:        schema.New(),
		hiddenVals: schema.NewHiddenValueSet(),
	}
	n := max(1, opts.Shards)
	db.shards.engines = make([]*engine, 0, n)
	for i := 0; i < n; i++ {
		e, err := newEngine(opts, db.sch, i, n)
		if err != nil {
			db.Close()
			return nil, err
		}
		db.shards.engines = append(db.shards.engines, e)
	}
	db.shards.roots = newRootMapping(n)
	return db, nil
}

// FatalError reports the terminal device error that took this DB down
// (power cut, bus disconnect, failed commit): the first dead engine's,
// wrapped with its shard number, or nil while every device is healthy.
// errors.Is, IsDeviceDead and IsFaultFatal see through the wrapping. A
// query or mutation that needs a dead device fails; recover with Snapshot
// + Recover.
func (db *DB) FatalError() error {
	for _, e := range db.shards.engines {
		if err := e.fatalError(); err != nil {
			return err
		}
	}
	return nil
}

// IsDeviceDead reports whether err (anywhere in its chain) says the
// simulated device is gone — powered off or disconnected — rather than
// merely failing one operation.
func IsDeviceDead(err error) bool { return fault.IsDeviceDead(err) }

// IsFaultFatal reports whether err is a non-retryable device failure:
// a permanent fault, a dead device, or detected flash corruption. The
// database/sql driver maps these to driver.ErrBadConn.
func IsFaultFatal(err error) bool {
	return fault.IsFatal(err) || errors.Is(err, flash.ErrCorrupt)
}

// Schema exposes the catalog.
func (db *DB) Schema() *schema.Schema { return db.sch }

// ViewSchema runs fn with the schema and load state under the DB's
// staging lock, so wire front-ends can render a consistent view while
// DDL may still be staging on other sessions. fn must not call back
// into the DB.
func (db *DB) ViewSchema(fn func(sch *schema.Schema, loaded bool)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	fn(db.sch, db.loaded)
	return nil
}

// Device exposes engine 0's simulated device (benchmarks inspect its
// stats) — on a single-device database, the device.
func (db *DB) Device() *device.Device { return db.shards.engines[0].dev }

// Recorder exposes engine 0's wire trace — on a single-device database,
// the trace of every bus the database has. A sharded database keeps one
// trace per device.
func (db *DB) Recorder() *trace.Recorder { return db.shards.engines[0].rec }

// Clock exposes engine 0's simulated clock — on a single-device database,
// the clock.
func (db *DB) Clock() *sim.Clock { return db.shards.engines[0].clock }

// HiddenValues reports the set of string values stored in hidden columns,
// used by the security audit.
func (db *DB) HiddenValues() *schema.HiddenValueSet { return db.hiddenVals }

// RowCount reports a table's base-segment cardinality after loading
// (live DML does not change it until the next CHECKPOINT).
func (db *DB) RowCount(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.loaded {
		return 0
	}
	return db.shards.rowCount(db.sch.Root(), table)
}

// NextID reports the dense primary key the next INSERT into table must
// carry. GhostDB identifiers are positional and application-assigned;
// concurrent writers use this to coordinate (and retry on the dense-key
// error if they race).
func (db *DB) NextID(table string) (uint32, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, ErrClosed
	}
	t, ok := db.sch.Table(table)
	if !ok {
		return 0, fmt.Errorf("core: unknown table %s", table)
	}
	if !db.loaded {
		return uint32(db.staged[t.Ordinal()].n) + 1, nil
	}
	return db.shards.nextID(db.sch.Root(), t), nil
}

// DeltaStats summarizes the live-DML delta of one table.
type DeltaStats struct {
	Table      string
	Rows       int   // delta-resident row images (inserts + updates)
	Tombstones int   // deleted identifiers
	DeviceB    int64 // hidden share charged to the device RAM arena
	HostB      int64 // visible share held in host memory
}

// DeltaStats reports the current delta per table (sorted by name), for
// EXPLAIN, monitoring and tests. Empty when no DML happened since the
// last CHECKPOINT.
func (db *DB) DeltaStats() []DeltaStats {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.loaded {
		return nil
	}
	return db.shards.deltaStats(db.sch)
}

// DeltaSummary is the whole-engine view of the live-DML state: the
// delta's aggregate footprint plus the number of CHECKPOINTs that have
// merged it into flash — the counters an operator watches to decide when
// to checkpoint.
type DeltaSummary struct {
	Tables      int   // tables with a dirty delta
	Rows        int   // delta-resident row images across all tables
	Tombstones  int   // deleted identifiers across all tables
	DeviceBytes int64 // hidden share charged to the device RAM arena
	HostBytes   int64 // visible share held in host memory
	Checkpoints int64 // CHECKPOINTs run over the database's lifetime
}

// DeltaSummary aggregates DeltaStats across tables and adds the
// lifetime checkpoint count. It is the driver-facing companion to
// PlanCacheStats: cheap enough to poll from a monitoring loop.
func (db *DB) DeltaSummary() DeltaSummary {
	s := DeltaSummary{Checkpoints: db.CheckpointsRun()}
	for _, d := range db.DeltaStats() {
		s.Tables++
		s.Rows += d.Rows
		s.Tombstones += d.Tombstones
		s.DeviceBytes += d.DeviceB
		s.HostBytes += d.HostB
	}
	return s
}

// Loaded reports whether the bulk load has been finalized.
func (db *DB) Loaded() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.loaded
}

// Close shuts the database down. In-flight queries finish first (each
// holds its engine's device gate); every subsequent operation on the DB
// or any of its sessions returns ErrClosed. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var err error
	for _, e := range db.shards.engines {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// StorageBreakdown reports the device flash footprint by structure.
type StorageBreakdown struct {
	BaseColumns int64 // hidden column files
	SKTs        int64
	Climbing    int64
	Total       int64 // page-aligned main-space footprint
}

// Storage reports the flash cost of the hidden database and its indexes,
// summed over the devices (experiment E5: "this benefit ... comes at an
// extra cost in terms of Flash storage").
func (db *DB) Storage() StorageBreakdown {
	var b StorageBreakdown
	for _, e := range db.shards.engines {
		eb := e.storage()
		b.BaseColumns += eb.BaseColumns
		b.SKTs += eb.SKTs
		b.Climbing += eb.Climbing
		b.Total += eb.Total
	}
	return b
}

// execDDL applies one CREATE TABLE statement: Recover replays the
// catalog through it.
func (db *DB) execDDL(ddl string) error {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return err
	}
	ct, ok := stmt.(*sql.CreateTable)
	if !ok {
		return fmt.Errorf("core: DDL replay expects CREATE TABLE, got %T", stmt)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.applyCreate(ct)
}

func (db *DB) applyCreate(ct *sql.CreateTable) error {
	if db.loaded {
		return errors.New("core: DDL after Build (GhostDB is bulk-loaded in a secure setting)")
	}
	cols := make([]schema.Column, len(ct.Columns))
	for i, c := range ct.Columns {
		cols[i] = schema.Column{
			Name:       c.Name,
			Type:       schema.Type{Kind: c.Type.Kind, Size: c.Type.Size},
			Hidden:     c.Hidden,
			PrimaryKey: c.PrimaryKey,
			RefTable:   c.RefTable,
			RefColumn:  c.RefColumn,
		}
	}
	t, err := schema.NewTable(ct.Table, cols)
	if err != nil {
		return err
	}
	if err := db.sch.AddTable(t); err != nil {
		return err
	}
	db.staged = append(db.staged, newTableImage(t, 0))
	// Retained for Snapshot/Recover: a recovered DB replays the DDL to
	// rebuild an identical catalog before decoding the flash image.
	db.ddl = append(db.ddl, ct.String())
	return nil
}

// insertLocked applies an INSERT. Before the load is finalized the rows
// are staged for the bulk load; afterwards they land in the RAM delta
// (live DML). Primary keys must be dense 1..N in insertion order —
// GhostDB identifiers are positional.
func (db *DB) insertLocked(ins *sql.Insert) error {
	if db.loaded {
		return db.shards.insert(db, ins)
	}
	t, ok := db.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	return db.staged[t.Ordinal()].appendRows(t, len(ins.Rows), func(r int) []value.Value { return ins.Rows[r] }, db.stagedRows)
}

// stagedRows reports how many rows a referenced table, which the catalog
// holds, has staged.
func (db *DB) stagedRows(table string) int {
	t, _ := db.sch.Table(table)
	return db.staged[t.Ordinal()].n
}

// ExecScript runs a semicolon-separated script (see Exec) and then
// finalizes the bulk load (see EnsureBuilt).
func (db *DB) ExecScript(script string) error {
	if _, err := db.Exec(script); err != nil {
		return err
	}
	return db.EnsureBuilt()
}

// EnsureBuilt finalizes staged data if the bulk load has not happened
// yet; it is a no-op on a loaded database. Every statement that needs
// the loaded database — a compile miss, DML, CHECKPOINT — finalizes the
// same way on its own, so this is only the explicit call.
func (db *DB) EnsureBuilt() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.ensureBuiltLocked()
}

// ensureBuiltLocked finalizes a pending bulk load under the front door
// lock.
func (db *DB) ensureBuiltLocked() error {
	if db.loaded {
		return nil
	}
	if err := db.build(db.staged); err != nil {
		return err
	}
	db.staged = nil
	return nil
}

// LoadDataset loads a generated dataset: DDL plus columnar rows.
func (db *DB) LoadDataset(ds *datagen.Dataset) error {
	stmts := make([]sql.Statement, 0, len(ds.DDL))
	for _, ddl := range ds.DDL {
		stmt, err := sql.Parse(ddl)
		if err != nil {
			return err
		}
		stmts = append(stmts, stmt)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if _, err := db.execLocked(context.Background(), stmts, nil); err != nil {
		return err
	}
	// Each table is one statement through the boundary, referenced
	// tables first.
	for _, t := range db.sch.Tables() {
		dt := ds.Table(t.Name)
		if dt == nil || len(dt.Cols) != len(t.Columns) {
			return fmt.Errorf("core: missing column data for %s", t.Name)
		}
		for _, col := range dt.Cols {
			if len(col) != len(dt.Cols[0]) {
				return fmt.Errorf("core: ragged columns in %s", t.Name)
			}
		}
		if err := db.staged[t.Ordinal()].appendColumns(t, dt.Cols, db.stagedRows); err != nil {
			return err
		}
	}
	return db.ensureBuiltLocked()
}

// build distributes a table image for the initial bulk load over the
// engines (shardSet.load). The load happens "in a secure setting"
// (Section 2), so it is not charged to any device clock or RAM budget:
// each engine rewinds the simulated time and stats it consumed.
func (db *DB) build(img []tableImage) error {
	if db.loaded {
		return errors.New("core: already built")
	}
	if err := db.sch.Freeze(); err != nil {
		return err
	}
	if err := db.shards.load(db.sch, img, db.ddl); err != nil {
		return err
	}
	for ord, t := range db.sch.Tables() {
		for ci, c := range t.Columns {
			if c.Hidden && c.Type.Kind == value.String {
				for _, str := range img[ord].cols[ci].Strs {
					db.hiddenVals.Add(value.NewString(str))
				}
			}
		}
	}
	db.loaded = true
	return nil
}

// Index returns engine 0's climbing index on table.column, if any (every
// engine carries the same index set).
func (db *DB) Index(table, column string) (*climbing.Index, bool) {
	return db.shards.engines[0].Index(table, column)
}

// HasIndex reports whether a climbing index exists (planner callback).
func (db *DB) HasIndex(table, column string) bool {
	_, ok := db.Index(table, column)
	return ok
}

// SmallProfileForTest returns a 16 KB, 2-cache-frame device profile for
// tests exercising the tightest RAM paths.
func SmallProfileForTest() device.Profile {
	p := device.SmartUSB2007().WithRAM(16 << 10)
	p.CacheFrames = 2
	return p
}
