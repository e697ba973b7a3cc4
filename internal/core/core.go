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
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/delta"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/skt"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
	"github.com/ghostdb/ghostdb/internal/visible"
)

// Options configure a DB.
type Options struct {
	Profile   device.Profile
	USB       bus.Profile
	LAN       bus.Profile
	Capture   trace.CaptureLevel
	TargetFPR float64 // Bloom target false-positive rate
	// DeviceIndexes lists visible columns ("Table.Column") that also get
	// a climbing index on the device, like Figure 4's Doctor.Country
	// index: the device can then evaluate the visible predicate itself
	// with zero bus traffic, at extra flash cost.
	DeviceIndexes []string
	// PlanCacheSize bounds the shared compiled-plan cache (entries).
	// Zero means the default (256); negative disables caching.
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
	// Shards splits the database over N simulated devices (N > 1): the
	// fact table at the schema root is partitioned round-robin on its
	// dense key, dimension tables are replicated, and queries run
	// scatter-gather across per-shard pipelines in parallel. Each shard
	// owns a full device stack — flash, RAM arena, bus, sim clock — so
	// reported simulated time becomes max-over-shards. 0 or 1 selects
	// the classic single-device engine.
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
	// existing file-backed database. A sharded file-backed DB puts each
	// child device in a "shardN" subdirectory of Path.
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
// Pass a negative n to disable plan caching: every Query then compiles
// from scratch, which is how the engine behaved before the cache.
func WithPlanCacheSize(n int) Option {
	return func(o *Options) {
		if n == 0 {
			n = -1 // explicit zero means "no cache", not "default"
		}
		o.PlanCacheSize = n
	}
}

// WithDeltaLimit auto-checkpoints once the delta holds n entries (rows
// plus tombstones) after a mutation. n <= 0 disables auto-checkpointing.
func WithDeltaLimit(n int) Option {
	return func(o *Options) { o.DeltaLimit = n }
}

// WithShards splits the database over n simulated devices (see
// Options.Shards). n <= 1 selects the classic single-device engine.
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

func defaultOptions() Options {
	return Options{
		Profile:   device.SmartUSB2007(),
		USB:       bus.USBFullSpeed(),
		LAN:       bus.LAN(),
		Capture:   trace.CaptureMeta,
		TargetFPR: 0.01,
	}
}

// ErrClosed is returned by every DB and Session operation after Close.
var ErrClosed = errors.New("core: database is closed")

// DB is a GhostDB instance: schema, visible store, device-resident hidden
// store and indexes, and the wiring between them.
//
// A DB is safe for concurrent use by multiple goroutines. There is exactly
// one simulated smart USB device per DB, and the device is a single-core
// chip with a private clock, RAM arena and scratch flash — so query
// execution against it is serialized by the device gate (db.mu), exactly
// as a hardware token would serialize its USB command stream. Host-side
// work (parsing, binding, plan enumeration) runs outside the gate.
type DB struct {
	opts Options

	clock *sim.Clock
	dev   *device.Device
	env   *exec.Env
	net   *bus.Network
	rec   *trace.Recorder

	// planCache memoizes compiled query shapes across all sessions. It
	// has its own (sharded) locking: cache traffic never takes the
	// device gate.
	planCache *planCache

	// metrics is the engine-wide observability registry; feeds are
	// atomic, never take the device gate and never touch the simulated
	// clock.
	metrics *engineMetrics
	// hooks are the query tracing callbacks, immutable after Open.
	hooks []QueryHook
	// checkpointsRun counts CHECKPOINT merges that absorbed entries,
	// readable without the device gate.
	checkpointsRun atomic.Int64

	// inj is the armed fault injector (nil when no plan targets this
	// device). Immutable after Open.
	inj *fault.Injector
	// fatalErr latches the first unrecoverable device error — power cut,
	// bus disconnect, or a failed commit that may have left flash torn.
	// Once set, every query and mutation fails fast with it; the path
	// back is Snapshot + Recover. Read lock-free on query entry.
	fatalErr atomic.Pointer[fatalCause]

	// mu is the device gate: it serializes bulk load and query execution
	// on the simulated device and guards all fields below it.
	mu          sync.Mutex
	closed      bool
	nextSession int
	sessions    int // open session count

	sch *schema.Schema
	vis *visible.Store
	hid *store.Store

	skts       map[string]*skt.SKT // per table with a subtree
	rowCounts  map[string]int
	hiddenVals *schema.HiddenValueSet

	// views resolves every schema table, by ordinal, to the base structures
	// of the current load (see tableView). Nil on a shard coordinator,
	// which loads nothing itself.
	views []*tableView

	// delta holds the post-build mutations (inserted/updated row images,
	// tombstones), charged against the device RAM arena for its hidden
	// share. Guarded by mu like the rest of the engine state.
	delta *delta.Store

	staged map[string][][]value.Value // INSERT staging before Build
	loaded bool

	// version numbers the committed device states: 0 is the bulk load,
	// each CHECKPOINT commit increments it. The commit record for
	// version v lives in record slot v%2.
	version uint64
	// committedVis retains the visible (non-hidden, non-PK) column data
	// of the last two committed versions, keyed version -> table -> column
	// (lowercased). Recovery pairs it with the flash image: the paper's
	// visible store is server-durable, the device is what crashes. Inner
	// slices are shared by reference and never mutated.
	committedVis map[uint64]map[string]map[string][]value.Value
	// ddl retains the CREATE TABLE statements in application order so a
	// recovered DB can rebuild the same catalog.
	ddl []string
	// rootGlobals maps shard-local root identifiers (index l-1) to global
	// ones on a shard child; nil on a single-device DB and on the
	// coordinator. The commit record persists it next to the data.
	rootGlobals []uint32

	// shards is non-nil when this DB is a scatter-gather coordinator
	// over N > 1 child devices (see WithShards). Immutable after Open;
	// the set's own RW lock arbitrates queries against DML/CHECKPOINT,
	// so the coordinator's device gate is not held during fan-out.
	shards *shardSet
}

// Open creates an empty GhostDB.
func Open(options ...Option) (*DB, error) {
	opts := defaultOptions()
	for _, o := range options {
		o(&opts)
	}
	return openResolved(opts)
}

// openResolved builds a DB from fully resolved options. Open and
// Recover both land here.
func openResolved(opts Options) (*DB, error) {
	if err := opts.Backend.Validate(); err != nil {
		return nil, err
	}
	coordOpts := opts
	if opts.Shards > 1 && opts.Backend.IsFile() {
		// The coordinator owns no flash worth persisting — its device
		// stays empty — so it always runs on the simulated backend; the
		// children get one shardN subdirectory each. A fresh sharded open
		// clears the whole path so stale shard directories from an earlier
		// layout cannot survive.
		coordOpts.Backend = storage.Sim()
		if err := filedev.Wipe(opts.Backend.Path); err != nil {
			return nil, fmt.Errorf("core: clearing %s: %w", opts.Backend.Path, err)
		}
	}
	db, err := openSingle(coordOpts)
	if err != nil {
		return nil, err
	}
	if opts.Shards > 1 {
		// Each shard is a complete single-device engine with its own
		// clock, flash, RAM arena and buses. Children never run hooks or
		// auto-checkpoint on their own: the coordinator observes queries
		// and drives CHECKPOINT from the logical delta size, so the
		// global root mapping stays consistent.
		copts := opts
		copts.Shards = 0
		copts.DeltaLimit = 0
		copts.Hooks = nil
		copts.SlowQueryThreshold = 0
		children := make([]*DB, opts.Shards)
		for i := range children {
			if opts.Backend.IsFile() {
				copts.Backend.Path = shardPath(opts.Backend.Path, i)
			}
			c, err := openSingle(copts)
			if err != nil {
				return nil, err
			}
			// The fault plan addresses shard children, not the
			// coordinator: the coordinator owns no flash worth failing.
			c.installFault(opts.FaultPlan, i)
			children[i] = c
		}
		db.shards = &shardSet{children: children}
		db.metrics.addRouteMetrics()
	} else {
		db.installFault(opts.FaultPlan, 0)
	}
	return db, nil
}

// installFault arms the fault injector on this device's flash and bus,
// wiring its observations into the engine metrics. A nil plan — or one
// targeting a different shard — leaves the device clean.
func (db *DB) installFault(p *fault.Plan, shard int) {
	inj := fault.New(p, shard)
	if inj == nil {
		return
	}
	inj.SetSink(faultSink{db.metrics})
	// The secure-setting bulk load is fault-free (the device is
	// provisioned at the publisher); build arms the injector when the
	// database goes live, so cutop/failop count operational ops only.
	inj.Disarm()
	db.inj = inj
	db.dev.Flash.SetInjector(inj)
	db.net.SetInjector(inj)
}

// fatalCause boxes the latched terminal device error.
type fatalCause struct{ err error }

// setFatal latches the first unrecoverable device error. Later calls
// keep the original cause.
func (db *DB) setFatal(err error) {
	if err == nil {
		return
	}
	db.fatalErr.CompareAndSwap(nil, &fatalCause{err: err})
}

// fatalError returns the latched terminal error wrapped for callers, or
// nil while the device is healthy.
func (db *DB) fatalError() error {
	if c := db.fatalErr.Load(); c != nil {
		return fmt.Errorf("core: device unavailable: %w", c.err)
	}
	return nil
}

// FatalError reports the terminal device error that took this DB down
// (power cut, bus disconnect, failed commit), or nil while it is
// healthy. A fatal DB rejects queries and mutations; recover with
// Snapshot + Recover.
func (db *DB) FatalError() error {
	if c := db.fatalErr.Load(); c != nil {
		return c.err
	}
	return nil
}

// noteDeviceErr latches err as fatal when it indicates the device is
// gone for good (power cut, bus disconnect, or a corrupted read that
// survived the retry ladder is NOT fatal — only dead devices are).
func (db *DB) noteDeviceErr(err error) {
	if fault.IsDeviceDead(err) {
		db.setFatal(err)
	}
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

// shardPath returns shard i's device directory under a sharded file
// backend's root path.
func shardPath(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard%d", i))
}

// openSingle builds one single-device engine from resolved options.
func openSingle(opts Options) (*DB, error) {
	clock := sim.NewClock()
	var dev *device.Device
	var err error
	if opts.Backend.IsFile() {
		// Open creates the device: any previous contents at the path are
		// wiped first (reopening an existing database is OpenPath's job,
		// which lifts the flash images before landing here).
		if err := filedev.Wipe(opts.Backend.Path); err != nil {
			return nil, fmt.Errorf("core: clearing %s: %w", opts.Backend.Path, err)
		}
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
	net.Connect(trace.Terminal, trace.Server, opts.LAN)
	net.Connect(trace.Terminal, trace.Device, opts.USB)
	net.Connect(trace.Device, trace.Display, opts.USB)
	cacheSize := opts.PlanCacheSize
	if cacheSize == 0 {
		cacheSize = 256
	}
	return &DB{
		opts:       opts,
		clock:      clock,
		dev:        dev,
		env:        exec.NewEnv(dev),
		net:        net,
		rec:        rec,
		planCache:  newPlanCache(cacheSize),
		metrics:    newEngineMetrics(true),
		hooks:      opts.Hooks,
		sch:        schema.New(),
		vis:        visible.NewStore(),
		skts:       map[string]*skt.SKT{},
		rowCounts:  map[string]int{},
		hiddenVals: schema.NewHiddenValueSet(),
		delta:      delta.NewStore(dev.RAM),
		staged:     map[string][][]value.Value{},
	}, nil
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

// Device exposes the simulated device (benchmarks inspect its stats).
func (db *DB) Device() *device.Device { return db.dev }

// Recorder exposes the wire trace.
func (db *DB) Recorder() *trace.Recorder { return db.rec }

// Clock exposes the simulated clock.
func (db *DB) Clock() *sim.Clock { return db.clock }

// HiddenValues reports the set of string values stored in hidden columns,
// used by the security audit.
func (db *DB) HiddenValues() *schema.HiddenValueSet { return db.hiddenVals }

// RowCount reports a table's base-segment cardinality after loading
// (live DML does not change it until the next CHECKPOINT).
func (db *DB) RowCount(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rowCounts[table]
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
		return uint32(len(db.staged[t.Name])) + 1, nil
	}
	if db.shards != nil {
		return db.shards.nextID(db, t.Name)
	}
	if d := db.delta.Get(t.Ordinal()); d != nil {
		return d.NextID(), nil
	}
	return uint32(db.rowCounts[t.Name]) + 1, nil
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
	if db.shards != nil {
		return db.shards.deltaStats(db)
	}
	var out []DeltaStats
	for _, d := range db.delta.Tables() {
		if !d.Dirty() {
			continue
		}
		out = append(out, DeltaStats{
			Table:      d.Name(),
			Rows:       d.Rows(),
			Tombstones: d.Tombstones(),
			DeviceB:    d.DeviceBytes(),
			HostB:      d.HostBytes(),
		})
	}
	return out
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
	s := DeltaSummary{Checkpoints: db.checkpointsRun.Load()}
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

// Close shuts the database down. In-flight queries finish first (they
// hold the device gate); every subsequent operation on the DB or any of
// its sessions returns ErrClosed. Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.shards != nil {
		for _, c := range db.shards.children {
			c.Close()
		}
	}
	// Flush and release the storage backend (a no-op on the simulated
	// device; the file backend syncs dirty segments if asked to and drops
	// its segment handles). Committed state was already made durable at
	// each commit point, so a Sync error here is not fatal to the data.
	err := db.dev.Flash.Sync()
	if cerr := db.dev.Flash.Close(); err == nil {
		err = cerr
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

// Storage reports the flash cost of the hidden database and its indexes
// (experiment E5: "this benefit ... comes at an extra cost in terms of
// Flash storage").
func (db *DB) Storage() StorageBreakdown {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.shards != nil {
		var b StorageBreakdown
		for _, c := range db.shards.children {
			cb := c.Storage()
			b.BaseColumns += cb.BaseColumns
			b.SKTs += cb.SKTs
			b.Climbing += cb.Climbing
			b.Total += cb.Total
		}
		return b
	}
	var b StorageBreakdown
	for _, s := range db.skts {
		b.SKTs += s.Bytes()
	}
	for _, tv := range db.views {
		for _, c := range tv.cols {
			if c.ix != nil {
				b.Climbing += c.ix.Bytes()
			}
		}
	}
	b.Total = db.dev.Main.UsedBytes()
	b.BaseColumns = b.Total - b.SKTs - b.Climbing
	return b
}

// ExecDDL applies a CREATE TABLE statement.
func (db *DB) ExecDDL(ddl string) error {
	stmt, err := sql.Parse(ddl)
	if err != nil {
		return err
	}
	ct, ok := stmt.(*sql.CreateTable)
	if !ok {
		return fmt.Errorf("core: ExecDDL expects CREATE TABLE, got %T", stmt)
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
	// Retained for Snapshot/Recover: a recovered DB replays the DDL to
	// rebuild an identical catalog before decoding the flash image.
	db.ddl = append(db.ddl, ct.String())
	// Shard children mirror the catalog so they can compile the same
	// query shapes and validate the same DML the coordinator accepts.
	if db.shards != nil {
		for _, c := range db.shards.children {
			c.mu.Lock()
			err := c.applyCreate(ct)
			c.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Insert applies an INSERT. Before Build the rows are staged for the
// bulk load; after Build they land in the RAM delta (live DML). Primary
// keys must be dense 1..N in insertion order — GhostDB identifiers are
// positional.
func (db *DB) Insert(ins *sql.Insert) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.insertLocked(ins)
}

func (db *DB) insertLocked(ins *sql.Insert) error {
	if db.loaded {
		if err := db.fatalError(); err != nil {
			return err
		}
		if db.shards != nil {
			return db.shards.insert(db, ins)
		}
		return db.deltaInsertLocked(ins)
	}
	t, ok := db.sch.Table(ins.Table)
	if !ok {
		return fmt.Errorf("core: unknown table %s", ins.Table)
	}
	for ri, row := range ins.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("core: %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
		}
		for _, v := range row {
			if v.IsParam() {
				return fmt.Errorf("core: INSERT into %s carries an unbound '?' placeholder; bind arguments before staging", t.Name)
			}
		}
		pkVal := row[t.PrimaryKeyIndex()]
		want := int64(len(db.staged[t.Name]) + 1)
		if pkVal.Kind() != value.Int || pkVal.Int() != want {
			return fmt.Errorf("core: %s primary key must be dense: row %d needs key %d, got %s",
				t.Name, ri+1, want, pkVal)
		}
		db.staged[t.Name] = append(db.staged[t.Name], row)
	}
	return nil
}

// ExecScript runs a semicolon-separated script of CREATE TABLE and INSERT
// statements, then finalizes with Build.
func (db *DB) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.stageLocked(stmts); err != nil {
		return err
	}
	return db.buildStaged()
}

// Stage applies CREATE TABLE and INSERT statements without finalizing the
// bulk load; Build or EnsureBuilt completes it. The database/sql driver
// routes ExecContext through Stage so DDL can span several Exec calls.
func (db *DB) Stage(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.stageLocked(stmts)
}

// StageStatements applies already-parsed CREATE TABLE and INSERT
// statements without finalizing the bulk load. The database/sql driver
// uses it to stage scripts it has parsed once (and whose placeholder
// arguments it has already bound) without a round trip through text.
func (db *DB) StageStatements(stmts []sql.Statement) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.stageLocked(stmts)
}

func (db *DB) stageLocked(stmts []sql.Statement) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *sql.CreateTable:
			if err := db.applyCreate(s); err != nil {
				return err
			}
		case *sql.Insert:
			if err := db.insertLocked(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: scripts may not contain %T", s)
		}
	}
	return nil
}

// EnsureBuilt finalizes staged data if the bulk load has not happened
// yet; it is a no-op on a loaded database.
func (db *DB) EnsureBuilt() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if db.loaded {
		return nil
	}
	return db.buildStaged()
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
	if err := db.stageLocked(stmts); err != nil {
		return err
	}
	cols := map[string][][]value.Value{}
	for _, name := range ds.TableNames() {
		cols[name] = ds.Table(name).Cols
	}
	return db.build(cols)
}

// Build finalizes staged INSERT data into the two stores and the device
// index structures.
func (db *DB) Build() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.buildStaged()
}

// buildStaged finalizes the staged INSERT data under the device gate.
func (db *DB) buildStaged() error {
	cols := map[string][][]value.Value{}
	for _, t := range db.sch.Tables() {
		rows := db.staged[t.Name]
		tcols := make([][]value.Value, len(t.Columns))
		for i := range t.Columns {
			tcols[i] = make([]value.Value, len(rows))
			for r, row := range rows {
				tcols[i][r] = row[i]
			}
		}
		cols[t.Name] = tcols
	}
	db.staged = map[string][][]value.Value{}
	return db.build(cols)
}

// build distributes columnar data for the initial bulk load. The load
// happens "in a secure setting" (Section 2), so it is not charged to the
// device clock or RAM budget: the simulated time and stats it consumed
// are rewound afterwards.
func (db *DB) build(cols map[string][][]value.Value) error {
	if db.loaded {
		return errors.New("core: already built")
	}
	if err := db.sch.Freeze(); err != nil {
		return err
	}
	if db.shards != nil {
		return db.buildSharded(cols)
	}
	if err := db.loadState(cols); err != nil {
		return err
	}

	// Commit version 0: stash the visible columns and write the first
	// commit record, so a crash at any later point can recover at least
	// the freshly loaded state. Still inside the secure setting, so the
	// record's flash cost is rewound along with the load's.
	db.stashCommitted(0, cols)
	if err := db.writeCommitRecord(); err != nil {
		return err
	}

	// The secure-setting load is free: rewind the simulated time it
	// consumed and reset operational stats.
	db.clock.Reset()
	db.dev.Flash.ResetStats()
	db.hid.Cache().ResetStats()
	db.dev.RAM.ResetHigh()
	db.net.ResetStats()
	db.rec.Reset()

	db.loaded = true
	db.inj.Arm() // go live: faults apply from here on
	return nil
}

// stashCommitted retains the visible (non-hidden, non-PK) column data
// of a committed version for Snapshot/Recover, pruning everything older
// than the previous version — the only one still recoverable from the
// A/B record slots. Inner slices are aliased, never copied or mutated.
func (db *DB) stashCommitted(version uint64, cols map[string][][]value.Value) {
	snap := make(map[string]map[string][]value.Value, len(db.sch.Tables()))
	for _, t := range db.sch.Tables() {
		tcols := cols[t.Name]
		m := map[string][]value.Value{}
		for i, c := range t.Columns {
			if c.Hidden || c.PrimaryKey || i >= len(tcols) {
				continue
			}
			m[strings.ToLower(c.Name)] = tcols[i]
		}
		snap[strings.ToLower(t.Name)] = m
	}
	if db.committedVis == nil {
		db.committedVis = map[uint64]map[string]map[string][]value.Value{}
	}
	db.committedVis[version] = snap
	if version >= 2 {
		delete(db.committedVis, version-2)
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
// from columnar data: visible columns and PKs to the public store; hidden
// columns, SKTs and climbing indexes to the device. It is shared by the
// bulk load (whose charges are then rewound) and by CHECKPOINT (which
// pays them as the cost of merging the delta into flash).
func (db *DB) loadState(cols map[string][][]value.Value) error {
	start := time.Now()
	hid, err := store.New(db.dev)
	if err != nil {
		return err
	}
	db.hid = hid
	db.vis = visible.NewStore()
	db.skts = map[string]*skt.SKT{}
	db.rowCounts = map[string]int{}
	db.views = nil
	tables := db.sch.Tables()
	views := make([]*tableView, len(tables))

	for ord, t := range tables {
		tcols, ok := cols[t.Name]
		if !ok || len(tcols) != len(t.Columns) {
			return fmt.Errorf("core: missing column data for %s", t.Name)
		}
		n := 0
		if len(tcols) > 0 {
			n = len(tcols[0])
		}
		for i := range tcols {
			if len(tcols[i]) != n {
				return fmt.Errorf("core: ragged columns in %s", t.Name)
			}
		}
		db.rowCounts[t.Name] = n
		tv := &tableView{t: t, baseN: n, cols: make([]colView, len(t.Columns)), parent: -1}
		views[ord] = tv

		// Visible side: PK plus visible columns.
		vt, err := db.vis.CreateTable(t.Name, n)
		if err != nil {
			return err
		}
		// Hidden side: hidden columns.
		if _, err := db.hid.CreateTable(t.Name, n); err != nil {
			return err
		}
		for i, c := range t.Columns {
			vals := tcols[i]
			cv := &tv.cols[i]
			if c.PrimaryKey {
				for r, v := range vals {
					if v.Kind() != value.Int || v.Int() != int64(r+1) {
						return fmt.Errorf("core: %s.%s must be dense 1..N (row %d has %s)", t.Name, c.Name, r, v)
					}
				}
			}
			if c.IsForeignKey() {
				// The schema declares referenced tables first, so the
				// referenced view exists already.
				ref := views[db.mustTable(c.RefTable).Ordinal()]
				ids := make([]uint32, len(vals))
				for r, v := range vals {
					if v.Kind() != value.Int || v.Int() < 1 || v.Int() > int64(ref.baseN) {
						return fmt.Errorf("core: %s.%s row %d: foreign key %s out of 1..%d", t.Name, c.Name, r, v, ref.baseN)
					}
					ids[r] = uint32(v.Int())
				}
				cv.ref, cv.fk, cv.inv = ref.t.Ordinal(), ids, invertEdge(ids, ref.baseN)
				tv.fks = append(tv.fks, i)
				ref.parent, ref.up = ord, i
			}
			if c.Hidden {
				if cv.hid, err = db.hid.AddColumn(t.Name, c.Name, c.Type.Kind, vals); err != nil {
					return err
				}
				if c.Type.Kind == value.String {
					for _, v := range vals {
						db.hiddenVals.Add(v)
					}
				}
			} else if c.PrimaryKey { // verified dense 1..N above
				if err := vt.AddKeyColumn(c.Name, vals); err != nil {
					return err
				}
			} else {
				if err := vt.AddColumn(c.Name, c.Type.Kind, vals); err != nil {
					return err
				}
				cv.vis, _ = vt.Column(c.Name)
			}
		}
	}

	columnsDone := time.Now()

	// Subtree Key Tables for every table that references others.
	fkLookup := func(table, col string) ([]uint32, error) {
		if t, ok := db.sch.Table(table); ok {
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
		s, err := skt.Build(db.hid, db.sch, tv.t.Name, tv.baseN, fkLookup)
		if err != nil {
			return err
		}
		db.skts[tv.t.Name] = s
	}

	sktDone := time.Now()

	// Climbing indexes: every hidden column, dense translators on every
	// non-root primary key (the pre-filtering machinery), and any
	// visible columns requested via WithDeviceIndex.
	invLookup := func(parent, child string) ([][]uint32, error) {
		if ct, ok := db.sch.Table(child); ok {
			if cv := views[ct.Ordinal()]; cv.parent >= 0 && strings.EqualFold(views[cv.parent].t.Name, parent) {
				return views[cv.parent].cols[cv.up].inv, nil
			}
		}
		return nil, fmt.Errorf("core: no inverted edge %s<-%s", parent, child)
	}
	wantDevice := map[string]bool{}
	for _, spec := range db.opts.DeviceIndexes {
		wantDevice[strings.ToLower(spec)] = true
	}
	root := db.sch.Root()
	for _, tv := range views {
		t := tv.t
		tcols := cols[t.Name]
		for i, c := range t.Columns {
			dense := false
			switch {
			case c.Hidden:
				// regular hidden-column index
			case c.PrimaryKey && t != root:
				dense = true
			case wantDevice[strings.ToLower(t.Name+"."+c.Name)]:
				// visible column promoted to a device index
			default:
				continue
			}
			ix, err := climbing.Build(db.hid, db.sch, t.Name, c.Name, c.Type.Kind, tcols[i], dense, invLookup)
			if err != nil {
				return err
			}
			tv.cols[i].ix = ix
		}
	}
	db.views = views
	// Only a CHECKPOINT's rebuild is observed: the secure-setting load is
	// as free in the metrics as on the simulated clock.
	if db.loaded {
		m := db.metrics
		m.checkpointColumnsWall.Observe(columnsDone.Sub(start).Nanoseconds())
		m.checkpointSKTWall.Observe(sktDone.Sub(columnsDone).Nanoseconds())
		m.checkpointClimbingWall.Observe(time.Since(sktDone).Nanoseconds())
	}
	return nil
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

// Index returns the climbing index on table.column, if any.
func (db *DB) Index(table, column string) (*climbing.Index, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.indexLocked(table, column)
}

// indexLocked is Index for callers already holding the device gate.
func (db *DB) indexLocked(table, column string) (*climbing.Index, bool) {
	t, ok := db.sch.Table(table)
	if !ok || db.views == nil {
		return nil, false
	}
	ci := t.ColumnIndex(column)
	if ci < 0 {
		return nil, false
	}
	ix := db.views[t.Ordinal()].cols[ci].ix
	return ix, ix != nil
}

// HasIndex reports whether a climbing index exists (planner callback).
func (db *DB) HasIndex(table, column string) bool {
	_, ok := db.Index(table, column)
	return ok
}

// hasIndexLocked is HasIndex for callers already holding the device gate.
// A sharded coordinator builds no indexes of its own; every shard carries
// the same index set, so shard 0 answers for all.
func (db *DB) hasIndexLocked(table, column string) bool {
	if db.shards != nil {
		return db.shards.children[0].HasIndex(table, column)
	}
	_, ok := db.indexLocked(table, column)
	return ok
}

// SmallProfileForTest returns a 16 KB, 2-cache-frame device profile for
// tests exercising the tightest RAM paths.
func SmallProfileForTest() device.Profile {
	p := device.SmartUSB2007().WithRAM(16 << 10)
	p.CacheFrames = 2
	return p
}

// translator returns the dense climbing index on the table's primary
// key. Callers must hold the device gate.
func (db *DB) translator(table string) (*climbing.Index, error) {
	t, ok := db.sch.Table(table)
	if !ok {
		return nil, fmt.Errorf("core: unknown table %s", table)
	}
	ix, ok := db.indexLocked(t.Name, t.PrimaryKey().Name)
	if !ok {
		return nil, fmt.Errorf("core: no translator index on %s", table)
	}
	return ix, nil
}
