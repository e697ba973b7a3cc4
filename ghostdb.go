// Package ghostdb is a full reproduction of "GhostDB: Hiding Data from
// Prying Eyes" (Salperwyck, Anciaux, Benzine, Bouganim, Pucheral, Shasha —
// VLDB 2007 demo; SIGMOD 2007 companion): a database that hides sensitive
// columns on a tamper-resistant smart USB device while the rest stays on
// untrusted public storage, and answers ordinary SQL over both without
// ever letting hidden data leave the device.
//
// The smart USB device of the paper (tens of KB of RAM, NAND flash with
// asymmetric read/write costs, a 12 Mb/s USB link) is reproduced as a
// cycle-accounted simulator, the same methodology as the paper's own
// demo, which ran on "a software simulator of the USB device". All query
// costs are charged to a deterministic simulated clock.
//
// # Quick start
//
//	db, err := ghostdb.Open()
//	if err != nil { ... }
//	err = db.ExecScript(`
//	  CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
//	  CREATE TABLE Visit (
//	    VisID INTEGER PRIMARY KEY,
//	    Date DATE,
//	    Purpose CHAR(100) HIDDEN,
//	    DocID REFERENCES Doctor(DocID) HIDDEN);
//	  INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
//	  INSERT INTO Visit VALUES (1, DATE '2006-01-10', 'Checkup', 1);
//	`)
//	res, err := db.Query(`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc
//	    WHERE Vis.Purpose = 'Checkup' AND Doc.Country = 'France'`)
//
// Columns marked HIDDEN live only on the device; everything else (and
// every primary key) is public. Queries need no changes: the engine
// splits the work, delegating visible selections to the untrusted side
// and running all hidden computation on the device, with data flowing
// only from public to private.
//
// # Plans
//
// The engine implements the paper's strategies — Pre-filtering,
// Post-filtering and Cross-filtering — and an optimizer that picks among
// them from exact visible counts and climbing-index statistics. Use
// Plans/QueryWithPlan to explore the plan space by hand (the demo's
// phase 3 game), and Result.Report for per-operator statistics.
//
// # Concurrency and the database/sql driver
//
// A DB is safe for concurrent use: host-side work (parsing, binding,
// plan enumeration) runs on any number of goroutines, while execution
// serializes on the device gate — there is one simulated smart USB
// device per DB, and it processes one command stream, exactly like the
// hardware token it models. DB.NewSession opens lightweight sessions
// with per-session statistics, and DB.Close shuts the instance down.
//
// Ordinary applications can skip this API entirely: the
// github.com/ghostdb/ghostdb/driver package registers a full
// database/sql driver named "ghostdb", so
//
//	import _ "github.com/ghostdb/ghostdb/driver"
//
//	db, err := sql.Open("ghostdb", "ghostdb://?usb=high&fpr=0.01")
//
// gives any Go program hidden-column privacy through the standard
// library interface — DDL and INSERTs via Exec stage the bulk load, the
// first query finalizes it, and pooled connections map onto sessions.
package ghostdb

import (
	"context"
	"log/slog"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/metrics"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// DB is a GhostDB instance: the visible store, the simulated smart USB
// device holding the hidden data and its indexes, and the engine that
// executes queries across them.
type DB = core.DB

// Result is a completed query with its execution report.
type Result = core.Result

// Session is one logical client of a shared DB (see DB.NewSession): many
// sessions may run queries concurrently, serialized on the device gate.
type Session = core.Session

// SessionStats is a snapshot of one session's execution state.
type SessionStats = core.SessionStats

// ErrClosed is returned by every operation on a closed DB.
var ErrClosed = core.ErrClosed

// ErrSessionClosed is returned by operations on a closed Session.
var ErrSessionClosed = core.ErrSessionClosed

// Option configures Open.
type Option = core.Option

// QueryOption adjusts one query execution.
type QueryOption = core.QueryOption

// Open creates an empty GhostDB on a simulated smart USB device.
func Open(opts ...Option) (*DB, error) { return core.Open(opts...) }

// WithProfile selects the device hardware profile (default: the 2007-era
// smart USB device of the paper's Figure 2).
func WithProfile(p device.Profile) Option { return core.WithProfile(p) }

// WithUSB selects the terminal-device channel (default: USB 2.0 full
// speed, 12 Mb/s).
func WithUSB(p bus.Profile) Option { return core.WithUSB(p) }

// WithCapture selects how much wire payload the trace records; use
// CaptureFull to run the security audit.
func WithCapture(l trace.CaptureLevel) Option { return core.WithCapture(l) }

// WithTargetFPR sets the Bloom filters' target false-positive rate
// (default 1%; false positives are always repaired exactly).
func WithTargetFPR(f float64) Option { return core.WithTargetFPR(f) }

// WithDeviceIndex additionally builds a device climbing index on a
// visible column (the paper's Figure 4 shows one on Doctor.Country),
// letting the device evaluate that column's predicates with zero bus
// traffic at extra flash cost.
func WithDeviceIndex(table, column string) Option { return core.WithDeviceIndex(table, column) }

// WithPlanCacheSize bounds the engine's compiled-plan cache (LRU
// entries, default 256); n <= 0 disables caching.
func WithPlanCacheSize(n int) Option { return core.WithPlanCacheSize(n) }

// WithSpec forces a specific plan instead of the optimizer's choice.
func WithSpec(s PlanSpec) QueryOption { return core.WithSpec(s) }

// WithContext attaches a context to one query execution: cancellation is
// honored at execution batch boundaries and surfaces as ctx.Err().
func WithContext(ctx context.Context) QueryOption { return core.WithContext(ctx) }

// WithShards splits the database across n simulated devices: the fact
// table is partitioned over the shards while dimension tables are
// replicated, and root-rooted queries run scatter-gather with one
// goroutine per shard. n <= 1 is one device — the same front door over
// a set of one engine, whose root mapping is the identity.
func WithShards(n int) Option { return core.WithShards(n) }

// ShardInfo summarizes one device shard (see DB.ShardInfos).
type ShardInfo = core.ShardInfo

// FaultPlan is a deterministic, seedable description of device failures
// — transient and permanent flash errors, torn page writes, bit flips,
// bus drops, and power cuts at a given simulated time or operation
// count — consulted by the simulated device stack on every operation.
type FaultPlan = fault.Plan

// ParseFaultPlan parses the fault-plan DSN grammar, e.g.
// "seed=42,read.transient=0.001,torn=0.01,cutop=1234".
func ParseFaultPlan(s string) (*FaultPlan, error) { return fault.ParsePlan(s) }

// WithFaultPlan injects the plan's failures into the DB's simulated
// devices. The secure-setting bulk load stays fault-free; injection
// arms when the database goes live.
func WithFaultPlan(p *FaultPlan) Option { return core.WithFaultPlan(p) }

// WithDegradedReads keeps a sharded database answering dimension-rooted
// queries from surviving replicas after a shard's device dies, instead
// of failing every query fast.
func WithDegradedReads(on bool) Option { return core.WithDegradedReads(on) }

// BackendConfig selects the storage backend under the device: the
// simulated NAND chip (the default) or the persistent real-file backend.
type BackendConfig = storage.Config

// SimBackend returns the simulated-backend config (the default).
func SimBackend() BackendConfig { return storage.Sim() }

// FileBackend returns a file-backend config rooted at dir. fsync makes
// every commit point flush to stable storage (durable against host power
// loss, not just process crashes).
func FileBackend(dir string, fsync bool) BackendConfig { return storage.File(dir, fsync) }

// WithBackend selects the storage backend. Open with a file backend
// CREATES the database at the configured path, wiping any previous
// contents; use OpenPath to reopen an existing file-backed database.
func WithBackend(cfg BackendConfig) Option { return core.WithBackend(cfg) }

// OpenPath reopens a file-backed database from its on-disk state,
// landing on the newest fully committed version (a process kill
// mid-commit rolls back to the previous one). See core.OpenPath.
func OpenPath(dir string, opts ...Option) (*DB, *RecoverInfo, error) {
	return core.OpenPath(dir, opts...)
}

// PathHoldsDatabase reports whether dir holds a file-backed GhostDB that
// OpenPath can reopen.
func PathHoldsDatabase(dir string) bool { return core.PathHoldsDatabase(dir) }

// Snapshot is a crash-surviving capture of a DB: per-device flash
// images plus the server-durable visible data (see DB.Snapshot and
// Recover).
type Snapshot = core.Snapshot

// RecoverInfo reports what Recover landed on.
type RecoverInfo = core.RecoverInfo

// Recover rebuilds a database from a crash snapshot, landing on exactly
// the newest fully committed CHECKPOINT version.
func Recover(snap *Snapshot, extra ...Option) (*DB, *RecoverInfo, error) {
	return core.Recover(snap, extra...)
}

// IsFaultFatal reports whether err is an unrecoverable device fault
// (permanent hardware error, power cut, bus drop, corrupt page).
func IsFaultFatal(err error) bool { return core.IsFaultFatal(err) }

// IsDeviceDead reports whether err means a whole device is gone (power
// cut or disconnect) rather than one failed operation.
func IsDeviceDead(err error) bool { return core.IsDeviceDead(err) }

// WithQueryHook registers a tracing hook that observes every query's
// start, finish and error events. Hooks run synchronously on the
// querying goroutine; keep them cheap.
func WithQueryHook(h QueryHook) Option { return core.WithQueryHook(h) }

// WithSlowQuery arms the built-in slow-query logger: queries whose
// wall-clock latency reaches d are logged through slog (Default when lg
// is nil) and counted in slow_queries_total.
func WithSlowQuery(d time.Duration, lg *slog.Logger) Option { return core.WithSlowQuery(d, lg) }

// QueryHook observes query lifecycle events (see WithQueryHook).
type QueryHook = core.QueryHook

// QueryEvent is one query lifecycle event delivered to hooks.
type QueryEvent = core.QueryEvent

// QueryPhase labels a QueryEvent: start, finish or error.
type QueryPhase = core.QueryPhase

// Query lifecycle phases.
const (
	QueryStart  = core.QueryStart
	QueryFinish = core.QueryFinish
	QueryError  = core.QueryError
)

// SlowQueryHook builds the hook WithSlowQuery installs, for use with
// WithQueryHook when combining it with other hooks.
func SlowQueryHook(min time.Duration, lg *slog.Logger) QueryHook { return core.SlowQueryHook(min, lg) }

// Analysis is the structured product of EXPLAIN [ANALYZE]: the chosen
// plan, the optimizer's cardinality estimates and — for ANALYZE — the
// executed result with per-operator estimated vs actual rows and
// timings. Produce one with DB.ExplainAnalyze / DB.ExplainOnly, or send
// the SQL statements "EXPLAIN SELECT ..." / "EXPLAIN ANALYZE SELECT ..."
// through any query path, including the database/sql driver.
type Analysis = core.Analysis

// OpAnalysis is one operator row of an EXPLAIN ANALYZE.
type OpAnalysis = core.OpAnalysis

// DeltaSummary aggregates the live-DML delta and checkpoint state (see
// DB.DeltaSummary).
type DeltaSummary = core.DeltaSummary

// MetricsSnapshot is a point-in-time copy of a metrics registry (see
// DB.MetricsSnapshot and Session.MetricsSnapshot): sorted name/value
// pairs with histogram summaries, JSON-marshalable, and renderable as
// Prometheus text exposition via WritePrometheus.
type MetricsSnapshot = metrics.Snapshot

// Metric is one entry of a MetricsSnapshot.
type Metric = metrics.Value

// PlanSpec is one concrete query plan: a strategy per predicate plus the
// cross-filtering switch.
type PlanSpec = plan.Spec

// Query is a bound query (see DB.Prepare).
type Query = plan.Query

// CompiledQuery is a compiled (parse + bind + plan-enumerate) query
// shape, possibly with '?' placeholders: produce one with DB.Compile,
// then Run it many times with fresh parameter bindings. Compilations
// are shared across sessions through the engine's plan cache.
type CompiledQuery = core.CompiledQuery

// Re-exported device and channel profiles.
var (
	// SmartUSB2007 is the paper's target hardware: 64 KB RAM, 50 MHz
	// CPU, 2 GB NAND flash with a 5x program/read cost ratio.
	SmartUSB2007 = device.SmartUSB2007
	// USBFullSpeed is the 12 Mb/s link of 2007 ("full speed").
	USBFullSpeed = bus.USBFullSpeed
	// USBHighSpeed is the 480 Mb/s link "envisioned for future
	// platforms" (Section 3).
	USBHighSpeed = bus.USBHighSpeed
)

// Trace capture levels.
const (
	CaptureMeta = trace.CaptureMeta
	CaptureFull = trace.CaptureFull
)

// Dataset is a generated synthetic database (the demo's hospital data).
type Dataset = datagen.Dataset

// DatasetConfig controls synthetic dataset generation.
type DatasetConfig = datagen.Config

// GenerateDataset builds the Figure 3 hospital dataset deterministically.
func GenerateDataset(cfg DatasetConfig) *Dataset { return datagen.Generate(cfg) }

// PaperScale is the demo's cardinality: one million prescriptions.
func PaperScale() DatasetConfig { return datagen.Default() }

// SmallScale is a laptop-friendly 20K-prescription configuration with the
// same ratios.
func SmallScale() DatasetConfig { return datagen.Small() }

// ScaleOf returns a config with the given number of prescriptions.
func ScaleOf(prescriptions int) DatasetConfig { return datagen.WithScale(prescriptions) }
