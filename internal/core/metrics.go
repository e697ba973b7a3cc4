package core

import (
	"github.com/ghostdb/ghostdb/internal/metrics"
)

// engineMetrics holds pre-registered pointers into one metrics.Registry
// so the hot path pays a few atomic adds and zero map lookups per query.
// Every DB front door, every Session and every device engine owns one.
// The front door's and the sessions' (newEngineMetrics) count what the
// front door sees: queries, plan cache, DML, CHECKPOINT, the delta,
// routing. An engine's (newDeviceMetrics) counts what its device and
// pipeline did. Each metric is fed on one side only, so the database's
// registry is the front door's plus the sum of its engines'
// (DB.MetricsSnapshot). A field the registry does not carry is nil, and
// every metric is nil-safe.
//
// Time histograms come in pairs: *_wall_ns is host wall-clock,
// *_sim_ns is simulated device time. Feeding metrics never charges the
// simulated clock, so enabling them cannot change any reported result.
type engineMetrics struct {
	reg *metrics.Registry

	queries         *metrics.Counter
	queryErrors     *metrics.Counter
	queriesCanceled *metrics.Counter
	rowsReturned    *metrics.Counter
	batchesPulled   *metrics.Counter
	slowQueries     *metrics.Counter

	planCacheHits   *metrics.Counter
	planCacheMisses *metrics.Counter

	dmlStatements   *metrics.Counter
	rowsAffected    *metrics.Counter
	checkpoints     *metrics.Counter
	tombstoneProbes *metrics.Counter

	flashPageReads *metrics.Counter
	busBytes       *metrics.Counter

	visIndexed *metrics.Counter
	visScanned *metrics.Counter

	faultsInjected   *metrics.Counter
	faultsRetried    *metrics.Counter
	checksumFailures *metrics.Counter
	recoveries       *metrics.Counter
	recordSim        *metrics.Counter

	ramHighWater *metrics.MaxGauge

	deltaRows       *metrics.Gauge
	deltaTombstones *metrics.Gauge
	deltaBytes      *metrics.Gauge

	queryWall      *metrics.Histogram
	querySim       *metrics.Histogram
	checkpointWall *metrics.Histogram
	// The phases of checkpoint_wall_ns, per device.
	checkpointPrepareWall *metrics.Histogram
	checkpointRebuildWall *metrics.Histogram
	// The rebuild phase again in three (loadState feeds them); what is left
	// of it is the half swap's erases and the delta release.
	checkpointColumnsWall  *metrics.Histogram
	checkpointSKTWall      *metrics.Histogram
	checkpointClimbingWall *metrics.Histogram
	checkpointCommitWall   *metrics.Histogram
	checkpointSim          *metrics.Histogram
	recoveryWall           *metrics.Histogram

	// Front door only (addRouteMetrics): how each query was routed and
	// how many devices it contacted.
	shardRoutes     [numShardRoutes]*metrics.Counter
	shardsContacted *metrics.Histogram
}

// shardRoute names how the front door served a query.
type shardRoute int

const (
	routePruned  shardRoute = iota // root-rooted, fewer than all shards contacted
	routeScatter                   // root-rooted, every shard contacted
	routeReplica                   // dimension-rooted, one replica answered whole
	numShardRoutes
)

// addRouteMetrics registers the front door's routing metrics. The
// counters share one Prometheus family, told apart by a route label.
func (m *engineMetrics) addRouteMetrics() {
	const help = "queries by how the front door routed them over the device shards"
	for route, label := range [numShardRoutes]string{"pruned", "scatter", "replica"} {
		m.shardRoutes[route] = m.reg.Counter(`shard_route_total{route="`+label+`"}`, help)
	}
	m.shardsContacted = m.reg.Histogram("shards_contacted", "device shards contacted per query")
}

// noteRoute counts one routed query and the shards it contacted.
func (m *engineMetrics) noteRoute(route shardRoute, contacted int) {
	m.shardRoutes[route].Inc()
	m.shardsContacted.Observe(int64(contacted))
}

// newEngineMetrics builds a front-door (or session) registry.
func newEngineMetrics() *engineMetrics {
	r := metrics.NewRegistry()
	return &engineMetrics{
		reg: r,

		queries:         r.Counter("queries_total", "queries executed"),
		queryErrors:     r.Counter("query_errors_total", "queries that returned an error"),
		queriesCanceled: r.Counter("queries_canceled_total", "queries stopped by context cancellation"),
		rowsReturned:    r.Counter("rows_returned_total", "result rows delivered to clients"),
		slowQueries:     r.Counter("slow_queries_total", "queries over the slow-query threshold"),

		planCacheHits:   r.Counter("plan_cache_hits_total", "compilations served from the plan cache"),
		planCacheMisses: r.Counter("plan_cache_misses_total", "compilations that parsed and planned from scratch"),

		dmlStatements: r.Counter("dml_statements_total", "INSERT/UPDATE/DELETE statements executed"),
		rowsAffected:  r.Counter("rows_affected_total", "rows touched by DML"),
		checkpoints:   r.Counter("checkpoints_total", "CHECKPOINT merges that absorbed delta entries"),
		recoveries:    r.Counter("recoveries_total", "databases rebuilt from a flash snapshot via Recover"),

		deltaRows:       r.Gauge("delta_rows", "live rows resident in the RAM delta store"),
		deltaTombstones: r.Gauge("delta_tombstones", "tombstones resident in the RAM delta store"),
		deltaBytes:      r.Gauge("delta_device_bytes", "device RAM held by the delta store"),

		queryWall:      r.Histogram("query_wall_ns", "query latency, host wall-clock"),
		querySim:       r.Histogram("query_sim_ns", "query latency, simulated device time"),
		checkpointWall: r.Histogram("checkpoint_wall_ns", "CHECKPOINT duration, host wall-clock"),
		checkpointSim:  r.Histogram("checkpoint_sim_ns", "CHECKPOINT duration, simulated device time"),
		recoveryWall:   r.Histogram("recovery_wall_ns", "Recover duration, host wall-clock"),
	}
}

// newDeviceMetrics builds a device engine's registry.
func newDeviceMetrics() *engineMetrics {
	r := metrics.NewRegistry()
	return &engineMetrics{
		reg: r,

		batchesPulled:   r.Counter("batches_pulled_total", "vectorized batches pulled through the root stream"),
		tombstoneProbes: r.Counter("tombstone_probes_total", "device liveness probes against the tombstone set"),

		flashPageReads: r.Counter("flash_page_reads_total", "simulated flash page reads charged to queries"),
		busBytes:       r.Counter("bus_bytes_total", "bytes that crossed the terminal-device wire"),

		visIndexed: r.Counter("visible_selects_indexed_total", "visible predicates answered from a sorted column index"),
		visScanned: r.Counter("visible_selects_scanned_total", "visible predicates answered by a per-row column scan"),

		faultsInjected:   r.Counter("faults_injected_total", "faults injected into the device stack by the fault plan"),
		faultsRetried:    r.Counter("faults_retried_total", "transient faults absorbed by the retry-with-backoff path"),
		checksumFailures: r.Counter("checksum_failures_total", "flash page reads that failed OOB checksum verification"),
		recordSim:        r.Counter("commit_record_sim_ns_total", "simulated device time spent writing checkpoint commit records"),

		ramHighWater: r.MaxGauge("ram_high_water_bytes", "device RAM arena high-water mark"),

		checkpointPrepareWall:  r.Histogram("checkpoint_prepare_wall_ns", "CHECKPOINT read phase (liveness, renumbering, extraction), host wall-clock"),
		checkpointRebuildWall:  r.Histogram("checkpoint_rebuild_wall_ns", "CHECKPOINT rebuild phase (flash half swap, column files, SKTs, climbing indexes), host wall-clock"),
		checkpointColumnsWall:  r.Histogram("checkpoint_rebuild_columns_wall_ns", "CHECKPOINT rebuild: foreign-key range check, inverted edges, visible columns and hidden column files (the climbing indexes encode alongside), host wall-clock"),
		checkpointSKTWall:      r.Histogram("checkpoint_rebuild_skt_wall_ns", "CHECKPOINT rebuild: subtree key tables (the climbing indexes encode alongside), host wall-clock"),
		checkpointClimbingWall: r.Histogram("checkpoint_rebuild_climbing_wall_ns", "CHECKPOINT rebuild: climbing indexes, waiting for their encoders and then programming them, host wall-clock"),
		checkpointCommitWall:   r.Histogram("checkpoint_commit_wall_ns", "CHECKPOINT commit phase (commit record, sidecar, sync), host wall-clock"),
	}
}

// faultSink adapts the engine metrics registry to the fault injector's
// Sink interface.
type faultSink struct{ m *engineMetrics }

func (s faultSink) FaultInjected(string, bool) { s.m.faultsInjected.Inc() }
func (s faultSink) FaultRetried(string)        { s.m.faultsRetried.Inc() }
func (s faultSink) ChecksumFailure()           { s.m.checksumFailures.Inc() }

// noteDelta refreshes the delta gauges from the logical delta, summed
// over the engines without allocating (it runs after every DML
// statement). Caller holds db.mu.
func (m *engineMetrics) noteDelta(db *DB) {
	if !db.loaded {
		return // staged load: no delta, and the schema isn't frozen yet
	}
	rows, tombs, deviceBytes := db.shards.deltaTotals(db.sch)
	m.deltaRows.Set(int64(rows))
	m.deltaTombstones.Set(int64(tombs))
	m.deltaBytes.Set(deviceBytes)
}

// MetricsSnapshot returns a point-in-time snapshot of the database's
// metrics (counters, gauges, histograms), sorted by name; never nil: the
// front door's registry plus the sum of its device engines' (a max gauge
// takes the maximum).
func (db *DB) MetricsSnapshot() metrics.Snapshot {
	snaps := make([]metrics.Snapshot, 0, 1+len(db.shards.engines))
	snaps = append(snaps, db.metrics.reg.Snapshot())
	for _, e := range db.shards.engines {
		snaps = append(snaps, e.metrics.reg.Snapshot())
	}
	return metrics.Merge(snaps...)
}

// MetricsSnapshot returns this session's private metrics (queries,
// latency histograms, rows) — the front door's names, scoped to the
// session's own traffic.
func (s *Session) MetricsSnapshot() metrics.Snapshot {
	return s.metrics.reg.Snapshot()
}

// CheckpointsRun reports how many CHECKPOINT merges have absorbed delta
// entries over the DB's lifetime (manual and automatic).
func (db *DB) CheckpointsRun() int64 {
	return db.checkpointsRun.Load()
}

// ShardMetrics returns one registry snapshot per device engine, indexed
// by shard number (one on a single-device database): what each device
// and its pipeline did (flash, bus, RAM, batches, liveness probes,
// faults, CHECKPOINT phases). Front-door counters such as queries_total
// live in MetricsSnapshot only.
func (db *DB) ShardMetrics() []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(db.shards.engines))
	for i, e := range db.shards.engines {
		out[i] = e.metrics.reg.Snapshot()
	}
	return out
}
