package core

// The seam between the shard coordinator and the devices it drives. A
// shard is a complete single-device engine (*DB); childEngine is the
// whole of what routing, gathering, DML routing and the two-phase
// CHECKPOINT (coordinator.go, shard_write.go) ask of it. Each method
// takes the child's own device gate for exactly as long as the child
// works, so the coordinator never holds a child lock itself and the lock
// order stays coordinator db.mu (optional) -> shardSet.mu -> child db.mu.
// Lifecycle, recovery and introspection (core.go, recover.go, sidecar.go)
// own the devices as *DB and are not routed through here.

import (
	"context"
	"time"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

type childEngine interface {
	// FatalError reports the terminal error that took the device down.
	FatalError() error

	// shardPlan returns this device's plan holder for a coordinator
	// shape: it shares the shape and the enumerated plan space (every
	// shard carries the same index set) and keeps the device's own
	// optimizer choice, made from its own statistics on its first run.
	shardPlan(shape *plan.Query, specs []plan.Spec) *CompiledQuery
	// shardRun executes a bound query under a plan holder this device
	// issued. sh selects the scatter-gather half (see DB.execute); nil runs
	// the whole query, finishing included.
	shardRun(ccq *CompiledQuery, q *plan.Query, cfg *queryConfig, sh *shardRemap) (*Result, error)

	// shardLoad bulk-loads the device's partition; rootGlobals is its
	// local->global root mapping, persisted with every commit record.
	shardLoad(cols map[string][][]value.Value, rootGlobals []uint32) error
	shardInsert(ins *sql.Insert) error
	shardExecDML(d *plan.DML) (int64, error)
	// shardCheckpointPrepare is CHECKPOINT's read-only phase; a nil
	// pending means the device's delta is empty. simStart is the device
	// clock at entry, handed back to shardCheckpointCommit.
	shardCheckpointPrepare(ctx context.Context) (p *ckptPending, simStart time.Duration, err error)
	// shardCheckpointCommit installs the post-merge root mapping and
	// commits: the prepared rebuild, or a record-only commit for a clean
	// device. It returns the simulated time since simStart.
	shardCheckpointCommit(p *ckptPending, rootGlobals []uint32, simStart time.Duration) (time.Duration, error)

	DeltaStats() []DeltaStats
	NextID(table string) (uint32, error)
	Storage() StorageBreakdown
	// shardSimTime reads the device clock's accumulated simulated time.
	shardSimTime() time.Duration
	// shardRowCounts copies the device's base cardinalities into dst.
	shardRowCounts(dst map[string]int)
}

// child returns shard s as the coordinator sees it.
func (ss *shardSet) child(s int) childEngine { return ss.children[s] }

func (db *DB) shardPlan(shape *plan.Query, specs []plan.Spec) *CompiledQuery {
	return &CompiledQuery{db: db, shape: shape, specs: specs}
}

func (db *DB) shardRun(ccq *CompiledQuery, q *plan.Query, cfg *queryConfig, sh *shardRemap) (*Result, error) {
	return ccq.runBound(q, cfg, sh)
}

func (db *DB) shardLoad(cols map[string][][]value.Value, rootGlobals []uint32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rootGlobals = rootGlobals
	return db.build(cols)
}

func (db *DB) shardInsert(ins *sql.Insert) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.insertLocked(ins)
}

func (db *DB) shardExecDML(d *plan.DML) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execDMLLocked(d)
}

func (db *DB) shardCheckpointPrepare(ctx context.Context) (*ckptPending, time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	simStart := db.clock.Now()
	p, err := db.checkpointPrepareLocked(ctx)
	return p, simStart, err
}

func (db *DB) shardCheckpointCommit(p *ckptPending, rootGlobals []uint32, simStart time.Duration) (time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rootGlobals = rootGlobals
	var err error
	if p != nil {
		err = db.checkpointCommitLocked(p)
	} else {
		err = db.recordOnlyCommitLocked()
	}
	return db.clock.Span(simStart), err
}

func (db *DB) shardSimTime() time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.clock.Now()
}

func (db *DB) shardRowCounts(dst map[string]int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for name, cnt := range db.rowCounts {
		dst[name] = cnt
	}
}
