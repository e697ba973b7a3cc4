package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("core: session is closed")

// Session is one logical client of a shared DB — the unit the
// database/sql driver hands out as a pooled connection. Many sessions
// may be open at once, each on its own goroutine: host-side work
// (parsing, binding) runs concurrently, while device execution
// serializes on the DB's device gate, exactly as a hardware token
// serializes its USB command stream.
//
// A Session carries per-session execution state: its own metrics
// registry (queries run, their simulated device time, plan-cache traffic)
// and the last execution report. A Session is itself safe for concurrent
// use.
type Session struct {
	db *DB
	id int

	// metrics is the session-scoped registry: the same metric names as
	// the DB registry, counting only this session's traffic.
	metrics *engineMetrics

	mu         sync.Mutex
	closed     bool
	lastReport *stats.Report // written by observeQuery
}

// NewSession opens a session on the database.
func (db *DB) NewSession() (*Session, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	db.nextSession++
	db.sessions++
	return &Session{db: db, id: db.nextSession, metrics: newEngineMetrics()}, nil
}

// OpenSessions reports the number of sessions currently open.
func (db *DB) OpenSessions() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sessions
}

// ID is the session's unique identifier within its DB.
func (s *Session) ID() int { return s.id }

// DB returns the underlying shared database.
func (s *Session) DB() *DB { return s.db }

// Close releases the session. Closing a session does not close the DB;
// in-flight queries on other sessions are unaffected. Close is
// idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.db.mu.Lock()
	s.db.sessions--
	s.db.mu.Unlock()
	return nil
}

// check returns an error when the session (or its DB) cannot serve.
func (s *Session) check() error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrSessionClosed
	}
	return nil
}

// recordCache counts one plan-cache lookup on the session registry.
func (s *Session) recordCache(hit bool) {
	if hit {
		s.metrics.planCacheHits.Inc()
	} else {
		s.metrics.planCacheMisses.Inc()
	}
}

// Ping verifies that both the session and its DB are open.
func (s *Session) Ping() error {
	if err := s.check(); err != nil {
		return err
	}
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.db.closed {
		return ErrClosed
	}
	return nil
}

// Stage applies CREATE TABLE / INSERT statements without finalizing the
// bulk load (see DB.Stage).
func (s *Session) Stage(script string) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.db.Stage(script)
}

// StageStatements applies already-parsed CREATE TABLE / INSERT
// statements without finalizing the bulk load (see DB.StageStatements).
func (s *Session) StageStatements(stmts []sql.Statement) error {
	if err := s.check(); err != nil {
		return err
	}
	return s.db.StageStatements(stmts)
}

// EnsureBuilt finalizes staged data if needed (see DB.EnsureBuilt).
func (s *Session) EnsureBuilt() error {
	if err := s.check(); err != nil {
		return err
	}
	return s.db.EnsureBuilt()
}

// Prepare parses and binds a SELECT (host-side; runs concurrently).
func (s *Session) Prepare(sqlText string) (*plan.Query, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.db.Prepare(sqlText)
}

// Compile parses, binds and plan-enumerates a SELECT through the DB's
// shared plan cache: sessions issuing the same query shape share one
// CompiledQuery. The hit/miss is charged to this session's counters.
func (s *Session) Compile(sqlText string) (*CompiledQuery, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	cq, hit, err := s.db.compileCached(sqlText)
	if err != nil {
		return nil, err
	}
	s.recordCache(hit)
	return cq, nil
}

// Query compiles (through the shared plan cache) and executes a SELECT
// through the shared device gate. EXPLAIN and EXPLAIN ANALYZE prefixes
// are intercepted and answered with a rendered plan (see DB.Explain and
// DB.ExplainAnalyze).
func (s *Session) Query(sqlText string, opts ...QueryOption) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if isExplain(sqlText) {
		return s.db.explainQuery(sqlText, append(opts, withSession(s))...)
	}
	cq, hit, err := s.db.compileCached(sqlText)
	if err != nil {
		return nil, err
	}
	s.recordCache(hit)
	return cq.Run(nil, append(opts, withSession(s))...)
}

// QueryCompiled binds params into a compiled query and executes it,
// attributing the run to the session.
func (s *Session) QueryCompiled(cq *CompiledQuery, params []value.Value, opts ...QueryOption) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return cq.Run(params, append(opts, withSession(s))...)
}

// Exec parses and executes a script of CREATE TABLE / INSERT / DELETE /
// UPDATE / CHECKPOINT statements (see DB.Exec), returning the number of
// rows affected.
func (s *Session) Exec(sqlText string) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.Exec(sqlText)
}

// ExecStatements executes already-parsed statements (see
// DB.ExecStatements). The database/sql driver routes ExecContext through
// it so prepared scripts skip the re-parse.
func (s *Session) ExecStatements(stmts []sql.Statement) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.ExecStatements(stmts)
}

// ExecStatementsContext is ExecStatements under a context (see
// DB.ExecStatementsContext): any CHECKPOINT it triggers checks ctx
// during its read phase and aborts cleanly with the delta intact.
func (s *Session) ExecStatementsContext(ctx context.Context, stmts []sql.Statement) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.ExecStatementsContext(ctx, stmts)
}

// CompileDML parses and binds a DELETE or UPDATE through the shared plan
// cache; sessions issuing the same statement shape share one
// CompiledDML. The hit/miss is charged to this session's counters.
func (s *Session) CompileDML(sqlText string) (*CompiledDML, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	cd, hit, err := s.db.compileDMLCached(sqlText)
	if err != nil {
		return nil, err
	}
	s.recordCache(hit)
	return cd, nil
}

// ExecCompiled binds params into a compiled DML and executes it.
func (s *Session) ExecCompiled(cd *CompiledDML, params []value.Value) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return cd.Exec(params)
}

// Checkpoint merges the live-DML delta into fresh flash segments (see
// DB.Checkpoint).
func (s *Session) Checkpoint() (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.Checkpoint()
}

// CheckpointContext is Checkpoint under a context (see
// DB.CheckpointContext).
func (s *Session) CheckpointContext(ctx context.Context) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.CheckpointContext(ctx)
}

// QueryWithPlan executes a prepared query under an explicit plan.
func (s *Session) QueryWithPlan(q *plan.Query, spec plan.Spec) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.db.QueryWithPlan(q, spec, withSession(s))
}

// SessionStats is a snapshot of one session's execution state.
type SessionStats struct {
	ID         int
	Queries    int64            // queries this session completed
	DeviceTime time.Duration    // simulated device time they consumed
	LastReport *stats.Report    // report of the most recent query, if any
	PlanCache  stats.CacheStats // this session's share of plan-cache traffic
}

// Stats snapshots the session's counters from its registry.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	last := s.lastReport
	s.mu.Unlock()
	m := s.metrics
	return SessionStats{
		ID:         s.id,
		Queries:    m.queries.Value(),
		DeviceTime: time.Duration(m.querySim.Snapshot().Sum),
		LastReport: last,
		PlanCache:  stats.CacheStats{Hits: m.planCacheHits.Value(), Misses: m.planCacheMisses.Value()},
	}
}
