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
	return &Session{db: db, id: db.nextSession, metrics: newSessionMetrics()}, nil
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

// Compile parses, binds and plan-enumerates a SELECT through the DB's
// shared plan cache: sessions issuing the same query shape share one
// CompiledQuery. The hit or miss is counted on the DB's and this
// session's registries; a miss finalizes a pending bulk load.
func (s *Session) Compile(sqlText string) (*CompiledQuery, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.db.compileCached(s, sqlText)
}

// QueryContext is the session's query door, the one path the
// database/sql driver and the HTTP server run a SELECT through: it
// compiles sqlText through the shared plan cache (a miss finalizes a
// pending bulk load), binds args to its '?' placeholders in ordinal order
// and executes it under ctx, which is honored at batch boundaries. Text
// without args may also be an EXPLAIN or EXPLAIN ANALYZE statement,
// answered with a rendered plan (see DB.ExplainAnalyze). Arguments that
// do not bind fail with plan.ErrBind.
func (s *Session) QueryContext(ctx context.Context, sqlText string, args []value.Value) (*Result, error) {
	cfg := queryConfig{session: s}
	if ctx.Done() != nil {
		cfg.ctx = ctx
	}
	return s.query(sqlText, args, &cfg)
}

// Query is QueryContext without a context or arguments, under opts.
func (s *Session) Query(sqlText string, opts ...QueryOption) (*Result, error) {
	cfg := queryConfig{session: s}
	for _, o := range opts {
		o(&cfg)
	}
	return s.query(sqlText, nil, &cfg)
}

// query is the body of the query door over a filled configuration.
func (s *Session) query(sqlText string, args []value.Value, cfg *queryConfig) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	if len(args) == 0 && isExplain(sqlText) {
		return s.db.explainQuery(sqlText, cfg)
	}
	cq, err := s.db.compileCached(s, sqlText)
	if err != nil {
		return nil, err
	}
	return cq.runObserved(args, cfg)
}

// QueryCompiled is the query door's bind-and-run step for a query the
// caller compiled once (Compile) and runs many times: it binds params
// into cq and executes it under opts, attributing the run to the
// session.
func (s *Session) QueryCompiled(cq *CompiledQuery, params []value.Value, opts ...QueryOption) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	cfg := queryConfig{session: s}
	for _, o := range opts {
		o(&cfg)
	}
	return cq.runObserved(params, &cfg)
}

// ExecContext is the session's exec door, the one path the database/sql
// driver and the HTTP server run a parsed script through: CREATE TABLE
// and INSERT (staged before the load is finalized, live after), DELETE,
// UPDATE and CHECKPOINT, with args bound to the script's '?'
// placeholders in ordinal order across the whole script. Each statement
// binds its own placeholders just before it runs; a DELETE or UPDATE
// argument that does not bind fails with plan.ErrBind, wherever the
// statement sits in the script. DML never touches the plan cache. DML
// and CHECKPOINT finalize a pending bulk load. ctx is checked before
// every statement and inside every CHECKPOINT, explicit or
// delta-limit-triggered (see DB.execLocked). It returns the number of
// rows affected — for a CHECKPOINT, the delta entries it absorbed.
func (s *Session) ExecContext(ctx context.Context, stmts []sql.Statement, args []value.Value) (int64, error) {
	if err := s.check(); err != nil {
		return 0, err
	}
	return s.db.exec(ctx, stmts, args)
}

// Exec parses and executes a script of CREATE TABLE / INSERT / DELETE /
// UPDATE / CHECKPOINT statements through the exec door, returning the
// number of rows affected.
func (s *Session) Exec(sqlText string) (int64, error) {
	stmts, err := sql.ParseScript(sqlText)
	if err != nil {
		return 0, err
	}
	return s.ExecContext(context.Background(), stmts, nil)
}

// Checkpoint merges the live-DML delta into fresh flash segments through
// the exec door (see DB.Checkpoint).
func (s *Session) Checkpoint() (int64, error) {
	return s.ExecContext(context.Background(), checkpointScript, nil)
}

// QueryWithPlan executes a prepared query under an explicit plan.
func (s *Session) QueryWithPlan(q *plan.Query, spec plan.Spec) (*Result, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.db.queryWithPlan(q, spec, &queryConfig{session: s})
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
