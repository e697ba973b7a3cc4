package driver

import (
	"context"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// ErrNoTransactions is returned by Begin: GhostDB has no multi-statement
// transactions — each DML statement applies atomically on its own (the
// delta merge is the engine's unit of durability).
var ErrNoTransactions = errors.New("ghostdb driver: transactions are not supported")

// ErrStmtClosed is returned when a closed prepared statement is used.
var ErrStmtClosed = errors.New("ghostdb driver: statement is closed")

// Conn is one pooled database/sql connection: a session on the shared
// GhostDB engine.
type Conn struct {
	sess *core.Session
}

var (
	_ sqldriver.Conn           = (*Conn)(nil)
	_ sqldriver.ExecerContext  = (*Conn)(nil)
	_ sqldriver.QueryerContext = (*Conn)(nil)
	_ sqldriver.Pinger         = (*Conn)(nil)
)

// Session exposes the underlying core session (stats, reports).
func (c *Conn) Session() *core.Session { return c.sess }

// Prepare parses and classifies the statement eagerly (syntax errors
// surface here, and NumInput counts the '?' placeholders) and defers
// binding to execution time, since binding needs the bulk load to be
// finalized. A prepared SELECT compiles once — through the engine's
// shared plan cache — on its first Query and reuses the compiled plan
// for every later execution, with fresh parameter bindings each time; a
// prepared script runs its parsed statements through the session's exec
// door.
func (c *Conn) Prepare(query string) (sqldriver.Stmt, error) {
	stmts, err := sql.ParseScript(query)
	if err != nil {
		return nil, err
	}
	isSelect, err := classify(stmts)
	if err != nil {
		return nil, err
	}
	s := &Stmt{
		conn:      c,
		query:     query,
		isSelect:  isSelect,
		numParams: sql.CountParams(stmts...),
	}
	if !isSelect {
		s.stmts = stmts // a SELECT compiles from its text on first Query
	}
	return s, nil
}

// Close releases the session; the shared engine stays up.
func (c *Conn) Close() error { return c.sess.Close() }

// Begin is unsupported: GhostDB is read-only after the bulk load.
func (c *Conn) Begin() (sqldriver.Tx, error) { return nil, ErrNoTransactions }

// Ping verifies the session and engine are open.
func (c *Conn) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.sess.Ping()
}

// ExecContext executes DDL and DML through the session's exec door.
// Before the bulk load is finalized, CREATE TABLE and INSERT statements
// stage data; afterwards INSERT, DELETE, UPDATE and CHECKPOINT are live
// mutations against the RAM delta (the first DML on a staged database
// finalizes the load). One call may carry a whole semicolon-separated
// script; '?' placeholders bind from args in ordinal order. The context
// is checked before every statement and inside every CHECKPOINT.
// RowsAffected reports staged or mutated rows.
func (c *Conn) ExecContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	params, err := namedToParams(args)
	if err != nil {
		return nil, err
	}
	stmts, err := sql.ParseScript(query)
	if err != nil {
		return nil, err
	}
	isSelect, err := classify(stmts)
	if err != nil {
		return nil, err
	}
	if isSelect {
		return nil, errors.New("ghostdb driver: use Query for SELECT statements")
	}
	return c.exec(ctx, stmts, params)
}

// exec runs a parsed script through the session's exec door.
func (c *Conn) exec(ctx context.Context, stmts []sql.Statement, params []value.Value) (sqldriver.Result, error) {
	n, err := c.sess.ExecContext(ctx, stmts, params)
	if err != nil {
		return nil, err
	}
	return execResult{rows: n}, nil
}

// QueryContext executes a SELECT through the session's query door,
// binding '?' placeholders from args (the first query finalizes a
// staged bulk load). The context is honored at execution batch
// boundaries: canceling it aborts the query and returns ctx.Err().
func (c *Conn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	params, err := namedToParams(args)
	if err != nil {
		return nil, err
	}
	res, err := c.sess.QueryContext(ctx, query, params)
	if err != nil {
		return nil, badConn(err)
	}
	return &Rows{res: res}, nil
}

// badConn maps unrecoverable device faults onto driver.ErrBadConn so
// database/sql evicts the connection and retries the operation on a
// fresh one — the paper's "plug the key back in" recovery for one-shot
// hardware errors. Other errors pass through untouched.
func badConn(err error) error {
	if core.IsFaultFatal(err) {
		return fmt.Errorf("%w: %v", sqldriver.ErrBadConn, err)
	}
	return err
}

// classify reports whether the script is a single SELECT (true) or a
// DDL/DML script (false); mixing the two is an error.
func classify(stmts []sql.Statement) (isSelect bool, err error) {
	for _, s := range stmts {
		if _, ok := s.(*sql.Select); ok {
			if len(stmts) != 1 {
				return false, errors.New("ghostdb driver: SELECT must be the only statement in a call")
			}
			return true, nil
		}
	}
	return false, nil
}

// Stmt is a prepared statement. The parse work happens once, at Prepare;
// a SELECT additionally compiles once (parse, bind, plan enumeration,
// optimizer choice — shared through the engine's plan cache) on first
// execution and afterwards only binds fresh parameter values and runs.
// A prepared DELETE/UPDATE with arguments runs through the exec door,
// which compiles its shape once into the same shared plan cache.
type Stmt struct {
	conn      *Conn
	query     string
	stmts     []sql.Statement // parsed at Prepare; DDL/DML scripts only
	isSelect  bool
	numParams int

	mu     sync.Mutex
	closed bool
	cq     *core.CompiledQuery // lazily compiled SELECT; nil until first Query
}

var (
	_ sqldriver.Stmt             = (*Stmt)(nil)
	_ sqldriver.StmtQueryContext = (*Stmt)(nil)
	_ sqldriver.StmtExecContext  = (*Stmt)(nil)
)

// Close releases the statement, dropping its compiled-plan and parsed-
// script references so a closed statement cannot pin plan-cache entries
// (or staged INSERT data) in memory.
func (s *Stmt) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cq = nil
	s.stmts = nil
	return nil
}

// NumInput reports the number of '?' placeholders in the statement.
func (s *Stmt) NumInput() int { return s.numParams }

// Exec runs the prepared DDL/DML script (no re-parse: the script was
// parsed, classified and counted at Prepare), binding '?' placeholders
// from args.
func (s *Stmt) Exec(args []sqldriver.Value) (sqldriver.Result, error) {
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	return s.execValues(context.Background(), params)
}

// ExecContext is Exec under a context, which the exec door checks before
// every statement and inside every CHECKPOINT.
func (s *Stmt) ExecContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Result, error) {
	params, err := namedToParams(args)
	if err != nil {
		return nil, err
	}
	return s.execValues(ctx, params)
}

func (s *Stmt) execValues(ctx context.Context, params []value.Value) (sqldriver.Result, error) {
	if s.isSelect {
		return nil, errors.New("ghostdb driver: use Query for SELECT statements")
	}
	s.mu.Lock()
	closed, stmts := s.closed, s.stmts
	s.mu.Unlock()
	if closed {
		return nil, ErrStmtClosed
	}
	return s.conn.exec(ctx, stmts, params)
}

// Query executes the prepared SELECT with args bound to its '?'
// placeholders, compiling it on first use.
func (s *Stmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	params, err := toParams(args)
	if err != nil {
		return nil, err
	}
	return s.queryValues(context.Background(), params)
}

// QueryContext is Query with cancellation: the context is honored at
// execution batch boundaries, and canceling it returns ctx.Err().
func (s *Stmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	params, err := namedToParams(args)
	if err != nil {
		return nil, err
	}
	return s.queryValues(ctx, params)
}

// queryValues runs the compiled SELECT through the query door's
// bind-and-run step under the call's context.
func (s *Stmt) queryValues(ctx context.Context, params []value.Value) (sqldriver.Rows, error) {
	if !s.isSelect {
		return nil, fmt.Errorf("ghostdb driver: prepared statement is not a SELECT: %s", s.query)
	}
	cq, err := s.compiled()
	if err != nil {
		return nil, err
	}
	res, err := s.conn.sess.QueryCompiled(cq, params, core.WithContext(ctx))
	if err != nil {
		return nil, badConn(err)
	}
	return &Rows{res: res}, nil
}

// compiled returns the statement's compiled form, compiling (and, on a
// plan-cache miss, finalizing the bulk load) on first use.
func (s *Stmt) compiled() (*core.CompiledQuery, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStmtClosed
	}
	if s.cq != nil {
		return s.cq, nil
	}
	cq, err := s.conn.sess.Compile(s.query)
	if err != nil {
		return nil, err
	}
	s.cq = cq
	return cq, nil
}

// toParams converts driver argument values to GhostDB values.
func toParams(args []sqldriver.Value) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for i, a := range args {
		v, err := fromDriverValue(a)
		if err != nil {
			return nil, fmt.Errorf("ghostdb driver: argument %d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// namedToParams converts NamedValue arguments (positional only: GhostDB
// placeholders are ordinal '?') to GhostDB values.
func namedToParams(args []sqldriver.NamedValue) ([]value.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]value.Value, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("ghostdb driver: named argument %q is not supported (use '?' placeholders)", a.Name)
		}
		if a.Ordinal < 1 || a.Ordinal > len(args) {
			return nil, fmt.Errorf("ghostdb driver: argument ordinal %d out of range", a.Ordinal)
		}
		v, err := fromDriverValue(a.Value)
		if err != nil {
			return nil, fmt.Errorf("ghostdb driver: argument %d: %w", a.Ordinal, err)
		}
		out[a.Ordinal-1] = v
	}
	return out, nil
}

// fromDriverValue converts one database/sql argument to a GhostDB value.
// time.Time arguments bind as DATE (GhostDB stores civil dates only).
func fromDriverValue(a sqldriver.Value) (value.Value, error) {
	switch a := a.(type) {
	case int64:
		return value.NewInt(a), nil
	case float64:
		return value.NewFloat(a), nil
	case bool:
		return value.NewBool(a), nil
	case string:
		return value.NewString(a), nil
	case []byte:
		return value.NewString(string(a)), nil
	case time.Time:
		return value.NewDate(a.Year(), int(a.Month()), a.Day()), nil
	case nil:
		return value.Value{}, errors.New("GhostDB has no NULLs")
	default:
		return value.Value{}, fmt.Errorf("unsupported type %T", a)
	}
}

// execResult reports rows staged by an Exec call.
type execResult struct{ rows int64 }

// LastInsertId is unsupported: GhostDB primary keys are dense 1..N and
// assigned by the application.
func (execResult) LastInsertId() (int64, error) {
	return 0, errors.New("ghostdb driver: LastInsertId is not supported")
}

// RowsAffected reports the number of rows staged.
func (r execResult) RowsAffected() (int64, error) { return r.rows, nil }
