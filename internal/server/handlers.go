package server

// The endpoint handlers. Every data-path handler runs inside an
// admission lease (one pooled session held end to end) and propagates
// the request context into the engine, so client disconnects and
// request timeouts cancel device work at batch boundaries. Engine
// errors map onto transport status codes: typed transient faults are
// 503 + Retry-After (the client should plug the key back in and retry),
// a dead device is 500, cancellation is the 499 convention.

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
)

// statusClientClosedRequest is the de-facto (nginx) status for "the
// client went away before the response": nothing standard fits, and the
// code never reaches the disconnected client anyway — it exists for the
// access log and the metrics.
const statusClientClosedRequest = 499

// handleQuery executes one SELECT (or EXPLAIN [ANALYZE]) and returns
// the materialized rows.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer a.release()
	var req QueryRequest
	if err := decodeRequest(r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		s.reject(w, http.StatusBadRequest, "missing sql", "bad_request")
		return
	}
	params, err := wireParams(req.Args)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	start := time.Now()
	// The session's query door compiles, binds and runs — EXPLAIN /
	// EXPLAIN ANALYZE too — and finalizes a staged load on a plan-cache
	// miss. Every failure it does not type is the statement's: 400.
	res, err := a.sess.QueryContext(a.ctx, req.SQL, params)
	if err != nil {
		s.writeEngineError(w, err, "bad_request", http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, encodeResult(res, time.Since(start)))
}

// handleExec executes a DDL / DML / CHECKPOINT script through the
// session's exec door: staging before the bulk load, live mutations
// after, '?' placeholders bound from args in ordinal order across the
// whole script.
func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer a.release()
	var req QueryRequest
	if err := decodeRequest(r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	params, err := wireParams(req.Args)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	stmts, err := sql.ParseScript(req.SQL)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}
	for _, st := range stmts {
		if _, isSel := st.(*sql.Select); isSel {
			s.reject(w, http.StatusBadRequest, "use /v1/query for SELECT statements", "bad_request")
			return
		}
	}
	start := time.Now()
	n, err := a.sess.ExecContext(a.ctx, stmts, params)
	if err != nil {
		s.writeEngineError(w, err, "exec_failed", http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusOK, &ExecResponse{RowsAffected: n, WallNS: time.Since(start).Nanoseconds()})
}

// checkpointScript is the parsed CHECKPOINT statement /v1/checkpoint
// runs through the exec door.
var checkpointScript = []sql.Statement{&sql.Checkpoint{}}

// handleCheckpoint merges the live-DML delta into fresh flash segments
// (finalizing a staged load first, as every CHECKPOINT does).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	a, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer a.release()
	start := time.Now()
	n, err := a.sess.ExecContext(a.ctx, checkpointScript, nil)
	if err != nil {
		s.writeEngineError(w, err, "internal", http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, &CheckpointResponse{Absorbed: n, WallNS: time.Since(start).Nanoseconds()})
}

// handleSchema renders the table layout under the engine's staging
// lock, so a concurrently staging bulk load cannot tear the view.
func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	var resp *SchemaResponse
	err := s.db.ViewSchema(func(sch *schema.Schema, loaded bool) {
		resp = encodeSchema(sch, loaded)
	})
	if err != nil {
		s.reject(w, http.StatusServiceUnavailable, err.Error(), "shutdown")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth answers liveness: 200 while the engine can serve, 503
// once a fatal device error latched.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	if err := s.db.FatalError(); err != nil {
		s.reject(w, http.StatusServiceUnavailable, err.Error(), "device_dead")
		return
	}
	writeJSON(w, http.StatusOK, &HealthResponse{Status: "ok", Loaded: s.db.Loaded()})
}

// handleVars serves the engine's /debug/vars document with the HTTP
// layer's own registry merged in under "server".
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	doc := ghostdb.DebugVars(s.db)
	doc["server"] = s.MetricsSnapshot()
	writeJSON(w, http.StatusOK, doc)
}

// handleMetrics serves the Prometheus exposition: the engine registry
// (ghostdb_*), per-shard registries (ghostdb_shard<i>_*) and the HTTP
// layer (ghostdb_server_*).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.m.requests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ghostdb.WritePrometheus(w, s.db)
	s.MetricsSnapshot().WritePrometheus(w, "ghostdb_server_")
}

// writeEngineError maps an engine error onto the wire: arguments that do
// not bind are the client's mistake, context cancellation and typed
// device faults get their transport codes, anything else the caller's
// default.
func (s *Server) writeEngineError(w http.ResponseWriter, err error, defaultKind string, defaultStatus int) {
	switch {
	case errors.Is(err, plan.ErrBind):
		s.reject(w, http.StatusBadRequest, err.Error(), "bad_request")
	case errors.Is(err, context.Canceled):
		s.m.canceled.Inc()
		writeJSON(w, statusClientClosedRequest, &ErrorResponse{Error: err.Error(), Kind: "canceled"})
	case errors.Is(err, context.DeadlineExceeded):
		s.reject(w, http.StatusGatewayTimeout, err.Error(), "timeout")
	case core.IsDeviceDead(err):
		s.reject(w, http.StatusInternalServerError, err.Error(), "device_dead")
	case fault.IsTransient(err):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.reject(w, http.StatusServiceUnavailable, err.Error(), "transient")
	case core.IsFaultFatal(err):
		s.reject(w, http.StatusInternalServerError, err.Error(), "fatal")
	default:
		s.reject(w, defaultStatus, err.Error(), defaultKind)
	}
}
