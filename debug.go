package ghostdb

// The live debug endpoint: an expvar-style HTTP surface over one DB's
// observability state, built purely on net/http. Two views of the same
// registry — machine-friendly JSON at /debug/vars (the expvar
// convention) and Prometheus text exposition at /metrics — plus the
// plan-cache and delta/checkpoint summaries, so a dashboard or a curl
// can watch a live engine without linking any client library.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// DebugHandler returns an http.Handler exposing db's live state:
//
//	GET /debug/vars   JSON: metrics registry, plan cache, delta, sessions
//	GET /metrics      Prometheus text exposition (metrics ghostdb_*)
//
// Both endpoints answer GET only (other methods get 405). Snapshots are
// taken per request; the handler never blocks queries.
func DebugHandler(db *DB) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(DebugVars(db))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, db)
	})
	return mux
}

// WritePrometheus writes db's section of the Prometheus exposition: the
// engine registry (ghostdb_*) and one registry per device engine
// (ghostdb_shard<i>_*). DebugHandler's /metrics serves exactly this;
// servers embedding the engine (cmd/ghostdb-server) append their own
// registries after it.
func WritePrometheus(w io.Writer, db *DB) {
	db.MetricsSnapshot().WritePrometheus(w, "ghostdb_")
	for i, snap := range db.ShardMetrics() {
		snap.WritePrometheus(w, fmt.Sprintf("ghostdb_shard%d_", i))
	}
}

// DebugVars assembles the JSON document served at /debug/vars. It is
// exported so servers embedding the debug surface (cmd/ghostdb-server)
// can merge their own sections into the same document.
func DebugVars(db *DB) map[string]any {
	return map[string]any{
		"plan_cache": db.PlanCacheStats(),
		"delta":      db.DeltaSummary(),
		"sessions":   db.OpenSessions(),
		"loaded":     db.Loaded(),
		"metrics":    db.MetricsSnapshot(),
		// One entry per device engine (one on a single-device database).
		"shards":        db.ShardInfos(),
		"shard_metrics": db.ShardMetrics(),
	}
}

// debugShutdownGrace bounds how long ServeDebug's stop function waits
// for in-flight requests to drain before forcing the server closed.
const debugShutdownGrace = 10 * time.Second

// ServeDebug starts an HTTP server on addr (e.g. "localhost:6060", or
// ":0" for an ephemeral port) serving DebugHandler(db). It returns the
// bound address and a function that shuts the server down gracefully:
// stop lets in-flight requests finish (up to a 10s grace period) before
// closing, and surfaces any error the serve loop died with. The server
// carries read/write/idle timeouts so a stalled client cannot pin a
// connection open forever.
func ServeDebug(addr string, db *DB) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{
		Handler:           DebugHandler(db),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), debugShutdownGrace)
			defer cancel()
			stopErr = srv.Shutdown(ctx)
			if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && stopErr == nil {
				stopErr = err
			}
		})
		return stopErr
	}
	return ln.Addr().String(), stop, nil
}
