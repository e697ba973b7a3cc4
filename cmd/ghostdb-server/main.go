// Command ghostdb-server serves a GhostDB engine over HTTP: the trusted
// terminal of the paper's architecture, answering SQL for remote
// clients that are never allowed to hold the hidden data. One process
// owns one engine (one simulated smart USB device stack, or N shards);
// remote requests multiplex onto a bounded pool of engine sessions with
// admission control — saturation answers 429 + Retry-After instead of
// queueing without bound.
//
//	ghostdb-server -addr :8080 -dsn 'ghostdb://?shards=4&usb=high'
//	ghostdb-server -addr :8080 -demo 20000       # preload the hospital dataset
//
// Endpoints:
//
//	POST /v1/query       {"sql": "SELECT ...", "args": [...]}
//	POST /v1/exec        {"sql": "CREATE TABLE ...; INSERT ...", "args": [...]}
//	POST /v1/checkpoint  {}
//	GET  /v1/schema
//	GET  /healthz
//	GET  /debug/vars     engine + server state (JSON)
//	GET  /metrics        Prometheus text exposition
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight requests drain (bounded by -shutdown-grace), then the
// engine closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8080", "listen address")
		dsn           = flag.String("dsn", "", "engine DSN (ghostdb://?shards=4&faults=...); empty = paper hardware defaults")
		demo          = flag.Int("demo", 0, "preload the synthetic hospital dataset at this scale (prescriptions); 0 starts empty")
		maxInflight   = flag.Int("max-inflight", 64, "bound on concurrently executing requests (session pool size)")
		queueWait     = flag.Duration("queue-wait", 0, "how long a request may wait for a free session before 429")
		reqTimeout    = flag.Duration("request-timeout", 0, "per-request execution deadline (0 = none)")
		retryAfter    = flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		shutdownGrace = flag.Duration("shutdown-grace", 30*time.Second, "how long shutdown waits for in-flight requests to drain")
	)
	flag.Parse()
	if err := run(*addr, *dsn, *demo, server.Config{
		MaxInflight:    *maxInflight,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		RetryAfter:     *retryAfter,
	}, *shutdownGrace, nil); err != nil {
		log.Fatal(err)
	}
}

// run serves until SIGINT/SIGTERM. ready, when non-nil, receives the
// bound listen address once the server is accepting (tests use it).
func run(addr, dsn string, demo int, cfg server.Config, grace time.Duration, ready chan<- string) error {
	db, err := driver.OpenEngine(dsn)
	if err != nil {
		return err
	}
	defer db.Close()
	if demo > 0 {
		start := time.Now()
		log.Printf("loading hospital demo dataset at scale %d...", demo)
		if err := db.LoadDataset(datagen.Generate(datagen.WithScale(demo))); err != nil {
			return err
		}
		if err := db.EnsureBuilt(); err != nil {
			return err
		}
		log.Printf("loaded in %v", time.Since(start).Round(time.Millisecond))
	}

	srv, err := server.New(db, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Slowloris hardening: a client must deliver headers promptly
		// and cannot hold a response open forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	// Before anyone is told the server is up: a SIGTERM that arrives
	// first would otherwise kill the process instead of draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("ghostdb-server listening on http://%s (max-inflight %d)", ln.Addr(), cfg.MaxInflight)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	log.Printf("shutting down: draining in-flight requests (grace %v)", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	log.Printf("drained; closing engine")
	return nil
}
