package core

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"github.com/ghostdb/ghostdb/internal/stats"
)

// QueryPhase tags a QueryEvent.
type QueryPhase int

const (
	// QueryStart fires before execution (Wall/Sim/Rows are zero).
	QueryStart QueryPhase = iota
	// QueryFinish fires after a successful execution.
	QueryFinish
	// QueryError fires after a failed execution (Err is set; a canceled
	// context reports context.Canceled or context.DeadlineExceeded).
	QueryError
)

// String names the phase for structured logging.
func (p QueryPhase) String() string {
	switch p {
	case QueryStart:
		return "start"
	case QueryFinish:
		return "finish"
	case QueryError:
		return "error"
	default:
		return "unknown"
	}
}

// QueryEvent is one tracing notification. Events fire on the querying
// goroutine, outside the device gate, so a slow hook delays only its
// own query.
type QueryEvent struct {
	Phase     QueryPhase
	SQL       string        // original query text
	PlanLabel string        // chosen plan (finish only; "" before planning)
	Wall      time.Duration // host wall-clock, including device-gate wait
	Sim       time.Duration // simulated device time the query consumed
	Rows      int           // result rows (finish only)
	Err       error         // error/cancellation cause (error phase only)
}

// QueryHook observes query execution (see WithQueryHook). Hooks must be
// safe for concurrent use: sessions on different goroutines fire them
// concurrently.
type QueryHook func(QueryEvent)

// SlowQueryHook returns a built-in hook that logs a structured slog
// warning for every query whose wall-clock latency is at least min, and
// an error-level record for every failed query. A nil logger uses
// slog.Default(). Start events are ignored.
func SlowQueryHook(min time.Duration, lg *slog.Logger) QueryHook {
	if lg == nil {
		lg = slog.Default()
	}
	return func(ev QueryEvent) {
		switch ev.Phase {
		case QueryError:
			lg.Error("ghostdb query failed",
				"sql", ev.SQL,
				"wall", ev.Wall,
				"err", ev.Err)
		case QueryFinish:
			if ev.Wall >= min {
				lg.Warn("ghostdb slow query",
					"sql", ev.SQL,
					"plan", ev.PlanLabel,
					"wall", ev.Wall,
					"sim", ev.Sim,
					"rows", ev.Rows)
			}
		}
	}
}

// fireHooks dispatches one event to every registered hook.
func (db *DB) fireHooks(ev QueryEvent) {
	for _, h := range db.hooks {
		h(ev)
	}
}

// observeQuery is the one place a finished query is counted: it feeds the
// DB and session registries (SessionStats reads the latter), keeps the
// session's last report and fires the tracing hooks. wall is host time
// measured from before the device-gate wait; rep is nil on error.
func (db *DB) observeQuery(s *Session, sqlText string, wall time.Duration, rep *stats.Report, err error) {
	m := db.metrics
	var sm *engineMetrics
	if s != nil {
		sm = s.metrics
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			m.queriesCanceled.Inc()
			if sm != nil {
				sm.queriesCanceled.Inc()
			}
		}
		m.queryErrors.Inc()
		if sm != nil {
			sm.queryErrors.Inc()
		}
		if len(db.hooks) > 0 {
			db.fireHooks(QueryEvent{Phase: QueryError, SQL: sqlText, Wall: wall, Err: err})
		}
		return
	}
	sim, rows := rep.TotalTime, rep.ResultRows
	slow := db.opts.SlowQueryThreshold > 0 && wall >= db.opts.SlowQueryThreshold
	m.queries.Inc()
	m.rowsReturned.Add(int64(rows))
	m.queryWall.Observe(wall.Nanoseconds())
	m.querySim.Observe(sim.Nanoseconds())
	if slow {
		m.slowQueries.Inc()
	}
	if sm != nil {
		sm.queries.Inc()
		sm.rowsReturned.Add(int64(rows))
		sm.queryWall.Observe(wall.Nanoseconds())
		sm.querySim.Observe(sim.Nanoseconds())
		if slow {
			sm.slowQueries.Inc()
		}
		s.mu.Lock()
		s.lastReport = rep
		s.mu.Unlock()
	}
	if len(db.hooks) > 0 {
		db.fireHooks(QueryEvent{
			Phase:     QueryFinish,
			SQL:       sqlText,
			PlanLabel: rep.PlanLabel,
			Wall:      wall,
			Sim:       sim,
			Rows:      rows,
		})
	}
}
