package server

// The database/sql driver and this server share one statement door
// (core.Session.QueryContext / ExecContext). These tests hold the two
// front ends to each other and to the door's context contract.

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/sim"
	gsql "github.com/ghostdb/ghostdb/internal/sql"
)

// enteredCtx is a context that cancels itself the first time it is asked
// for its error after the device clock moved past t0 — once a statement
// has sent its first message to the device, that is after the call
// entered the engine.
type enteredCtx struct {
	context.Context
	cancel context.CancelFunc
	clock  *sim.Clock
	t0     time.Duration
}

func newEnteredCtx(t *testing.T, db *core.DB) *enteredCtx {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &enteredCtx{Context: ctx, cancel: cancel, clock: db.Clock(), t0: db.Clock().Now()}
}

func (c *enteredCtx) Err() error {
	if c.clock.Now() > c.t0 {
		c.cancel()
	}
	return c.Context.Err()
}

// driverEngine opens a database/sql handle on a fresh engine, pinned to
// one pooled connection, and returns the handle with that connection's
// session.
func driverEngine(t *testing.T, dsn string) (*sql.DB, *core.Session) {
	t.Helper()
	db, err := sql.Open("ghostdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.SetMaxOpenConns(1)
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var sess *core.Session
	if err := conn.Raw(func(dc any) error {
		sess = dc.(*driver.Conn).Session()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return db, sess
}

// TestCheckpointCancelAfterEntry cancels a CHECKPOINT only after it has
// entered the engine — its first device message — through the core door,
// database/sql's ExecContext and /v1/checkpoint, at one device and two.
// Each path returns the context error with the delta intact, and the
// next CHECKPOINT absorbs it.
func TestCheckpointCancelAfterEntry(t *testing.T) {
	// Doctor is a replicated dimension: deleting a row dirties every
	// device, engine 0 (whose clock enteredCtx watches) included.
	const dirty = `DELETE FROM Doctor WHERE DocID = 2`
	checkpoint, err := gsql.ParseScript(`CHECKPOINT`)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		paths := []struct {
			name string
			open func(t *testing.T) *core.DB
			// run executes one CHECKPOINT under ctx and reports its error.
			run func(t *testing.T, db *core.DB, ctx context.Context) error
		}{
			{"core", func(t *testing.T) *core.DB {
				db, err := core.Open(core.WithShards(shards))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				if err := db.ExecScript(hospitalDDL); err != nil {
					t.Fatal(err)
				}
				return db
			}, func(t *testing.T, db *core.DB, ctx context.Context) error {
				sess, err := db.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				_, err = sess.ExecContext(ctx, checkpoint, nil)
				return err
			}},
			{"database/sql", nil, nil},
			{"/v1/checkpoint", nil, nil},
		}
		var sqlDB *sql.DB
		paths[1].open = func(t *testing.T) *core.DB {
			var sess *core.Session
			sqlDB, sess = driverEngine(t, fmt.Sprintf("ghostdb://?shards=%d", shards))
			if _, err := sqlDB.Exec(hospitalDDL); err != nil {
				t.Fatal(err)
			}
			if err := sess.DB().EnsureBuilt(); err != nil {
				t.Fatal(err)
			}
			return sess.DB()
		}
		paths[1].run = func(t *testing.T, _ *core.DB, ctx context.Context) error {
			_, err := sqlDB.ExecContext(ctx, `CHECKPOINT`)
			return err
		}
		var srv *Server
		paths[2].open = func(t *testing.T) *core.DB {
			db := paths[0].open(t)
			var err error
			if srv, err = New(db, Config{}); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			return db
		}
		paths[2].run = func(t *testing.T, _ *core.DB, ctx context.Context) error {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/v1/checkpoint", nil).WithContext(ctx)
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code == http.StatusOK {
				return nil
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("%d %s: %v", rec.Code, rec.Body, err)
			}
			if rec.Code == statusClientClosedRequest && er.Kind == "canceled" {
				return fmt.Errorf("%s: %w", er.Error, context.Canceled)
			}
			return fmt.Errorf("%d %s: %s", rec.Code, er.Kind, er.Error)
		}

		for _, p := range paths {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, p.name), func(t *testing.T) {
				db := p.open(t)
				if _, err := db.Exec(dirty); err != nil {
					t.Fatal(err)
				}
				before := db.DeltaSummary()
				if before.Tombstones == 0 {
					t.Fatalf("delta before CHECKPOINT = %+v, want a tombstone", before)
				}
				ctx := newEnteredCtx(t, db)
				if err := p.run(t, db, ctx); !errors.Is(err, context.Canceled) {
					t.Fatalf("CHECKPOINT canceled after entry = %v, want context.Canceled", err)
				}
				if ctx.clock.Now() == ctx.t0 {
					t.Fatal("the CHECKPOINT never reached the device before it was canceled")
				}
				if after := db.DeltaSummary(); after != before {
					t.Fatalf("canceled CHECKPOINT moved the delta: %+v, was %+v", after, before)
				}
				if err := p.run(t, db, context.Background()); err != nil {
					t.Fatalf("CHECKPOINT after the canceled one: %v", err)
				}
				if s := db.DeltaSummary(); s.Tombstones != 0 || s.Checkpoints != before.Checkpoints+1 {
					t.Fatalf("delta after CHECKPOINT = %+v, want it absorbed", s)
				}
			})
		}
	}
}

// frontEndStep is one statement of TestFrontEndsAgree.
type frontEndStep struct {
	op   string // "exec", "query" or "checkpoint"
	sql  string
	args []any
}

// frontEndOutcome is what a front end answered to one step: result rows
// rendered as text, rows affected (or absorbed), and the error text.
type frontEndOutcome struct {
	Rows [][]string
	N    int64
	Err  string
}

// TestFrontEndsAgree runs one script — a staged load, queries with and
// without args, EXPLAIN, parameterized DELETE / UPDATE, failing
// statements, CHECKPOINT — through database/sql and through /v1/query,
// /v1/exec and /v1/checkpoint, each on a fresh database, and requires the
// same rows, rows affected, absorbed counts and errors, and the same
// plan-cache traffic on the one session each front end used.
func TestFrontEndsAgree(t *testing.T) {
	const (
		byPurpose  = `SELECT Doc.Name, Vis.VisID FROM Doctor Doc, Visit Vis WHERE Vis.DocID = Doc.DocID AND Vis.Purpose = ? ORDER BY Vis.VisID`
		setPurpose = `UPDATE Visit SET Purpose = ? WHERE VisID = ?`
		dropVisit  = `DELETE FROM Visit WHERE VisID = ?`
		allVisits  = `SELECT Vis.VisID, Vis.Date, Vis.Purpose FROM Visit Vis ORDER BY Vis.VisID`
	)
	steps := []frontEndStep{
		{op: "exec", sql: hospitalDDL},
		{op: "exec", sql: `INSERT INTO Visit VALUES (4, DATE '2007-03-03', ?, ?)`, args: []any{"Flu", 2}},
		{op: "query", sql: `SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`},
		{op: "query", sql: byPurpose, args: []any{"Checkup"}},
		{op: "query", sql: byPurpose, args: []any{"Sclerosis"}},
		{op: "query", sql: `EXPLAIN SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Checkup'`},
		{op: "exec", sql: setPurpose, args: []any{"Flu", 1}},
		{op: "exec", sql: setPurpose, args: []any{"Checkup", 2}},
		{op: "exec", sql: dropVisit, args: []any{3}},
		{op: "exec", sql: `UPDATE Visit SET Purpose = 'Sclerosis' WHERE VisID = 4`},
		{op: "query", sql: byPurpose, args: []any{"Flu"}},
		{op: "query", sql: allVisits},
		{op: "exec", sql: setPurpose, args: []any{"Flu"}},                                     // too few args
		{op: "exec", sql: `UPDATE Doctor SET Name = 'X' WHERE DocID = ?`, args: []any{"abc"}}, // cannot coerce
		{op: "query", sql: byPurpose, args: []any{"Flu", 2}},                                  // too many args
		{op: "query", sql: `SELEKT nonsense`},
		{op: "exec", sql: `DELETE FROM Ghost WHERE ID = 1`},
		{op: "checkpoint"},
		{op: "exec", sql: dropVisit, args: []any{1}},
		{op: "checkpoint"},
		{op: "query", sql: allVisits},
		{op: "query", sql: byPurpose, args: []any{"Checkup"}},
	}

	sqlDB, drvSess := driverEngine(t, "")
	viaDriver := func(st frontEndStep) frontEndOutcome {
		var out frontEndOutcome
		var err error
		switch st.op {
		case "exec", "checkpoint":
			text := st.sql
			if st.op == "checkpoint" {
				text = "CHECKPOINT"
			}
			var res sql.Result
			if res, err = sqlDB.Exec(text, st.args...); err == nil {
				out.N, err = res.RowsAffected()
			}
		case "query":
			var rows *sql.Rows
			if rows, err = sqlDB.Query(st.sql, st.args...); err == nil {
				out.Rows, err = scanText(rows)
			}
		}
		if err != nil {
			out.Err = err.Error()
		}
		return out
	}

	srv, base := newTestServer(t, Config{MaxInflight: 1})
	srvSess := srv.sessions[0]
	viaServer := func(st frontEndStep) frontEndOutcome {
		var out frontEndOutcome
		path := "/v1/" + st.op
		resp, raw := post(t, base, path, QueryRequest{SQL: st.sql, Args: st.args})
		if resp.StatusCode != http.StatusOK {
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("%s: %d %s", path, resp.StatusCode, raw)
			}
			out.Err = er.Error
			return out
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		switch st.op {
		case "exec":
			var r ExecResponse
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			out.N = r.RowsAffected
		case "checkpoint":
			var r CheckpointResponse
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			out.N = r.Absorbed
		case "query":
			var r struct{ Rows [][]any }
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			out.Rows = make([][]string, len(r.Rows))
			for i, row := range r.Rows {
				for _, v := range row {
					out.Rows[i] = append(out.Rows[i], fmt.Sprint(v))
				}
			}
		}
		return out
	}

	for i, st := range steps {
		d, s := viaDriver(st), viaServer(st)
		if !reflect.DeepEqual(d, s) {
			t.Fatalf("step %d %s %q %v:\ndatabase/sql = %+v\nserver       = %+v", i, st.op, st.sql, st.args, d, s)
		}
		if st.op == "query" && d.Err == "" && len(d.Rows) == 0 {
			t.Fatalf("step %d %q returned no rows on either front end; the script should see some", i, st.sql)
		}
	}
	dc, sc := drvSess.Stats().PlanCache, srvSess.Stats().PlanCache
	if dc != sc {
		t.Fatalf("session plan-cache traffic: database/sql %+v, server %+v", dc, sc)
	}
	// The repeated query and DML shapes compiled once and hit afterwards.
	if dc.Hits < 3 {
		t.Fatalf("session plan-cache traffic = %+v, want the repeated shapes to hit", dc)
	}
}

// scanText reads every row as text: dates as YYYY-MM-DD, the rest as
// fmt prints them — the rendering the wire's JSON values print as.
func scanText(rows *sql.Rows) ([][]string, error) {
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return nil, err
	}
	out := [][]string{}
	for rows.Next() {
		cells := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range cells {
			ptrs[i] = &cells[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			return nil, err
		}
		row := make([]string, len(cells))
		for i, c := range cells {
			if tm, ok := c.(time.Time); ok {
				row[i] = tm.Format(time.DateOnly)
			} else {
				row[i] = fmt.Sprint(c)
			}
		}
		out = append(out, row)
	}
	return out, rows.Err()
}

// TestUntypedFailureStatus pins the one status rule of the statement
// endpoints: a failure the engine types (bind, cancellation, device
// faults) answers its own status, and any other failure answers the
// endpoint's default — /v1/query 400 bad_request with or without args,
// /v1/exec 400 exec_failed, /v1/checkpoint 500 internal.
func TestUntypedFailureStatus(t *testing.T) {
	// A 4 KB device with one cache frame loads the hospital data (the
	// load is not charged to the device) but runs out of RAM joining it.
	tiny := device.SmartUSB2007().WithRAM(4 << 10)
	tiny.CacheFrames = 1
	const join = `SELECT Doc.Name, Vis.Purpose FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Doc.Country = 'France' AND Vis.Purpose = 'Checkup'`
	const joinArgs = `SELECT Doc.Name, Vis.Purpose FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Doc.Country = ? AND Vis.Purpose = ?`
	for _, c := range []struct {
		name   string
		opts   []core.Option
		load   bool
		path   string
		req    QueryRequest
		status int
		kind   string
	}{
		{"query runs out of device RAM", []core.Option{core.WithProfile(tiny)}, true,
			"/v1/query", QueryRequest{SQL: join}, http.StatusBadRequest, "bad_request"},
		{"query with args runs out of device RAM", []core.Option{core.WithProfile(tiny)}, true,
			"/v1/query", QueryRequest{SQL: joinArgs, Args: []any{"France", "Checkup"}}, http.StatusBadRequest, "bad_request"},
		{"query does not compile", nil, true,
			"/v1/query", QueryRequest{SQL: `SELECT Nope FROM Visit`}, http.StatusBadRequest, "bad_request"},
		{"query with args does not compile", nil, true,
			"/v1/query", QueryRequest{SQL: `SELECT Nope FROM Visit WHERE VisID = ?`, Args: []any{1}}, http.StatusBadRequest, "bad_request"},
		{"query args do not bind", nil, true,
			"/v1/query", QueryRequest{SQL: `SELECT Vis.VisID FROM Visit Vis WHERE Vis.VisID = ?`, Args: []any{"x"}}, http.StatusBadRequest, "bad_request"},
		{"query finalizes a load that cannot build", nil, false,
			"/v1/query", QueryRequest{SQL: `SELECT Vis.VisID FROM Visit Vis`}, http.StatusBadRequest, "bad_request"},
		{"exec literal does not bind to the schema", nil, true,
			"/v1/exec", QueryRequest{SQL: `UPDATE Doctor SET Name = 'X' WHERE DocID = 'abc'`}, http.StatusBadRequest, "exec_failed"},
		{"exec args do not bind", nil, true,
			"/v1/exec", QueryRequest{SQL: `UPDATE Doctor SET Name = 'X' WHERE DocID = ?`, Args: []any{"abc"}}, http.StatusBadRequest, "bad_request"},
		{"checkpoint finalizes a load that cannot build", nil, false,
			"/v1/checkpoint", QueryRequest{}, http.StatusInternalServerError, "internal"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, base := newTestServer(t, Config{}, c.opts...)
			if c.load {
				loadHospital(t, base)
			}
			resp, raw := post(t, base, c.path, c.req)
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("%d %s: %v", resp.StatusCode, raw, err)
			}
			if resp.StatusCode != c.status || er.Kind != c.kind {
				t.Fatalf("%s = %d %s (%s), want %d %s", c.path, resp.StatusCode, er.Kind, er.Error, c.status, c.kind)
			}
		})
	}
}
