package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/fault"
)

const hospitalDDL = `
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`

// newTestServer boots an engine + Server + httptest listener. The
// caller gets the base URL and the Server for metric assertions.
func newTestServer(t *testing.T, cfg Config, opts ...core.Option) (*Server, string) {
	t.Helper()
	db, err := core.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, cfg)
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		db.Close()
	})
	return srv, ts.URL
}

func post(t *testing.T, base, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp, raw
}

func loadHospital(t *testing.T, base string) {
	t.Helper()
	resp, raw := post(t, base, "/v1/exec", QueryRequest{SQL: hospitalDDL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exec DDL: status %d: %s", resp.StatusCode, raw)
	}
}

// TestQueryRoundTrip is the wire acceptance path: DDL + data over
// /v1/exec, then parameterless and parameterized SELECTs over /v1/query
// with typed rows coming back.
func TestQueryRoundTrip(t *testing.T) {
	_, base := newTestServer(t, Config{})
	loadHospital(t, base)

	resp, raw := post(t, base, "/v1/query", QueryRequest{
		SQL: `SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatalf("query response is not JSON: %v\n%s", err, raw)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %v, want 2 sclerosis visits", qr.Rows)
	}
	if len(qr.Columns) != 2 || qr.Columns[0] != "Visit.VisID" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	if len(qr.Types) != 2 || qr.Types[0] != "INTEGER" || qr.Types[1] != "DATE" {
		t.Fatalf("types = %v, want [INTEGER DATE]", qr.Types)
	}
	if qr.Rows[0][1] != "2006-11-20" {
		t.Fatalf("date rendered as %v, want 2006-11-20", qr.Rows[0][1])
	}
	if qr.SimNS <= 0 || qr.WallNS <= 0 {
		t.Fatalf("sim_ns = %d, wall_ns = %d, want both > 0", qr.SimNS, qr.WallNS)
	}

	// Placeholder args: integer and string, bound server-side.
	resp, raw = post(t, base, "/v1/query", QueryRequest{
		SQL:  `SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = ? AND Doc.Country = ?`,
		Args: []any{2, "Spain"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("parameterized query: status %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] != "Gall" {
		t.Fatalf("rows = %v, want [[Gall]]", qr.Rows)
	}

	// EXPLAIN rides the same endpoint.
	resp, raw = post(t, base, "/v1/query", QueryRequest{
		SQL: `EXPLAIN SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Checkup'`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("plan")) {
		t.Fatalf("explain output lacks a plan:\n%s", raw)
	}
}

// TestExecCheckpointSchema covers live DML, the checkpoint endpoint and
// the schema view.
func TestExecCheckpointSchema(t *testing.T) {
	_, base := newTestServer(t, Config{})
	loadHospital(t, base)

	// Force the bulk build first so the INSERT below is live DML (a
	// delta row the checkpoint can absorb) rather than more staging.
	if resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.DocID FROM Doctor Doc`}); resp.StatusCode != http.StatusOK {
		t.Fatalf("build query: %d %s", resp.StatusCode, raw)
	}

	resp, raw := post(t, base, "/v1/exec", QueryRequest{
		SQL:  `INSERT INTO Doctor VALUES (?, ?, ?)`,
		Args: []any{3, "Okafor", "Nigeria"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: status %d: %s", resp.StatusCode, raw)
	}
	var er ExecResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.RowsAffected != 1 {
		t.Fatalf("exec response = %s (%v), want rows_affected 1", raw, err)
	}

	resp, raw = post(t, base, "/v1/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d: %s", resp.StatusCode, raw)
	}
	var cr CheckpointResponse
	if err := json.Unmarshal(raw, &cr); err != nil || cr.Absorbed != 1 {
		t.Fatalf("checkpoint response = %s (%v), want absorbed 1", raw, err)
	}

	resp, err := http.Get(base + "/v1/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SchemaResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Loaded || len(sr.Tables) != 2 {
		t.Fatalf("schema = %+v, want loaded with 2 tables", sr)
	}
	var hidden int
	for _, tb := range sr.Tables {
		for _, c := range tb.Columns {
			if c.Hidden {
				hidden++
			}
		}
	}
	if hidden != 2 {
		t.Fatalf("hidden columns = %d, want 2 (Purpose, Visit.DocID)", hidden)
	}
}

// TestWireValidation pins the 4xx surface: malformed JSON, missing SQL,
// null args, arity mismatches, SELECT on /v1/exec, wrong method.
func TestWireValidation(t *testing.T) {
	_, base := newTestServer(t, Config{})
	loadHospital(t, base)

	check := func(status int, kind string, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.StatusCode != status {
			t.Fatalf("status = %d, want %d: %s", resp.StatusCode, status, raw)
		}
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Kind != kind {
			t.Fatalf("error = %s (%v), want kind %q", raw, err, kind)
		}
	}

	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	check(http.StatusBadRequest, "bad_request", resp, raw)

	resp2, raw := post(t, base, "/v1/query", QueryRequest{SQL: "   "})
	check(http.StatusBadRequest, "bad_request", resp2, raw)

	resp2, raw = post(t, base, "/v1/query", QueryRequest{
		SQL: `SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = ?`, Args: []any{nil},
	})
	check(http.StatusBadRequest, "bad_request", resp2, raw)

	resp2, raw = post(t, base, "/v1/query", QueryRequest{
		SQL: `SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = ?`, Args: []any{1, 2},
	})
	check(http.StatusBadRequest, "bad_request", resp2, raw)

	resp2, raw = post(t, base, "/v1/query", QueryRequest{SQL: `SELEKT nonsense`})
	check(http.StatusBadRequest, "bad_request", resp2, raw)

	resp2, raw = post(t, base, "/v1/exec", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
	check(http.StatusBadRequest, "bad_request", resp2, raw)
	if !bytes.Contains(raw, []byte("/v1/query")) {
		t.Fatalf("SELECT-on-exec error should redirect to /v1/query: %s", raw)
	}

	// Method mismatch: the Go 1.22 mux answers 405 itself.
	resp3, err := http.Get(base + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query = %d, want 405", resp3.StatusCode)
	}
}

// TestWrongTypedArgumentIs400 is the regression for /v1/query answering
// 500 "internal" to an argument its column cannot take: a bind failure
// is the client's mistake on both endpoints — the same typed bind error
// through the one exec and query door — and the engine stays serviceable
// afterwards.
func TestWrongTypedArgumentIs400(t *testing.T) {
	_, base := newTestServer(t, Config{})
	loadHospital(t, base)

	const sel = `SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = ?`
	for _, c := range []struct{ path, sql, kind string }{
		{"/v1/query", sel, "bad_request"},
		{"/v1/exec", `UPDATE Doctor SET Name = 'X' WHERE DocID = ?`, "bad_request"},
	} {
		resp, raw := post(t, base, c.path, QueryRequest{SQL: c.sql, Args: []any{"abc"}})
		var er ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			t.Fatalf("%s: %s (%v)", c.path, raw, err)
		}
		if resp.StatusCode != http.StatusBadRequest || er.Kind != c.kind {
			t.Fatalf("%s with a CHAR argument for an INTEGER column = %d %s, want 400 %s", c.path, resp.StatusCode, raw, c.kind)
		}
		if !strings.Contains(er.Error, "coerce") {
			t.Fatalf("%s: error %q does not name the coercion", c.path, er.Error)
		}
	}

	resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: sel, Args: []any{2}})
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil || resp.StatusCode != http.StatusOK || len(qr.Rows) != 1 {
		t.Fatalf("well-typed argument after the rejected one = %d %s", resp.StatusCode, raw)
	}
}

// TestSaturation429 fills the single admission slot with a hook-blocked
// query and checks the next request bounces with 429 + Retry-After
// instead of queueing, then that the slot's release restores service.
func TestSaturation429(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hooked bool
	srv, base := newTestServer(t,
		Config{MaxInflight: 1, RetryAfter: 1500 * time.Millisecond},
		core.WithQueryHook(func(ev core.QueryEvent) {
			if ev.Phase == core.QueryStart && !hooked {
				hooked = true
				close(entered)
				<-release
			}
		}))
	loadHospital(t, base)

	first := make(chan int, 1)
	go func() {
		resp, _ := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
		first <- resp.StatusCode
	}()
	<-entered

	resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429: %s", resp.StatusCode, raw)
	}
	// 1500ms must round UP to 2s: a 0s hint would mean "hammer away".
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "saturated" {
		t.Fatalf("429 body = %s (%v), want kind saturated", raw, err)
	}

	close(release)
	if st := <-first; st != http.StatusOK {
		t.Fatalf("blocked request finished with %d, want 200", st)
	}
	if v, ok := srv.MetricsSnapshot().Get("http_rejected_total"); !ok || v.Value != 1 {
		t.Fatalf("http_rejected_total = %+v, want 1", v)
	}

	resp2, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200: %s", resp2.StatusCode, raw)
	}
}

// TestQueueWaitAdmits checks the bounded queue: with QueueWait set, a
// request arriving at saturation waits for the slot instead of bouncing.
func TestQueueWaitAdmits(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hooked bool
	_, base := newTestServer(t,
		Config{MaxInflight: 1, QueueWait: 30 * time.Second},
		core.WithQueryHook(func(ev core.QueryEvent) {
			if ev.Phase == core.QueryStart && !hooked {
				hooked = true
				close(entered)
				<-release
			}
		}))
	loadHospital(t, base)

	first := make(chan int, 1)
	go func() {
		resp, _ := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
		first <- resp.StatusCode
	}()
	<-entered
	second := make(chan int, 1)
	go func() {
		resp, _ := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Country FROM Doctor Doc`})
		second <- resp.StatusCode
	}()
	// The second request is now parked on the pool; release the slot.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if st := <-first; st != http.StatusOK {
		t.Fatalf("first = %d, want 200", st)
	}
	if st := <-second; st != http.StatusOK {
		t.Fatalf("queued request = %d, want 200", st)
	}
}

// TestClientDisconnectCancels checks deadline propagation: the client
// goes away while its query is hook-blocked, and when the engine
// resumes it sees the canceled context and abandons the work — counted
// by both the engine and the HTTP layer.
func TestClientDisconnectCancels(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hooked bool
	srv, base := newTestServer(t, Config{},
		core.WithQueryHook(func(ev core.QueryEvent) {
			if ev.Phase == core.QueryStart && !hooked {
				hooked = true
				close(entered)
				<-release
			}
		}))
	loadHospital(t, base)

	ctx, cancel := context.WithCancel(context.Background())
	body := bytes.NewReader([]byte(`{"sql": "SELECT Doc.Name FROM Doctor Doc"}`))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/query", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; err == nil {
		t.Fatal("canceled request returned without error")
	}
	// The server's background reader needs a moment to see the FIN and
	// cancel the request context; release the hook only afterwards so
	// the engine deterministically resumes into a canceled context.
	time.Sleep(500 * time.Millisecond)
	close(release)

	// The handler finishes asynchronously after the disconnect; poll the
	// canceled counter instead of racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := srv.MetricsSnapshot().Get("http_canceled_total"); ok && v.Value >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("http_canceled_total never incremented after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v, ok := srv.DB().MetricsSnapshot().Get("queries_canceled_total"); !ok || v.Value < 1 {
		t.Fatalf("engine queries_canceled_total = %+v, want >= 1", v)
	}
}

// TestRequestTimeout checks the per-request deadline: a hook-blocked
// query overruns RequestTimeout and comes back 504.
func TestRequestTimeout(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var hooked bool
	_, base := newTestServer(t,
		Config{RequestTimeout: 30 * time.Millisecond},
		core.WithQueryHook(func(ev core.QueryEvent) {
			if ev.Phase == core.QueryStart && !hooked {
				hooked = true
				close(entered)
				<-release
			}
		}))
	loadHospital(t, base)

	type result struct {
		status int
		kind   string
	}
	got := make(chan result, 1)
	go func() {
		resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`})
		var er ErrorResponse
		json.Unmarshal(raw, &er)
		got <- result{resp.StatusCode, er.Kind}
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // let the deadline lapse while blocked
	close(release)
	r := <-got
	if r.status != http.StatusGatewayTimeout || r.kind != "timeout" {
		t.Fatalf("timed-out request = %+v, want 504/timeout", r)
	}
}

// TestEngineErrorMapping pins writeEngineError's full status table with
// synthetic errors.
func TestEngineErrorMapping(t *testing.T) {
	db, err := core.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db, Config{RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cases := []struct {
		err        error
		status     int
		kind       string
		retryAfter string
	}{
		{context.Canceled, statusClientClosedRequest, "canceled", ""},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "timeout", ""},
		{fmt.Errorf("flash: %w", fault.ErrDeviceDead), http.StatusInternalServerError, "device_dead", ""},
		{fmt.Errorf("flash: %w", fault.ErrTransient), http.StatusServiceUnavailable, "transient", "2"},
		{fmt.Errorf("flash: %w", fault.ErrPermanent), http.StatusInternalServerError, "fatal", ""},
		{errors.New("anything else"), http.StatusBadRequest, "bad_request", ""},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		srv.writeEngineError(rec, c.err, "bad_request", http.StatusBadRequest)
		if rec.Code != c.status {
			t.Errorf("%v: status = %d, want %d", c.err, rec.Code, c.status)
		}
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Kind != c.kind {
			t.Errorf("%v: body = %s (%v), want kind %q", c.err, rec.Body.Bytes(), err, c.kind)
		}
		if ra := rec.Header().Get("Retry-After"); ra != c.retryAfter {
			t.Errorf("%v: Retry-After = %q, want %q", c.err, ra, c.retryAfter)
		}
	}
}

// TestDeadDeviceSurfaces pins the fault path end to end: a power cut on
// the first device op kills the engine; the query answers 500 with kind
// device_dead and /healthz flips to 503.
func TestDeadDeviceSurfaces(t *testing.T) {
	plan, err := fault.ParsePlan("cutop=1")
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Config{}, core.WithFaultPlan(plan))
	loadHospital(t, base)

	resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Vis.VisID FROM Visit Vis WHERE Vis.VisID > 0`})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("dead-device query status = %d: %s", resp.StatusCode, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "device_dead" {
		t.Fatalf("dead-device body = %s (%v), want kind device_dead", raw, err)
	}

	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after power cut = %d, want 503", hr.StatusCode)
	}
}

// TestDeadShardSurfaces is TestDeadDeviceSurfaces on four devices: a
// power cut on shard 1 fails the query that needs it with device_dead,
// and /healthz answers 503 naming the shard — a sharded database reports
// a dead device like a single one.
func TestDeadShardSurfaces(t *testing.T) {
	plan, err := fault.ParsePlan("cutop=1,shard=1")
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Config{}, core.WithShards(4), core.WithFaultPlan(plan))
	loadHospital(t, base)

	resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Vis.VisID FROM Visit Vis WHERE Vis.VisID > 0`})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("dead-shard query status = %d: %s", resp.StatusCode, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || er.Kind != "device_dead" {
		t.Fatalf("dead-shard body = %s (%v), want kind device_dead", raw, err)
	}

	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "shard 1") {
		t.Fatalf("healthz after shard 1's power cut = %d %s, want 503 naming shard 1", hr.StatusCode, body)
	}
}

// TestGracefulDrain is the shutdown acceptance test: Shutdown returns
// only after the hook-blocked in-flight request completes with 200 — no
// in-flight request is aborted.
func TestGracefulDrain(t *testing.T) {
	hook, blockerEntered, blockerRelease := queryBlocker()
	db, err := core.Open(core.WithQueryHook(hook))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(hospitalDDL); err != nil {
		t.Fatal(err)
	}
	srv, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// The client reports over a channel rather than failing the test from
	// its own goroutine, which may outlive a failed test.
	type outcome struct {
		status int
		err    error
	}
	first := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(`{"sql":"SELECT Doc.Name FROM Doctor Doc"}`))
		if err != nil {
			first <- outcome{err: err}
			return
		}
		resp.Body.Close()
		first <- outcome{status: resp.StatusCode}
	}()
	<-blockerEntered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight request, not race past it.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(blockerRelease)
	if got := <-first; got.err != nil || got.status != http.StatusOK {
		t.Fatalf("in-flight request during shutdown = %d, %v; want 200", got.status, got.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("serve error = %v", err)
	}

	// After Server.Close, direct handler calls answer 503 shutdown.
	srv.Close()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"sql":"SELECT Doc.Name FROM Doctor Doc"}`))
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close request = %d, want 503", rec.Code)
	}
}

// queryBlocker returns a hook that blocks the first query to start, and
// the channels that say it has entered and let it go. Each call has its
// own channels, so the drain test can run any number of times in one
// test binary.
func queryBlocker() (hook core.QueryHook, entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var hooked bool
	hook = func(ev core.QueryEvent) {
		if ev.Phase == core.QueryStart && !hooked {
			hooked = true
			close(entered)
			<-release
		}
	}
	return hook, entered, release
}

// TestShardedFaultyServer drives the server over a sharded engine with
// a light transient-fault plan: every request must still answer 200,
// the retries staying below the wire.
func TestShardedFaultyServer(t *testing.T) {
	plan, err := fault.ParsePlan("seed=7,read.transient=0.001")
	if err != nil {
		t.Fatal(err)
	}
	_, base := newTestServer(t, Config{MaxInflight: 4},
		core.WithShards(2), core.WithFaultPlan(plan))
	loadHospital(t, base)

	for i := 0; i < 25; i++ {
		resp, raw := post(t, base, "/v1/query", QueryRequest{
			SQL:  `SELECT Vis.VisID FROM Visit Vis WHERE Vis.VisID = ?`,
			Args: []any{i%3 + 1},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, raw := post(t, base, "/v1/query", QueryRequest{
		SQL: `SELECT COUNT(*) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter-gather over faults: status %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] != float64(2) {
		t.Fatalf("sharded COUNT rows = %v, want [[2]]", qr.Rows)
	}
}

// TestMetricsSurfaces checks the merged observability endpoints: the
// server section in /debug/vars and the ghostdb_server_* exposition.
func TestMetricsSurfaces(t *testing.T) {
	srv, base := newTestServer(t, Config{})
	loadHospital(t, base)
	if resp, raw := post(t, base, "/v1/query", QueryRequest{SQL: `SELECT Doc.Name FROM Doctor Doc`}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, raw)
	}

	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Server map[string]json.RawMessage `json:"server"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Server["http_requests_total"]; !ok {
		t.Fatalf("/debug/vars server section = %v, want http_requests_total", doc.Server)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ghostdb_server_http_requests_total",
		"ghostdb_server_http_request_wall_ns_bucket",
		"ghostdb_queries_total",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The engine section is the debug handler's /metrics, byte for byte.
	rec := httptest.NewRecorder()
	ghostdb.DebugHandler(srv.db).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if engine := rec.Body.String(); !strings.HasPrefix(string(prom), engine) {
		t.Errorf("/metrics does not open with the engine section DebugHandler serves:\n%s", engine)
	}
}
