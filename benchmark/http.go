package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/server"
	"github.com/ghostdb/ghostdb/internal/value"
)

// The three parameterised point lookups http_point cycles through.
var httpTemplates = []struct{ name, sql string }{
	// a visible dimension row by key
	{"doc_by_id", `SELECT Doc.DocID, Doc.Name, Doc.Country FROM Doctor Doc WHERE Doc.DocID = ?`},
	// hidden columns by key
	{"visit_by_id", `SELECT Vis.VisID, Vis.Purpose, Vis.DocID FROM Visit Vis WHERE Vis.VisID = ?`},
	// a hidden foreign-key equality, about ten rows
	{"pres_by_visit", `SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.VisID = ?`},
}

const (
	httpScale   = 50_000
	httpKeys    = 256 // keys per template; the request cycle is 3 × httpKeys long
	traceHeader = "X-Bench-Request"
)

// httpReq is one request of the cycle, body pre-encoded.
type httpReq struct {
	tmpl     int
	key      value.Value
	body     []byte
	wantRows int
	// wantDigest is the oracle's answer, known for the first
	// oracleSamples keys of each template (the oracle scans the whole
	// table per lookup); zero means only the row count is checked.
	wantDigest uint64
}

// httpPoint drives an in-process ghostdb-server over real loopback TCP
// with one closed-loop client on one keep-alive connection. The device
// pipeline does almost nothing per request, so what is measured is the
// per-request fixed cost: wire decode and encode, admission, plan-cache
// hit, bind.
//
// One client, not two: on the two-core sandbox a second client fills both
// cores with runnable goroutines, and what is measured then is their
// queueing for a core — p99 ran from 0.48 to 0.70 ms over six quiet runs,
// against 0.277 to 0.299 ms with one.
type httpPoint struct {
	cfg   config
	t     *tally
	ds    *datagen.Dataset
	cycle []httpReq

	db     *core.DB
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	tmplSim  map[string]time.Duration
	l        *layers
	inflight sync.Map // request id → *handlerTimes, traced runs only
	respB    atomic.Int64
	rejected atomic.Int64
	traced   atomic.Int64
}

// handlerTimes is how the server-side middleware hands its timestamps to
// the client goroutine that issued the request.
type handlerTimes struct{ start, end, bytes atomic.Int64 }

func newHTTPPoint(cfg config, t *tally) (*httpPoint, error) {
	if cfg.scale == 0 {
		cfg.scale = httpScale
	}
	w := &httpPoint{cfg: cfg, t: t, ds: genDataset(cfg.scale, cfg.seed)}
	rng := rand.New(rand.NewSource(cfg.seed))
	presPerVisit := make([]int, w.ds.Table("Visit").N+1)
	for _, v := range w.ds.Table("Prescription").Col("VisID") {
		presPerVisit[v.Int()]++
	}
	domain := []int{w.ds.Table("Doctor").N, w.ds.Table("Visit").N, w.ds.Table("Visit").N}
	for j := 0; j < httpKeys; j++ {
		for tmpl := range httpTemplates {
			k := 1 + rng.Intn(domain[tmpl])
			body, err := json.Marshal(server.QueryRequest{SQL: httpTemplates[tmpl].sql, Args: []any{k}})
			if err != nil {
				return nil, err
			}
			want := 1
			if tmpl == 2 {
				want = presPerVisit[k]
			}
			w.cycle = append(w.cycle, httpReq{tmpl: tmpl, key: value.NewInt(int64(k)), body: body, wantRows: want})
		}
	}
	return w, w.expect()
}

// expect asks the oracle for the first few lookups of each template.
func (w *httpPoint) expect() error {
	orc, err := refOracle(w.ds)
	if err != nil {
		return err
	}
	byText := map[string]*httpReq{}
	var texts []string
	for i := 0; i < oracleSamples*len(httpTemplates) && i < len(w.cycle); i++ {
		r := &w.cycle[i]
		text := literalSQL(httpTemplates[r.tmpl].sql, []value.Value{r.key})
		byText[text] = r
		texts = append(texts, text)
	}
	return oracleAnswers(orc, texts, func(text string, rows [][]value.Value) {
		r := byText[text]
		r.wantDigest = digestRows(rows)
		w.t.check(len(rows) == r.wantRows, "http_point: oracle has %d rows for %s, the generated columns say %d", len(rows), text, r.wantRows)
	})
}

func (w *httpPoint) tailPercentile() float64 { return 99 }

func (w *httpPoint) simByTemplate() map[string]time.Duration { return w.tmplSim }

func (w *httpPoint) setup() error {
	db, err := buildDB(w.ds)
	if err != nil {
		return err
	}
	srv, err := server.New(db, server.Config{MaxInflight: 64})
	if err != nil {
		db.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		db.Close()
		return err
	}
	h := srv.Handler()
	if w.cfg.trace {
		h = w.middleware(h)
	}
	w.db, w.srv, w.hs = db, srv, &http.Server{Handler: h}
	w.served = make(chan error, 1) // one send, so Serve's goroutine never blocks on exit
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/query"
	w.client = &http.Client{Transport: &http.Transport{}}
	w.l = newLayers()
	return nil
}

// queryReply is the part of server.QueryResponse the client needs.
type queryReply struct {
	Rows   [][]any `json:"rows"`
	SimNS  int64   `json:"sim_ns"`
	WallNS int64   `json:"wall_ns"`
}

// countedReply skips decoding the row values: inside the measured phase
// only the row count is checked.
type countedReply struct {
	Rows   []json.RawMessage `json:"rows"`
	SimNS  int64             `json:"sim_ns"`
	WallNS int64             `json:"wall_ns"`
}

// post sends one request and decodes a 200 reply into out. Any other
// status is an error; a 429 is also counted as a refusal.
func (w *httpPoint) post(r *httpReq, requestID string, out any) error {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set(traceHeader, requestID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusTooManyRequests {
			w.rejected.Add(1)
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best effort: the status is the error
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(out); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
	return err
}

// digestJSON hashes decoded wire rows the way digestRows hashes engine
// rows: integers in decimal, dates as YYYY-MM-DD, strings verbatim.
func digestJSON(rows [][]any) uint64 {
	h := fnv.New64a()
	for _, row := range rows {
		for _, v := range row {
			switch v := v.(type) {
			case json.Number:
				h.Write([]byte(v.String()))
			case string:
				h.Write([]byte(v))
			default:
				fmt.Fprint(h, v)
			}
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{0x1e})
	}
	return h.Sum64()
}

// sequential sends the whole cycle once over one connection, checking
// each reply in full, and returns the simulated time per template.
func (w *httpPoint) sequential() map[string]time.Duration {
	sim := map[string]time.Duration{}
	for i := range w.cycle {
		r := &w.cycle[i]
		name := httpTemplates[r.tmpl].name
		var reply queryReply
		err := w.post(r, "", &reply)
		if !w.t.check(err == nil, "http_point: %s(%s): %v", name, r.key, err) {
			continue
		}
		sim[name] += time.Duration(reply.SimNS)
		got := digestJSON(reply.Rows)
		w.t.check(len(reply.Rows) == r.wantRows && (r.wantDigest == 0 || got == r.wantDigest),
			"http_point: %s(%s): %d rows digest %x, want %d rows digest %x", name, r.key, len(reply.Rows), got, r.wantRows, r.wantDigest)
	}
	return sim
}

func (w *httpPoint) warmup() (float64, error) {
	w.sequential() // first contact: optimizer probes, plan cache, connection
	w.tmplSim = w.sequential()
	var total time.Duration
	for _, d := range w.tmplSim {
		total += d
	}
	return ms(total) / float64(len(w.cycle)), nil
}

// A request is the op, one walk of the cycle the unit.
func (w *httpPoint) opsPerUnit() int { return len(w.cycle) }

// measure is the closed loop: the next request leaves only after the
// previous reply has been read. It walks whole cycles.
func (w *httpPoint) measure(d time.Duration, tr *tracer) (opMs, unitMs []float64) {
	deadline := time.Now().Add(d)
	for len(unitMs) == 0 || time.Now().Before(deadline) {
		walk := time.Now()
		for i := range w.cycle {
			opMs = append(opMs, w.request(&w.cycle[i], tr))
		}
		unitMs = append(unitMs, ms(time.Since(walk)))
	}
	return opMs, unitMs
}

// request sends one request of the measured phase, checks its row count
// and returns its wall time in milliseconds.
func (w *httpPoint) request(r *httpReq, tr *tracer) float64 {
	var reply countedReply
	var request int64
	var requestID string
	var ht *handlerTimes
	if tr != nil {
		request = tr.newID()
		requestID = strconv.FormatInt(request, 10)
		ht = &handlerTimes{}
		w.inflight.Store(requestID, ht)
	}
	start := time.Now()
	err := w.post(r, requestID, &reply)
	end := time.Now()
	name := httpTemplates[r.tmpl].name
	if w.t.check(err == nil, "http_point: %s(%s): %v", name, r.key, err) {
		w.t.check(len(reply.Rows) == r.wantRows, "http_point: %s(%s): %d rows, want %d", name, r.key, len(reply.Rows), r.wantRows)
	}
	if tr != nil {
		w.inflight.Delete(requestID)
		if err == nil {
			w.recordRequest(tr, request, ht, start, end, time.Duration(reply.WallNS))
		}
	}
	return ms(end.Sub(start))
}

// recordRequest writes the three spans of one traced request: the
// client's round trip, the handler inside it, and the engine inside
// that. The engine's span is synthesised from the wall_ns the response
// itself carries (the handler is code this benchmark may not edit), and
// centred in the handler's interval.
func (w *httpPoint) recordRequest(tr *tracer, request int64, ht *handlerTimes, start, end time.Time, engine time.Duration) {
	root, handler, query := tr.newID(), tr.newID(), tr.newID()
	tr.record(root, 0, request, "net.request", start, end)
	hStart, hEnd := time.Unix(0, ht.start.Load()), time.Unix(0, ht.end.Load())
	tr.record(handler, root, request, "server.handler", hStart, hEnd)
	qStart := hStart.Add((hEnd.Sub(hStart) - engine) / 2)
	tr.record(query, handler, request, "core.query", qStart, qStart.Add(engine))
	w.respB.Add(ht.bytes.Load())
	w.traced.Add(1)
}

// middleware times the server's handler from outside and counts the
// response bytes. Installed in traced runs only.
func (w *httpPoint) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		v, ok := w.inflight.Load(r.Header.Get(traceHeader))
		if !ok {
			next.ServeHTTP(rw, r)
			return
		}
		ht := v.(*handlerTimes)
		cw := &countingWriter{ResponseWriter: rw}
		start := time.Now()
		next.ServeHTTP(cw, r)
		ht.bytes.Store(cw.n)
		ht.start.Store(start.UnixNano())
		ht.end.Store(time.Now().UnixNano())
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (w *httpPoint) finish(tr *tracer) error {
	w.sequential()
	var err error
	if tr != nil {
		err = w.replay(tr)
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := w.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-w.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	if cerr := w.db.Close(); err == nil {
		err = cerr
	}
	w.db, w.srv, w.hs = nil, nil, nil
	return err
}

// replay runs the cycle once more in-process, decomposed at the engine's
// layer boundaries: the wire carries only sim_ns and wall_ns, so the
// parse / plan-cache / bind split and the device counters of these same
// queries are read here.
func (w *httpPoint) replay(tr *tracer) error {
	sess, err := w.db.NewSession()
	if err != nil {
		return err
	}
	defer sess.Close()
	for i := range w.cycle {
		r := &w.cycle[i]
		request, root, start := tr.newID(), tr.newID(), time.Now()
		res, _, err := tracedQuery(tr, w.l, sess, root, request, httpTemplates[r.tmpl].sql, []value.Value{r.key})
		tr.record(root, 0, request, "inproc.query", start, time.Now())
		if w.t.check(err == nil, "http_point: replay %s: %v", httpTemplates[r.tmpl].name, err) {
			w.t.check(len(res.Rows) == r.wantRows, "http_point: replay %s: %d rows, want %d", httpTemplates[r.tmpl].name, len(res.Rows), r.wantRows)
		}
	}
	return nil
}

func (w *httpPoint) layerMetrics(tr *tracer, m metrics) {
	w.l.emit(m, float64(len(w.cycle)))
	lt := groupSpans(tr.spans)
	m["server.handler_p50_us"] = p50us(lt.dur["server.handler"])
	m["server.self_p50_us"] = p50us(lt.self["server.handler"])
	m["net.self_p50_us"] = p50us(lt.self["net.request"])
	if n := w.traced.Load(); n > 0 {
		m["server.resp_bytes_per_op"] = float64(w.respB.Load()) / float64(n)
	}
	m["server.rejected"] = float64(w.rejected.Load())
	lt.emitQueryStages(m)
}
