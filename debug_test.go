package ghostdb_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb"
)

func openDebugDB(t *testing.T, opts ...ghostdb.Option) *ghostdb.DB {
	t.Helper()
	db, err := ghostdb.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	err = db.ExecScript(`
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
`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestServeDebug boots the debug endpoint on an ephemeral port and
// checks both exposition formats against a live engine.
func TestServeDebug(t *testing.T) {
	db := openDebugDB(t)
	// One hidden and one visible predicate: the visible one is answered
	// from the public store's column index.
	if _, err := db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis' AND Vis.Date > DATE '2006-06-01'`); err != nil {
		t.Fatal(err)
	}
	// One CHECKPOINT, so its phase histograms carry a sample each.
	if _, err := db.Exec(`DELETE FROM Visit WHERE VisID = 1; CHECKPOINT`); err != nil {
		t.Fatal(err)
	}

	addr, stop, err := ghostdb.ServeDebug("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) (string, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/debug/vars")
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/debug/vars content type = %q", ctype)
	}
	var doc struct {
		Metrics   map[string]json.RawMessage   `json:"metrics"`
		PlanCache struct{ Hits, Misses int64 } `json:"plan_cache"`
		Sessions  int                          `json:"sessions"`
		Loaded    bool                         `json:"loaded"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if !doc.Loaded {
		t.Fatal("/debug/vars reports loaded=false after a query")
	}
	var queries int64
	if err := json.Unmarshal(doc.Metrics["queries_total"], &queries); err != nil || queries != 1 {
		t.Fatalf("queries_total = %s (%v), want 1", doc.Metrics["queries_total"], err)
	}
	if _, ok := doc.Metrics["query_wall_ns"]; !ok {
		t.Fatalf("metrics lack query_wall_ns:\n%s", body)
	}
	if got := string(doc.Metrics["visible_selects_indexed_total"]); got == "" || got == "0" {
		t.Fatalf("visible_selects_indexed_total = %q, want the Date predicate counted", got)
	}
	if got := string(doc.Metrics["visible_selects_scanned_total"]); got != "0" {
		t.Fatalf("visible_selects_scanned_total = %q, want 0", got)
	}
	for _, phase := range []string{"checkpoint_wall_ns", "checkpoint_prepare_wall_ns", "checkpoint_rebuild_wall_ns", "checkpoint_commit_wall_ns"} {
		var h struct{ Count int64 }
		if err := json.Unmarshal(doc.Metrics[phase], &h); err != nil || h.Count != 1 {
			t.Fatalf("%s = %s (%v), want one sample", phase, doc.Metrics[phase], err)
		}
	}

	prom, ctype := get("/metrics")
	if !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE ghostdb_queries_total counter",
		"ghostdb_queries_total 1",
		"# TYPE ghostdb_query_wall_ns histogram",
		"ghostdb_query_wall_ns_bucket{le=\"+Inf\"} 1",
		"# TYPE ghostdb_visible_selects_indexed_total counter",
		"ghostdb_visible_selects_scanned_total 0",
		"ghostdb_checkpoint_prepare_wall_ns_bucket{le=\"+Inf\"} 1",
		"ghostdb_checkpoint_rebuild_wall_ns_bucket{le=\"+Inf\"} 1",
		"ghostdb_checkpoint_rebuild_climbing_wall_ns_bucket{le=\"+Inf\"} 1",
		"ghostdb_checkpoint_commit_wall_ns_bucket{le=\"+Inf\"} 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestServeDebugSharded pins the per-shard monitoring surfaces: a
// sharded DB reports a "shards" array in /debug/vars and one prefixed
// registry per shard in the Prometheus exposition.
func TestServeDebugSharded(t *testing.T) {
	db := openDebugDB(t, ghostdb.WithShards(2))
	// One query per route: a scatter, a root-key lookup that contacts one
	// shard, a dimension-rooted query answered by one replica.
	for _, q := range []string{
		`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`,
		`SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.VisID = 2`,
		`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'Spain'`,
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}

	addr, stop, err := ghostdb.ServeDebug("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	get := func(path string) string {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(body)
	}

	var doc struct {
		Shards       []ghostdb.ShardInfo        `json:"shards"`
		ShardMetrics []json.RawMessage          `json:"shard_metrics"`
		Metrics      map[string]json.RawMessage `json:"metrics"`
	}
	body := get("/debug/vars")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	if len(doc.Shards) != 2 || len(doc.ShardMetrics) != 2 {
		t.Fatalf("shards = %d entries, shard_metrics = %d, want 2 each\n%s",
			len(doc.Shards), len(doc.ShardMetrics), body)
	}
	rows := 0
	for i, si := range doc.Shards {
		if si.Shard != i {
			t.Fatalf("shard %d reports Shard=%d", i, si.Shard)
		}
		rows += si.RootRows
	}
	if rows != 3 {
		t.Fatalf("root rows over shards = %d, want 3", rows)
	}

	for name, want := range map[string]string{
		`shard_route_total{route="pruned"}`:  "1",
		`shard_route_total{route="scatter"}`: "1",
		`shard_route_total{route="replica"}`: "1",
	} {
		if got := string(doc.Metrics[name]); got != want {
			t.Errorf("/debug/vars metrics[%s] = %q, want %s", name, got, want)
		}
	}
	if _, ok := doc.Metrics["shards_contacted"]; !ok {
		t.Errorf("/debug/vars metrics lack shards_contacted:\n%s", body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"ghostdb_queries_total 3",
		"ghostdb_shard0_flash_page_reads_total",
		"ghostdb_shard1_flash_page_reads_total",
		"# TYPE ghostdb_shard_route_total counter",
		`ghostdb_shard_route_total{route="pruned"} 1`,
		`ghostdb_shard_route_total{route="scatter"} 1`,
		`ghostdb_shard_route_total{route="replica"} 1`,
		"ghostdb_shards_contacted_sum 4", // 2 + 1 + 1
		"ghostdb_shards_contacted_count 3",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%s", want, prom)
		}
	}
}

// TestPublicObservabilityAPI exercises the re-exported hooks, EXPLAIN
// ANALYZE and snapshot surfaces through the façade.
func TestPublicObservabilityAPI(t *testing.T) {
	var finishes int
	db, err := ghostdb.Open(
		ghostdb.WithQueryHook(func(ev ghostdb.QueryEvent) {
			if ev.Phase == ghostdb.QueryFinish {
				finishes++
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(`
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
`); err != nil {
		t.Fatal(err)
	}

	a, err := db.ExplainAnalyze(`SELECT Doc.DocID FROM Doctor Doc WHERE Doc.Country = 'France'`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result == nil || a.Result.Report.ResultRows != 1 || len(a.Ops) == 0 {
		t.Fatalf("analysis = %+v", a)
	}
	if finishes != 1 {
		t.Fatalf("finish hooks = %d, want 1", finishes)
	}
	var snap ghostdb.MetricsSnapshot = db.MetricsSnapshot()
	if v, ok := snap.Get("queries_total"); !ok || v.Value != 1 {
		t.Fatalf("queries_total = %+v", v)
	}
	if ds := db.DeltaSummary(); ds.Checkpoints != 0 || ds.Rows != 0 {
		t.Fatalf("delta summary = %+v", ds)
	}
}

// TestDebugMethodNotAllowed is the regression for the handler
// registration: the debug surfaces are read-only, so anything but GET
// answers 405 instead of running the handler.
func TestDebugMethodNotAllowed(t *testing.T) {
	db := openDebugDB(t)
	addr, stop, err := ghostdb.ServeDebug("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cl := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/debug/vars", "/metrics"} {
		resp, err := cl.Post("http://"+addr+path, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestServeDebugStop is the regression for the old stop function, which
// aborted in-flight requests (srv.Close) and dropped the serve loop's
// error. The new contract: stop drains gracefully, reports nil on a
// clean shutdown, is idempotent, and the port is actually released.
func TestServeDebugStop(t *testing.T) {
	db := openDebugDB(t)
	addr, stop, err := ghostdb.ServeDebug("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	if err := stop(); err != nil {
		t.Fatalf("stop() = %v, want nil on clean shutdown", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("second stop() = %v, want the same nil", err)
	}
	if _, err := cl.Get("http://" + addr + "/debug/vars"); err == nil {
		t.Fatal("server still answering after stop")
	}

	// The address must be reusable: the listener really closed.
	addr2, stop2, err := ghostdb.ServeDebug(addr, db)
	if err != nil {
		t.Fatalf("rebinding %s after stop: %v", addr, err)
	}
	defer stop2()
	if addr2 != addr {
		t.Fatalf("rebound address = %s, want %s", addr2, addr)
	}
}
