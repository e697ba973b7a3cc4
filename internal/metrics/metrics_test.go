package metrics

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeMax(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	m := r.MaxGauge("m", "a high-water mark")
	m.Observe(5)
	m.Observe(3)
	m.Observe(9)
	if got := m.Value(); got != 9 {
		t.Fatalf("max = %d, want 9", got)
	}
	// Re-registering returns the same metric.
	if r.Counter("c", "again") != c {
		t.Fatal("re-registering a counter returned a different instance")
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var r *Registry
	// A nil registry hands out nil metrics and every operation is a no-op.
	c := r.Counter("c", "")
	c.Inc()
	r.Gauge("g", "").Set(3)
	r.MaxGauge("m", "").Observe(3)
	r.Histogram("h", "").Observe(3)
	if c.Value() != 0 {
		t.Fatal("nil counter should stay 0")
	}
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v, want nil", snap)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1024, 11}, {1025, 11},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every bucket's samples are <= its upper bound.
	for _, v := range []int64{1, 7, 100, 999_999, 1 << 40} {
		if up := BucketUpper(bucketOf(v)); v > up {
			t.Errorf("value %d above its bucket upper bound %d", v, up)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Sum != 5050 {
		t.Fatalf("sum = %d, want 5050", s.Sum)
	}
	if m := s.Mean(); m != 50.5 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	// The median of 1..100 is ≈ 50; the p50 upper-bound estimate must be
	// the bucket edge at or above it, and no more than 2x (log2 buckets).
	if p := s.Quantile(0.5); p < 50 || p > 128 {
		t.Fatalf("p50 = %d, want within [50,128]", p)
	}
	if p := s.Quantile(1.0); p < 100 {
		t.Fatalf("p100 = %d, want >= 100", p)
	}
	if p := s.Quantile(0); p > 2 {
		t.Fatalf("p0 = %d, want <= 2", p)
	}
}

// TestRegistryConcurrent hammers one registry from 16 goroutines and
// checks that counter totals are exact and histogram counts monotone —
// run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	const goroutines = 16
	const perG = 10_000

	r := NewRegistry()
	c := r.Counter("hits", "")
	h := r.Histogram("lat", "")

	// A reader goroutine watches the histogram count grow; it must never
	// move backwards.
	stop := make(chan struct{})
	var readerErr error
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < last {
				readerErr = &monotoneErr{prev: last, now: s.Count}
				return
			}
			last = s.Count
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Mix fresh lookups with held pointers: both paths must be safe.
			local := r.Counter("hits", "")
			for i := 0; i < perG; i++ {
				local.Inc()
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d (exact)", got, goroutines*perG)
	}
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d (exact)", s.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total = %d, count = %d; want equal", bucketTotal, s.Count)
	}
}

type monotoneErr struct{ prev, now int64 }

func (e *monotoneErr) Error() string {
	return "histogram count moved backwards"
}

func TestSnapshotJSONAndPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_total", "queries run").Add(3)
	r.Gauge("delta_rows", "live delta rows").Set(7)
	r.MaxGauge("ram_high", "arena high-water").Observe(512)
	h := r.Histogram("query_wall_ns", "wall latency")
	h.Observe(1000)
	h.Observe(2000)

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d entries, want 4", len(snap))
	}
	if v, ok := snap.Get("queries_total"); !ok || v.Value != 3 {
		t.Fatalf("queries_total = %+v, want value 3", v)
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]json.RawMessage
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not decode: %v\n%s", err, data)
	}
	if string(decoded["queries_total"]) != "3" {
		t.Fatalf("queries_total JSON = %s, want 3", decoded["queries_total"])
	}
	var hist struct {
		Count int64 `json:"count"`
		Sum   int64 `json:"sum"`
	}
	if err := json.Unmarshal(decoded["query_wall_ns"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 2 || hist.Sum != 3000 {
		t.Fatalf("histogram JSON = %+v, want count 2 sum 3000", hist)
	}

	var b strings.Builder
	if err := snap.WritePrometheus(&b, "ghostdb_"); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE ghostdb_queries_total counter",
		"ghostdb_queries_total 3",
		"# TYPE ghostdb_delta_rows gauge",
		"ghostdb_ram_high 512",
		"# TYPE ghostdb_query_wall_ns histogram",
		`ghostdb_query_wall_ns_bucket{le="+Inf"} 2`,
		"ghostdb_query_wall_ns_sum 3000",
		"ghostdb_query_wall_ns_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestPrometheusLabelledCounters: counters registered with a label suffix
// are one family — one HELP/TYPE header, the label sets verbatim, the
// family name sanitised like any other — and keep their full name as the
// JSON key.
func TestPrometheusLabelledCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter(`shard.route_total{route="scatter"}`, "by route").Add(2)
	r.Counter(`shard.route_total{route="pruned"}`, "by route").Add(5)
	r.Counter("shard.route_totals", "a neighbour in sort order").Inc()

	var b strings.Builder
	if err := r.Snapshot().WritePrometheus(&b, "ghostdb_"); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ghostdb_shard_route_total by route
# TYPE ghostdb_shard_route_total counter
ghostdb_shard_route_total{route="pruned"} 5
ghostdb_shard_route_total{route="scatter"} 2
`
	if got := b.String(); !strings.Contains(got, want) || strings.Count(got, "# TYPE ghostdb_shard_route_total counter") != 1 {
		t.Fatalf("labelled family rendered as:\n%s\nwant it to contain:\n%s", got, want)
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]int64
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("snapshot JSON does not decode: %v\n%s", err, data)
	}
	if decoded[`shard.route_total{route="pruned"}`] != 5 {
		t.Fatalf("JSON = %s", data)
	}
}

// TestMerge combines two registries the way a database reports its
// front door plus its devices: same-name counters add, max gauges take
// the maximum, histograms add bucket by bucket, names stay sorted; a
// histogram nothing observed holds no counts and merges as empty.
func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("queries", "").Add(3)
	b.Counter("queries", "").Add(4)
	a.MaxGauge("ram", "").Observe(10)
	b.MaxGauge("ram", "").Observe(7)
	a.Histogram("sim", "").Observe(5)
	b.Histogram("sim", "").Observe(100)
	idle := b.Histogram("idle", "")
	b.Counter("flash", "").Add(2)
	if idle.counts.Load() != nil {
		t.Fatal("a histogram allocated its counts before its first Observe")
	}
	m := Merge(a.Snapshot(), b.Snapshot())
	var names []string
	for _, v := range m {
		names = append(names, v.Name)
	}
	if got := strings.Join(names, ","); got != "flash,idle,queries,ram,sim" {
		t.Fatalf("merged names %s", got)
	}
	if v, _ := m.Get("queries"); v.Value != 7 {
		t.Errorf("queries = %d, want 7", v.Value)
	}
	if v, _ := m.Get("ram"); v.Value != 10 {
		t.Errorf("ram = %d, want the maximum 10", v.Value)
	}
	if v, _ := m.Get("sim"); v.Hist.Count != 2 || v.Hist.Sum != 105 || v.Hist.Buckets[bucketOf(5)] != 1 || v.Hist.Buckets[bucketOf(100)] != 1 {
		t.Errorf("sim = %+v, want both samples", v.Hist)
	}
	if v, _ := m.Get("idle"); v.Hist.Count != 0 {
		t.Errorf("idle = %+v, want empty", v.Hist)
	}
	if s := a.Snapshot(); s[2].Hist.Count != 1 {
		t.Error("Merge wrote through to its input")
	}
}
