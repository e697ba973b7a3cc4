// Package metrics is a zero-dependency, allocation-free-on-the-hot-path
// metrics layer for the engine: atomic counters and gauges plus sharded
// power-of-two histograms, organized in named registries that snapshot
// to JSON and Prometheus text exposition.
//
// The engine keeps two time dimensions side by side — host wall-clock
// and simulated device time — so the same histogram machinery serves
// both "how long did the process spend" and "how long did the modeled
// hardware spend". Recording a sample never takes a lock and never
// touches the simulated clock, so enabling metrics cannot perturb the
// cycle-accounted results.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (may go up or down).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the current level by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc raises the current level by one (e.g. a request entering a
// bounded in-flight window).
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the current level by one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MaxGauge tracks the high-water mark of an observed level.
type MaxGauge struct {
	v atomic.Int64
}

// Observe raises the mark if n exceeds it.
func (m *MaxGauge) Observe(n int64) {
	if m == nil {
		return
	}
	for {
		cur := m.v.Load()
		if n <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the high-water mark.
func (m *MaxGauge) Value() int64 {
	if m == nil {
		return 0
	}
	return m.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds samples whose
// value v satisfies 2^(i-1) < v <= 2^i-ish via bits.Len64, with bucket 0
// for v <= 0 and the last bucket absorbing everything ≥ 2^62.
const histBuckets = 64

// histShards spreads concurrent writers across independent cache lines;
// a power of two so the index mask is one AND.
const histShards = 8

// histShard is one writer lane of a histogram. The pad keeps adjacent
// shards on separate cache lines so concurrent Observe calls do not
// false-share.
type histShard struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	_       [40]byte
}

// Histogram is a bounded log₂-scale histogram of int64 samples
// (typically nanoseconds). Observe is lock-free: a round-robin pick
// spreads writers over shards, and each shard update is a pair of
// atomic adds. Snapshot merges the shards. The shards (4.5 KB) are
// allocated by the first Observe, so a registered histogram nothing
// feeds — a CHECKPOINT phase on a read-only database, say — costs two
// words.
type Histogram struct {
	next   atomic.Uint64
	shards atomic.Pointer[[histShards]histShard]
}

// bucketOf maps a sample to its bucket index: 0 for v <= 0, else
// bits.Len64(v) so bucket i covers (2^(i-1), 2^i].
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for positive int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	shards := h.shards.Load()
	if shards == nil {
		h.shards.CompareAndSwap(nil, new([histShards]histShard))
		shards = h.shards.Load()
	}
	s := &shards[h.next.Add(1)&(histShards-1)]
	s.count.Add(1)
	s.sum.Add(v)
	s.buckets[bucketOf(v)].Add(1)
}

// ObserveSince records the wall-clock nanoseconds elapsed since t0 —
// the common "time this request" shape of HTTP servers and load
// generators.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// HistSnapshot is a merged point-in-time view of a histogram.
type HistSnapshot struct {
	Count   int64              `json:"count"`
	Sum     int64              `json:"sum"`
	Buckets [histBuckets]int64 `json:"-"`
}

// Snapshot merges all shards. Concurrent Observes may straddle the
// merge, so Count/Sum/Buckets are each individually monotone but only
// approximately mutually consistent — fine for monitoring.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	shards := h.shards.Load()
	if shards == nil {
		return s
	}
	for i := range shards {
		sh := &shards[i]
		s.Count += sh.count.Load()
		s.Sum += sh.sum.Load()
		for b := range sh.buckets {
			s.Buckets[b] += sh.buckets[b].Load()
		}
	}
	return s
}

// Mean returns the average sample, or 0 with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// BucketUpper returns the inclusive upper bound of bucket i.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return 1<<63 - 1
	}
	return 1 << uint(i)
}

// Quantile returns an upper-bound estimate of the q-quantile (0..1):
// the upper edge of the bucket in which the q-th sample falls.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(histBuckets - 1)
}

// kind tags a registry entry for exposition.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindMaxGauge
	kindHistogram
)

type entry struct {
	name string
	help string
	kind kind
	c    *Counter
	g    *Gauge
	m    *MaxGauge
	h    *Histogram
}

// Registry is a named collection of metrics. Registration (the
// Counter/Gauge/MaxGauge/Histogram methods) takes a mutex and is meant
// for setup time: callers keep the returned pointer and update it
// lock-free on the hot path. Registering the same name twice returns
// the same metric.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) lookup(name, help string, k kind) *entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %q registered twice with different kinds", name))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: k}
	switch k {
	case kindCounter:
		e.c = new(Counter)
	case kindGauge:
		e.g = new(Gauge)
	case kindMaxGauge:
		e.m = new(MaxGauge)
	case kindHistogram:
		e.h = new(Histogram)
	}
	r.entries[name] = e
	return e
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter).c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindGauge).g
}

// MaxGauge registers (or returns the existing) high-water gauge.
func (r *Registry) MaxGauge(name, help string) *MaxGauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindMaxGauge).m
}

// Histogram registers (or returns the existing) histogram under name.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram).h
}

// Value is one metric's snapshot inside a registry Snapshot.
type Value struct {
	Name  string        `json:"name"`
	Kind  string        `json:"kind"` // "counter" | "gauge" | "max" | "histogram"
	Help  string        `json:"help,omitempty"`
	Value int64         `json:"value,omitempty"` // counter/gauge/max
	Hist  *HistSnapshot `json:"hist,omitempty"`  // histogram only
}

// Snapshot is a point-in-time view of a whole registry, sorted by name.
type Snapshot []Value

// Snapshot captures every metric in the registry, sorted by name.
// Returns nil for a nil registry (metrics disabled).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make(Snapshot, 0, len(entries))
	for _, e := range entries {
		v := Value{Name: e.name, Help: e.help}
		switch e.kind {
		case kindCounter:
			v.Kind, v.Value = "counter", e.c.Value()
		case kindGauge:
			v.Kind, v.Value = "gauge", e.g.Value()
		case kindMaxGauge:
			v.Kind, v.Value = "max", e.m.Value()
		case kindHistogram:
			h := e.h.Snapshot()
			v.Kind, v.Hist = "histogram", &h
		}
		out = append(out, v)
	}
	return out
}

// Merge combines snapshots into one, sorted by name: values of the same
// name add up (a max gauge takes the maximum, histograms add bucket by
// bucket); the first snapshot's help and kind win.
func Merge(snaps ...Snapshot) Snapshot {
	var out Snapshot
	at := map[string]int{}
	for _, s := range snaps {
		for _, v := range s {
			i, ok := at[v.Name]
			if !ok {
				if v.Hist != nil {
					h := *v.Hist
					v.Hist = &h
				}
				at[v.Name] = len(out)
				out = append(out, v)
				continue
			}
			m := &out[i]
			switch {
			case m.Hist != nil && v.Hist != nil:
				m.Hist.Count += v.Hist.Count
				m.Hist.Sum += v.Hist.Sum
				for b := range m.Hist.Buckets {
					m.Hist.Buckets[b] += v.Hist.Buckets[b]
				}
			case m.Kind == "max":
				m.Value = max(m.Value, v.Value)
			default:
				m.Value += v.Value
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns the named value from the snapshot, or a zero Value.
func (s Snapshot) Get(name string) (Value, bool) {
	for _, v := range s {
		if v.Name == name {
			return v, true
		}
	}
	return Value{}, false
}

// MarshalJSON renders the snapshot as one flat object: scalar metrics
// map to numbers, histograms to {count, sum, mean, p50, p99}.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			b.WriteByte(',')
		}
		nameJSON, err := json.Marshal(v.Name)
		if err != nil {
			return nil, err
		}
		b.Write(nameJSON)
		b.WriteByte(':')
		if v.Hist != nil {
			fmt.Fprintf(&b, `{"count":%d,"sum":%d,"mean":%.1f,"p50":%d,"p99":%d}`,
				v.Hist.Count, v.Hist.Sum, v.Hist.Mean(),
				v.Hist.Quantile(0.50), v.Hist.Quantile(0.99))
		} else {
			fmt.Fprintf(&b, "%d", v.Value)
		}
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

// promName rewrites a metric name into the Prometheus charset
// ([a-zA-Z0-9_:]); everything else becomes '_'.
func promName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format 0.0.4. Every metric name is prefixed (e.g. "ghostdb_");
// histograms expose cumulative le buckets plus _sum and _count; counters
// whose registered name carries a {label="value"} suffix form one family.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	family := ""
	for _, v := range s {
		// A counter registered as `name{label="value"}` is one sample of the
		// family `name`: the label set passes through verbatim, and HELP and
		// TYPE are written once, before the family's first sample (the
		// snapshot is sorted, so a family's samples are adjacent).
		if i := strings.IndexByte(v.Name, '{'); i >= 0 && v.Kind == "counter" {
			name := prefix + promName(v.Name[:i])
			if name != family {
				family = name
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, v.Help, name); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, v.Name[i:], v.Value); err != nil {
				return err
			}
			continue
		}
		name := prefix + promName(v.Name)
		if v.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, v.Help); err != nil {
				return err
			}
		}
		switch v.Kind {
		case "counter":
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, v.Value); err != nil {
				return err
			}
		case "gauge", "max":
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, v.Value); err != nil {
				return err
			}
		case "histogram":
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			var cum int64
			for i, n := range v.Hist.Buckets {
				if n == 0 {
					continue
				}
				cum += n
				if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, BucketUpper(i), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
				name, v.Hist.Count, name, v.Hist.Sum, name, v.Hist.Count); err != nil {
				return err
			}
		}
	}
	return nil
}
