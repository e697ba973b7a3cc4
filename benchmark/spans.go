package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Request; Parent is the span that caused this one (0 for the
// operation's root). Times are nanoseconds since the tracer started.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced path pays one pointer test per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span identifier, so children can name their parent
// before the parent has ended.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id
}

func (t *tracer) record(id, parent, request int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Request: request, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child times fn as a child span of parent and records it.
func (t *tracer) child(parent, request int64, name string, fn func()) {
	id := t.newID()
	start := time.Now()
	fn()
	t.record(id, parent, request, name, start, time.Now())
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// layerTimes groups spans by name: durations and self times in
// nanoseconds, ready for percentiles and sums.
type layerTimes struct {
	dur  map[string][]float64
	self map[string][]float64
}

func groupSpans(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		lt.dur[s.Name] = append(lt.dur[s.Name], float64(s.End-s.Start))
		lt.self[s.Name] = append(lt.self[s.Name], float64(self[s.ID]))
	}
	return lt
}

// emitQueryStages reports the median duration of each host-side stage
// tracedQuery puts a span around.
func (lt layerTimes) emitQueryStages(m metrics) {
	m["sql.parse_p50_us"] = p50us(lt.dur["sql.parse"])
	m["compile.hit_p50_us"] = p50us(lt.dur["compile.hit"])
	m["compile.miss_p50_us"] = p50us(lt.dur["compile.miss"])
	m["plan.bind_p50_us"] = p50us(lt.dur["plan.bind"])
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// p50us is the median of nanosecond samples, in microseconds.
func p50us(ns []float64) float64 { return median(ns) / 1e3 }

// writeSpans dumps the spans as JSON lines to dir/trace-<workload>.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
