// Package trace records every message exchanged between the components of
// the GhostDB platform — terminal (client PC), public server, smart USB
// device and secure display — and implements the "spy view" of demo phase 1:
// what a Trojan horse snooping the wires would observe, plus an auditor
// that proves no hidden value ever crosses into the spy's view.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/internal/value"
)

// Party identifies a component of the demo platform (Figure 1).
type Party string

// The four parties. Only Device and Display are trusted; the link between
// them is the secure rendering channel the paper assumes.
const (
	Terminal Party = "terminal" // user's PC running the client applet
	Server   Party = "server"   // public server hosting visible data
	Device   Party = "device"   // smart USB device (trusted)
	Display  Party = "display"  // secure display (trusted)
)

// Trusted reports whether the party is inside the trust boundary.
func (p Party) Trusted() bool { return p == Device || p == Display }

// Kind classifies a message.
type Kind string

// Message kinds crossing the wires.
const (
	KindQuery      Kind = "query"      // SQL text, terminal -> server/device
	KindDelegation Kind = "delegation" // visible selection request
	KindCount      Kind = "count"      // cardinality reply for the optimizer
	KindIDList     Kind = "id-list"    // sorted visible ID chunk -> device
	KindProjection Kind = "projection" // (id, value) chunk -> device
	KindResult     Kind = "result"     // result rows, device -> display
	KindDML        Kind = "dml"        // live mutation statement, terminal -> device
	KindControl    Kind = "control"    // protocol chatter
)

// Event is one recorded message.
type Event struct {
	Seq   int
	At    time.Duration
	From  Party
	To    Party
	Kind  Kind
	Bytes int
	Note  string
	// Values holds the payload values when the recorder captures them
	// (CaptureFull); the leak auditor inspects these.
	Values []value.Value
}

// SpyVisible reports whether a wire spy can observe the event. Everything
// is observable except traffic on the device→display secure channel.
func (e Event) SpyVisible() bool {
	return !(e.From.Trusted() && e.To.Trusted())
}

// String renders the event as one trace line.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%9.3fms] %-8s -> %-8s %-10s %7dB", float64(e.At)/1e6, e.From, e.To, e.Kind, e.Bytes)
	if e.Note != "" {
		fmt.Fprintf(&b, "  %s", e.Note)
	}
	return b.String()
}

// CaptureLevel controls how much payload the recorder keeps.
type CaptureLevel int

// Capture levels: metadata only (sizes, kinds — cheap, for benchmarks) or
// full payload values (for the security audit and demo phase 1).
const (
	CaptureMeta CaptureLevel = iota
	CaptureFull
)

// MetaEventCap bounds how many events a CaptureMeta recorder keeps: a
// long-running server records a handful per query and nobody reads them
// back, so beyond the cap the oldest are dropped. A CaptureFull recorder
// (security audit, spy demo) is never bounded — the auditor must see every
// payload.
const MetaEventCap = 4096

// Recorder accumulates events. It is safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	level CaptureLevel
	// events grows by append up to MetaEventCap (never preallocated: most
	// recorders see a few dozen events) and is then, at CaptureMeta, a ring
	// whose oldest event sits at head.
	events  []Event
	head    int
	seq     int
	dropped int64
}

// NewRecorder returns a recorder at the given capture level.
func NewRecorder(level CaptureLevel) *Recorder {
	return &Recorder{level: level}
}

// Level reports the capture level.
func (r *Recorder) Level() CaptureLevel {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.level
}

// SetLevel changes the capture level for subsequent events.
func (r *Recorder) SetLevel(l CaptureLevel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.level = l
	if r.head != 0 {
		// Back to a plain slice in order, so an unbounded level can append.
		r.events, r.head = r.snapshot(), 0
	}
}

// Record appends an event. When the capture level is CaptureMeta the
// payload values are dropped and only the last MetaEventCap events are
// kept (see Dropped).
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	if r.level != CaptureFull {
		ev.Values = nil
		if len(r.events) >= MetaEventCap {
			r.events[r.head] = ev
			r.head = (r.head + 1) % len(r.events)
			r.dropped++
			return
		}
	}
	r.events = append(r.events, ev)
}

// snapshot copies the kept events out, oldest first. Caller holds r.mu.
func (r *Recorder) snapshot() []Event {
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.head:]...)
	return append(out, r.events[:r.head]...)
}

// Events returns a copy of the kept events in order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshot()
}

// Len reports the number of kept events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped reports how many events a CaptureMeta recorder has discarded to
// stay within MetaEventCap since the last Reset.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events, r.head = nil, 0
	r.seq, r.dropped = 0, 0
}

// SpyView returns the events a wire spy observes (demo phase 1).
func (r *Recorder) SpyView() []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.SpyVisible() {
			out = append(out, e)
		}
	}
	return out
}

// ChannelTotal aggregates traffic on one directed channel.
type ChannelTotal struct {
	From, To Party
	Kind     Kind
	Messages int
	Bytes    int64
}

// Totals aggregates events per (from, to, kind), sorted for stable output.
func Totals(events []Event) []ChannelTotal {
	type key struct {
		from, to Party
		kind     Kind
	}
	agg := map[key]*ChannelTotal{}
	for _, e := range events {
		k := key{e.From, e.To, e.Kind}
		t := agg[k]
		if t == nil {
			t = &ChannelTotal{From: e.From, To: e.To, Kind: e.Kind}
			agg[k] = t
		}
		t.Messages++
		t.Bytes += int64(e.Bytes)
	}
	out := make([]ChannelTotal, 0, len(agg))
	for _, t := range agg {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
	return out
}

// Leak describes a hidden value observed by the spy.
type Leak struct {
	Event Event
	Value value.Value
}

// Audit scans every spy-visible event for payload values the isHidden
// predicate flags. An empty result is the security property the paper
// demonstrates: the spy learns only the queries posed and the visible
// data accessed. Run it with a CaptureFull recorder.
func Audit(events []Event, isHidden func(value.Value) bool) []Leak {
	var leaks []Leak
	for _, e := range events {
		if !e.SpyVisible() {
			continue
		}
		for _, v := range e.Values {
			if isHidden(v) {
				leaks = append(leaks, Leak{Event: e, Value: v})
			}
		}
	}
	return leaks
}

// Format renders events as a multi-line trace suitable for the demo's
// "what the pirate sees" panel.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
