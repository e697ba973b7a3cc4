package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/value"
)

func TestPartyTrust(t *testing.T) {
	if Terminal.Trusted() || Server.Trusted() {
		t.Error("terminal/server must be untrusted")
	}
	if !Device.Trusted() || !Display.Trusted() {
		t.Error("device/display must be trusted")
	}
}

func TestSpyVisibility(t *testing.T) {
	secure := Event{From: Device, To: Display}
	if secure.SpyVisible() {
		t.Error("device->display must be invisible to the spy")
	}
	for _, e := range []Event{
		{From: Terminal, To: Server},
		{From: Server, To: Terminal},
		{From: Terminal, To: Device},
		{From: Device, To: Terminal},
	} {
		if !e.SpyVisible() {
			t.Errorf("%s->%s must be spy visible", e.From, e.To)
		}
	}
}

func TestRecorderCaptureLevels(t *testing.T) {
	vals := []value.Value{value.NewString("Sclerosis")}

	meta := NewRecorder(CaptureMeta)
	meta.Record(Event{From: Terminal, To: Device, Kind: KindIDList, Bytes: 8, Values: vals})
	if got := meta.Events()[0].Values; got != nil {
		t.Errorf("CaptureMeta kept values: %v", got)
	}

	full := NewRecorder(CaptureFull)
	full.Record(Event{From: Terminal, To: Device, Kind: KindIDList, Bytes: 8, Values: vals})
	if got := full.Events()[0].Values; len(got) != 1 {
		t.Errorf("CaptureFull dropped values: %v", got)
	}
	if full.Level() != CaptureFull {
		t.Error("Level() mismatch")
	}
	full.SetLevel(CaptureMeta)
	full.Record(Event{From: Terminal, To: Device, Values: vals})
	if got := full.Events()[1].Values; got != nil {
		t.Error("SetLevel did not take effect")
	}
}

func TestRecorderSeqAndReset(t *testing.T) {
	r := NewRecorder(CaptureMeta)
	for i := 0; i < 3; i++ {
		r.Record(Event{From: Terminal, To: Server})
	}
	evs := r.Events()
	if len(evs) != 3 || r.Len() != 3 {
		t.Fatalf("recorded %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear")
	}
	r.Record(Event{From: Terminal, To: Server})
	if r.Events()[0].Seq != 1 {
		t.Error("seq not rewound by Reset")
	}
}

func TestSpyView(t *testing.T) {
	r := NewRecorder(CaptureMeta)
	r.Record(Event{From: Terminal, To: Device, Kind: KindIDList})
	r.Record(Event{From: Device, To: Display, Kind: KindResult})
	r.Record(Event{From: Server, To: Terminal, Kind: KindCount})
	spy := r.SpyView()
	if len(spy) != 2 {
		t.Fatalf("spy sees %d events, want 2", len(spy))
	}
	for _, e := range spy {
		if e.Kind == KindResult {
			t.Error("spy must not see the secure result channel")
		}
	}
}

func TestTotals(t *testing.T) {
	events := []Event{
		{From: Terminal, To: Device, Kind: KindIDList, Bytes: 100},
		{From: Terminal, To: Device, Kind: KindIDList, Bytes: 50},
		{From: Terminal, To: Device, Kind: KindProjection, Bytes: 10},
		{From: Server, To: Terminal, Kind: KindCount, Bytes: 4},
	}
	totals := Totals(events)
	if len(totals) != 3 {
		t.Fatalf("%d totals, want 3", len(totals))
	}
	// Sorted by from, to, kind: server first, then terminal->device pairs.
	if totals[0].From != Server || totals[0].Bytes != 4 {
		t.Errorf("totals[0] = %+v", totals[0])
	}
	if totals[1].Kind != KindIDList || totals[1].Messages != 2 || totals[1].Bytes != 150 {
		t.Errorf("totals[1] = %+v", totals[1])
	}
}

func TestAuditFindsLeaks(t *testing.T) {
	hidden := value.NewString("Sclerosis")
	isHidden := func(v value.Value) bool { return v == hidden }

	clean := []Event{
		{From: Terminal, To: Device, Kind: KindIDList, Values: []value.Value{value.NewInt(7)}},
		// Hidden value on the secure channel is fine.
		{From: Device, To: Display, Kind: KindResult, Values: []value.Value{hidden}},
	}
	if leaks := Audit(clean, isHidden); len(leaks) != 0 {
		t.Errorf("clean trace reported leaks: %v", leaks)
	}

	dirty := append(clean, Event{
		Seq: 99, From: Device, To: Terminal, Kind: KindControl,
		Values: []value.Value{value.NewInt(1), hidden},
	})
	leaks := Audit(dirty, isHidden)
	if len(leaks) != 1 {
		t.Fatalf("%d leaks, want 1", len(leaks))
	}
	if leaks[0].Event.Seq != 99 || leaks[0].Value != hidden {
		t.Errorf("leak = %+v", leaks[0])
	}
}

func TestEventStringAndFormat(t *testing.T) {
	e := Event{
		At: 1500 * time.Microsecond, From: Terminal, To: Device,
		Kind: KindIDList, Bytes: 42, Note: "VisID chunk",
	}
	s := e.String()
	for _, want := range []string{"terminal", "device", "id-list", "42B", "VisID chunk", "1.500ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	out := Format([]Event{e, e})
	if strings.Count(out, "\n") != 2 {
		t.Errorf("Format produced %q", out)
	}
}

// TestRecorderConcurrent checks the recorder under concurrent producers
// and readers: no lost events, strictly increasing sequence numbers.
// Run with -race.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(CaptureMeta)
	var wg sync.WaitGroup
	const writers, events = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{From: Terminal, To: Device, Kind: KindControl, Bytes: 1})
				_ = r.Len()
				_ = r.Level()
			}
		}()
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != writers*events {
		t.Fatalf("recorded %d events, want %d", len(evs), writers*events)
	}
	for i, e := range evs {
		if e.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
}

// TestRecorderRingBoundsMetaCapture is the leak the ring closes: a
// CaptureMeta recorder in a long-running server must hold a bounded
// number of events on a flat heap, in order, and say what it dropped;
// CaptureFull (audit, spy demo) must keep everything.
func TestRecorderRingBoundsMetaCapture(t *testing.T) {
	const total = 1_000_000
	r := NewRecorder(CaptureMeta)
	for i := 1; i <= 100; i++ {
		r.Record(Event{From: Terminal, To: Device, Bytes: i})
	}
	if r.Len() != 100 || r.Dropped() != 0 || cap(r.events) >= MetaEventCap {
		t.Fatalf("below the cap: len %d, dropped %d, cap %d (the ring must grow by append, not be preallocated)",
			r.Len(), r.Dropped(), cap(r.events))
	}
	for i := 101; i <= total; i++ {
		from := Terminal
		if i%2 == 0 {
			from = Device // device->display on even events: hidden from the spy
		}
		r.Record(Event{From: from, To: Display, Bytes: i})
	}
	if r.Len() != MetaEventCap {
		t.Fatalf("Len = %d after %d records, want the cap %d", r.Len(), total, MetaEventCap)
	}
	if got := r.Dropped(); got != total-MetaEventCap {
		t.Fatalf("Dropped = %d, want %d", got, total-MetaEventCap)
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Record(Event{From: Terminal, To: Device}) }); allocs != 0 {
		t.Fatalf("Record on a full ring allocates %.1f times; the heap must stay flat", allocs)
	}
	evs := r.Events()
	if len(evs) != MetaEventCap {
		t.Fatalf("Events returned %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("Events out of order at %d: seq %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
	if last := evs[len(evs)-1].Seq; last != total+1001 {
		t.Fatalf("newest kept event has seq %d, want %d", last, total+1001)
	}
	spy := r.SpyView()
	for i := 1; i < len(spy); i++ {
		if spy[i].Seq <= spy[i-1].Seq {
			t.Fatalf("SpyView out of order at %d", i)
		}
	}
	if len(spy) == 0 || len(spy) >= len(evs) {
		t.Fatalf("SpyView kept %d of %d events", len(spy), len(evs))
	}

	// Switching a wrapped ring to CaptureFull keeps order and unbounds it.
	r.SetLevel(CaptureFull)
	r.Record(Event{From: Terminal, To: Device})
	if evs = r.Events(); len(evs) != MetaEventCap+1 || evs[0].Seq != evs[1].Seq-1 || evs[len(evs)-1].Seq != total+1002 {
		t.Fatalf("after SetLevel(CaptureFull): %d events, first seqs %d %d, last %d", len(evs), evs[0].Seq, evs[1].Seq, evs[len(evs)-1].Seq)
	}

	full := NewRecorder(CaptureFull)
	for i := 0; i < MetaEventCap+10; i++ {
		full.Record(Event{From: Terminal, To: Device})
	}
	if full.Len() != MetaEventCap+10 || full.Dropped() != 0 {
		t.Fatalf("CaptureFull kept %d events, dropped %d; the audit needs all %d", full.Len(), full.Dropped(), MetaEventCap+10)
	}
	full.Reset()
	if full.Len() != 0 || full.Dropped() != 0 {
		t.Fatal("Reset left state behind")
	}
}
