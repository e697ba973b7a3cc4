package stats

import (
	"strings"
	"testing"
	"time"
)

func TestOpCounters(t *testing.T) {
	op := &Op{Name: "Translate", Detail: "Visit->Prescription"}
	op.AddIn(10)
	op.AddIn(5)
	op.AddOut(7)
	op.NoteRAM(100)
	op.NoteRAM(50) // lower value must not shrink the peak
	op.AddTime(2 * time.Millisecond)
	op.AddTime(time.Millisecond)
	if op.TuplesIn != 15 || op.TuplesOut != 7 {
		t.Errorf("counters %+v", op)
	}
	if op.RAMBytes != 100 {
		t.Errorf("RAM peak %d", op.RAMBytes)
	}
	if op.Time != 3*time.Millisecond {
		t.Errorf("time %v", op.Time)
	}
	s := op.String()
	for _, want := range []string{"Translate(Visit->Prescription)", "in=15", "out=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestNilOpSafe(t *testing.T) {
	var op *Op
	op.AddIn(1)
	op.AddOut(1)
	op.NoteRAM(1)
	op.AddTime(time.Second)
}

func TestReport(t *testing.T) {
	r := &Report{Query: "SELECT 1", PlanLabel: "P1", TotalTime: time.Second,
		RAMHigh: 4096, BusBytes: 1 << 20, BusMsgs: 3, ResultRows: 42}
	op := r.NewOp("Store", "")
	op.AddIn(10)
	if len(r.Ops) != 1 {
		t.Fatalf("ops = %d", len(r.Ops))
	}
	s := r.String()
	for _, want := range []string{"P1", "42 rows", "4.0KB", "1.0MB", "Store"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:       "0B",
		512:     "512B",
		1536:    "1.5KB",
		3 << 20: "3.0MB",
		5 << 30: "5.00GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	cases := map[time.Duration]string{
		500 * time.Nanosecond:   "500ns",
		1500 * time.Nanosecond:  "1.5µs",
		2 * time.Millisecond:    "2.00ms",
		1500 * time.Millisecond: "1.500s",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestFormatBytesBoundaries pins the unit transitions exactly: each
// formatter must switch units at the binary power, not one off.
func TestFormatBytesBoundaries(t *testing.T) {
	cases := map[int64]string{
		1<<10 - 1: "1023B",
		1 << 10:   "1.0KB",
		1<<20 - 1: "1024.0KB",
		1 << 20:   "1.0MB",
		1<<30 - 1: "1024.0MB",
		1 << 30:   "1.00GB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatDurationBoundaries(t *testing.T) {
	cases := map[time.Duration]string{
		0:                     "0ns",
		999 * time.Nanosecond: "999ns",
		time.Microsecond:      "1.0µs",
		time.Millisecond:      "1.00ms",
		time.Second:           "1.000s",
		90 * time.Second:      "90.000s",
	}
	for in, want := range cases {
		if got := FormatDuration(in); got != want {
			t.Errorf("FormatDuration(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCacheStats(t *testing.T) {
	var zero CacheStats
	if r := zero.HitRate(); r != 0 {
		t.Errorf("zero HitRate = %v, want 0", r)
	}
	c := CacheStats{Hits: 3, Misses: 1, Evictions: 2, Entries: 5}
	if r := c.HitRate(); r != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", r)
	}
	if s := c.String(); s != "hits=3 misses=1 evictions=2 entries=5 (75.0% hit rate)" {
		t.Errorf("String = %q", s)
	}
}
