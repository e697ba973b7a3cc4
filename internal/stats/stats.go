// Package stats collects per-operator and per-plan execution metrics —
// the numbers behind the demo GUI's operator popups ("number of processed
// tuples, local RAM consumption and processing time", Section 5) and the
// plan comparison bars of Figure 6.
package stats

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/flash"
)

// Op is one operator's counters.
type Op struct {
	Name      string
	Detail    string
	TuplesIn  int64
	TuplesOut int64
	RAMBytes  int64         // peak RAM attributable to the operator
	Time      time.Duration // simulated device time in the operator's phase
}

// AddIn increments the input tuple counter.
func (o *Op) AddIn(n int64) {
	if o != nil {
		o.TuplesIn += n
	}
}

// AddOut increments the output tuple counter.
func (o *Op) AddOut(n int64) {
	if o != nil {
		o.TuplesOut += n
	}
}

// NoteRAM records a RAM level if it exceeds the operator's current peak.
func (o *Op) NoteRAM(bytes int64) {
	if o != nil && bytes > o.RAMBytes {
		o.RAMBytes = bytes
	}
}

// AddTime accumulates simulated time.
func (o *Op) AddTime(d time.Duration) {
	if o != nil {
		o.Time += d
	}
}

// String renders the operator like the demo's popup line.
func (o *Op) String() string {
	return fmt.Sprintf("%-26s in=%-9d out=%-9d ram=%-8s t=%s",
		nameDetail(o.Name, o.Detail), o.TuplesIn, o.TuplesOut,
		FormatBytes(o.RAMBytes), FormatDuration(o.Time))
}

func nameDetail(name, detail string) string {
	if detail == "" {
		return name
	}
	return name + "(" + detail + ")"
}

// Report aggregates one query execution.
type Report struct {
	Query      string
	PlanLabel  string
	Ops        []*Op
	TotalTime  time.Duration // simulated end-to-end time
	RAMHigh    int64         // device arena high-water mark
	Flash      flash.Stats   // flash ops attributable to the query
	BusBytes   int64         // bytes that crossed the terminal<->device wire
	BusMsgs    int64
	ResultRows int

	// block backs the first opBlockSize ops in one allocation. Ops are
	// only appended while len < cap, so the returned pointers stay valid.
	block []Op
}

// opBlockSize covers a typical query's operator count in one allocation.
const opBlockSize = 16

// NewOp registers a new operator in the report and returns it.
func (r *Report) NewOp(name, detail string) *Op {
	if r.block == nil {
		r.block = make([]Op, 0, opBlockSize)
		r.Ops = make([]*Op, 0, opBlockSize)
	}
	var op *Op
	if len(r.block) < cap(r.block) {
		r.block = append(r.block, Op{Name: name, Detail: detail})
		op = &r.block[len(r.block)-1]
	} else {
		op = &Op{Name: name, Detail: detail}
	}
	r.Ops = append(r.Ops, op)
	return op
}

// String renders the full report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d rows in %s (device RAM peak %s, bus %s in %d msgs)\n",
		r.PlanLabel, r.ResultRows, FormatDuration(r.TotalTime),
		FormatBytes(r.RAMHigh), FormatBytes(r.BusBytes), r.BusMsgs)
	fmt.Fprintf(&b, "flash: %d page reads, %d pages programmed, %d erases\n",
		r.Flash.PageReads, r.Flash.PagesProgrammed, r.Flash.BlockErases)
	for _, op := range r.Ops {
		b.WriteString("  ")
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CacheStats is a snapshot of a cache's effectiveness counters (the plan
// cache reports these; other host-side caches may reuse the type).
type CacheStats struct {
	Hits      int64 // lookups served from the cache
	Misses    int64 // lookups that had to do the work
	Evictions int64 // entries dropped by the LRU policy
	Entries   int   // entries currently resident
}

// HitRate reports hits / lookups, or 0 with no lookups.
func (c CacheStats) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// String renders the counters compactly.
func (c CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d entries=%d (%.1f%% hit rate)",
		c.Hits, c.Misses, c.Evictions, c.Entries, 100*c.HitRate())
}

// FormatBytes renders a byte count with a binary unit.
func FormatBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	case n < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	default:
		return fmt.Sprintf("%.2fGB", float64(n)/(1<<30))
	}
}

// FormatDuration renders a simulated duration compactly.
func FormatDuration(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}
