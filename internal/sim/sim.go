// Package sim provides the deterministic simulated clock and CPU cost model
// that every hardware component of the GhostDB smart USB device charges
// against.
//
// The paper's evaluation ran on "a software simulator of the USB device"
// (GhostDB demo, Section 5); this package is the equivalent substrate. All
// latencies — flash page reads and programs, block erases, USB transfers,
// per-tuple CPU work — advance a single Clock, so experiment results are
// deterministic and independent of the host machine.
package sim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock is a monotonically advancing simulated clock. The zero value is a
// clock at time zero, ready to use.
//
// The device is a single-core 32-bit RISC chip, so all charging (Advance)
// happens from the one goroutine that currently holds the engine's device
// gate. Reads, however, may come from any goroutine — sessions reporting
// progress, benchmarks sampling throughput — so the clock value is stored
// atomically and every method is safe for concurrent use.
type Clock struct {
	now atomic.Int64 // time.Duration
}

// NewClock returns a clock starting at time zero.
func NewClock() *Clock { return &Clock{} }

// Now reports the current simulated time.
func (c *Clock) Now() time.Duration { return time.Duration(c.now.Load()) }

// Advance moves simulated time forward by d. Negative d panics: time is
// monotonic.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %v", d))
	}
	c.now.Add(int64(d))
}

// Reset rewinds the clock to zero. Benchmarks use it between plan runs.
func (c *Clock) Reset() { c.now.Store(0) }

// Span measures the simulated time elapsed since a mark obtained from Now.
func (c *Clock) Span(since time.Duration) time.Duration { return c.Now() - since }

// CPU models the secure chip's processor as a cycle-accounted cost source.
// Operators charge a number of cycles per unit of work; the CPU converts
// cycles to simulated time at its clock rate.
type CPU struct {
	clock *Clock
	hz    float64
	unit  [256]time.Duration // unit[c]: the duration of c cycles, as Charge computes it
}

// NewCPU returns a CPU running at hz cycles per second charging to clock.
func NewCPU(clock *Clock, hz float64) *CPU {
	if hz <= 0 {
		panic("sim: CPU frequency must be positive")
	}
	c := &CPU{clock: clock, hz: hz}
	for cycles := range c.unit {
		c.unit[cycles] = time.Duration(float64(cycles) / c.hz * float64(time.Second))
	}
	return c
}

// Hz reports the CPU frequency in cycles per second.
func (c *CPU) Hz() float64 { return c.hz }

// Charge advances the clock by the duration of n cycles.
func (c *CPU) Charge(n int64) {
	if n <= 0 {
		return
	}
	c.clock.Advance(time.Duration(float64(n) / c.hz * float64(time.Second)))
}

// ChargeUnits advances the clock for units work items of cycles each. It
// is bit-identical to calling Charge(cycles) units times — the per-unit
// duration is computed (and truncated) once and then multiplied — so the
// vectorized engine can charge a whole batch in one call without
// perturbing the simulated time the row-at-a-time engine would produce.
// Below 256 cycles the per-unit duration is NewCPU's, computed by the same
// expression.
func (c *CPU) ChargeUnits(cycles, units int64) {
	if cycles <= 0 || units <= 0 {
		return
	}
	var per time.Duration
	if cycles < int64(len(c.unit)) {
		per = c.unit[cycles]
	} else {
		per = time.Duration(float64(cycles) / c.hz * float64(time.Second))
	}
	c.clock.Advance(per * time.Duration(units))
}

// Typical per-tuple cycle costs used by the execution engine. They are
// deliberately coarse: the experiments depend on the ratio between flash,
// bus and CPU costs, not on instruction-level accuracy.
const (
	CyclesCompare   = 20  // compare two IDs or fixed-width values
	CyclesHash      = 60  // hash a key for a Bloom filter probe
	CyclesCopyWord  = 4   // copy 4 bytes
	CyclesHeapOp    = 80  // push/pop on a merge heap
	CyclesPredicate = 120 // evaluate one predicate on a decoded value
	CyclesDecode    = 40  // decode one varint / value header
	CyclesTombstone = 24  // probe the delta's tombstone/shadow set for one ID
	CyclesDeltaRow  = 200 // locate + decode one delta-resident row image in RAM
)
