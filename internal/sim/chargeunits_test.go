package sim_test

import (
	"testing"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/sim"
)

// TestChargeUnitsMatchesRepeatedCharge pins the identity every
// counted-then-charged kernel leans on: paying n units in one ChargeUnits
// moves the clock exactly as far as n separate Charge calls. The device
// profile's frequency (every profile derives from SmartUSB2007) is joined
// by a few that do not divide a second evenly, where a per-call truncation
// would show. An interleaved run of cycle counts then crosses the edge of
// the per-unit table NewCPU fills, at two frequencies.
func TestChargeUnitsMatchesRepeatedCharge(t *testing.T) {
	cycles := map[string]int64{
		"Compare": sim.CyclesCompare, "Hash": sim.CyclesHash, "CopyWord": sim.CyclesCopyWord,
		"HeapOp": sim.CyclesHeapOp, "Predicate": sim.CyclesPredicate, "Decode": sim.CyclesDecode,
		"Tombstone": sim.CyclesTombstone, "DeltaRow": sim.CyclesDeltaRow,
		"CopyRow3": 3 * sim.CyclesCopyWord, "Hash7": 7 * sim.CyclesHash,
	}
	hzs := []float64{device.SmartUSB2007().CPUHz, 33e6, 48e6, 120e6, 1e9 / 3}
	for name, c := range cycles {
		for _, hz := range hzs {
			for _, n := range []int64{0, 1, 2, 7, 1024, 100000} {
				one, batch := sim.NewClock(), sim.NewClock()
				perCall, perBatch := sim.NewCPU(one, hz), sim.NewCPU(batch, hz)
				for i := int64(0); i < n; i++ {
					perCall.Charge(c)
				}
				perBatch.ChargeUnits(c, n)
				if one.Now() != batch.Now() {
					t.Errorf("Cycles%s at %.0f Hz: %d × Charge = %v, ChargeUnits = %v",
						name, hz, n, one.Now(), batch.Now())
				}
			}
		}
	}

	// Interleaved cycle counts on either side of the 256 below which
	// ChargeUnits looks the per-unit duration up, each step checked.
	steps := []int64{1, 4, 255, 20, 256, 80, 257, 40, 420, 1, 1000, 200, 1 << 20, 3, 255}
	for _, hz := range []float64{device.SmartUSB2007().CPUHz, 1e9 / 3} {
		one, batch := sim.NewClock(), sim.NewClock()
		perCall, perBatch := sim.NewCPU(one, hz), sim.NewCPU(batch, hz)
		for i, c := range steps {
			n := int64(1 + 37*i%11)
			for j := int64(0); j < n; j++ {
				perCall.Charge(c)
			}
			perBatch.ChargeUnits(c, n)
			if one.Now() != batch.Now() {
				t.Fatalf("%.0f Hz, step %d (%d × %d cycles): Charge = %v, ChargeUnits = %v", hz, i, n, c, one.Now(), batch.Now())
			}
		}
	}
}
