package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// goldenSeed is the one seed whose simulated costs are pinned.
const goldenSeed = 42

// golden_sim.json holds, per workload, the exact simulated nanoseconds of
// each template in the workload's fixed warm-up sequence at goldenSeed.
// Simulated time is a pure function of the device model and the data, so
// any difference means the device model changed — which a host-side
// optimisation must never do. Regenerate with `run.sh golden` only when a
// change to the model is the point of the PR.
//
//go:embed golden_sim.json
var goldenJSON []byte

// loadGolden returns the pinned costs for the workload, or nil when the
// run is not comparable to them (another seed, or a non-default scale).
func loadGolden(cfg config) (map[string]int64, error) {
	if cfg.seed != goldenSeed || cfg.scale != 0 {
		return nil, nil
	}
	var all map[string]map[string]int64
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden_sim.json: %w", err)
	}
	return all[cfg.workload], nil
}

// goldenDrift checks the run's simulated time per template against the
// pinned values and returns how many differ. Each pinned template is one
// check of the tally, and a template that is not pinned is a failed one:
// a drift makes the run incorrect, it is not only a line on standard
// error.
func goldenDrift(t *tally, golden map[string]int64, sim map[string]time.Duration) int {
	if golden == nil {
		return 0
	}
	drift := 0
	for name, want := range golden {
		got, ok := sim[name]
		if !t.check(ok && got.Nanoseconds() == want, "golden: %s simulated %d ns (ran: %v), pinned %d ns", name, got.Nanoseconds(), ok, want) {
			drift++
		}
	}
	for name := range sim {
		if _, ok := golden[name]; !ok {
			t.check(false, "golden: %s is not pinned", name)
			drift++
		}
	}
	return drift
}

// simOf runs one workload's warm-up sequence at goldenSeed and returns
// its simulated nanoseconds by template.
func simOf(name string) (map[string]int64, error) {
	var t tally
	cfg := defaultConfig()
	cfg.workload = name
	w, err := newWorkload(cfg, &t)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		return nil, err
	}
	if _, err := w.warmup(); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for tmpl, d := range w.simByTemplate() {
		out[tmpl] = d.Nanoseconds()
	}
	if err := w.finish(nil); err != nil {
		return nil, err
	}
	if n := t.failed.Load(); n > 0 {
		return nil, fmt.Errorf("%d checks failed", n)
	}
	return out, nil
}

// goldenMain re-pins golden_sim.json from the current device model.
func goldenMain() int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	all := map[string]map[string]int64{}
	for _, wl := range sp.Workloads {
		if all[wl.Name], err = simOf(wl.Name); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.Name, err)
			return 1
		}
	}
	blob, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join("benchmark", "golden_sim.json"), append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
