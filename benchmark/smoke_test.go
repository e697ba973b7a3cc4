package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestMain runs the tests from the repository root, where BENCHMARK.json
// is and where run.sh starts the program.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload end to end at a small scale, untraced
// and traced: all results correct, and exactly the metric set
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 4 {
		t.Fatalf("BENCHMARK.json names %d workloads, want 4", len(sp.Workloads))
	}
	for _, wl := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := config{workload: wl.Name, seed: 7, seconds: 0.4, trace: traced, reps: 1, scale: 2000,
				outDir: filepath.Join(dir, "out"), tmpDir: filepath.Join(dir, "tmp")}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d checks failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			if err := sp.label(res, traced); err != nil {
				t.Errorf("%s (trace %v): %v", wl.Name, traced, err)
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", wl.Name, name, v.Value)
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+wl.Name+".jsonl")); err != nil {
				t.Errorf("%s: traced run left no span file: %v", wl.Name, err)
			}
		}
	}
}
