package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// setFile is what `set` writes and `compare` reads: every run's value of
// every end-to-end metric, per workload, with where and how they were
// measured.
type setFile struct {
	Env      envInfo                         `json:"env"`
	EndToEnd map[string]map[string][]float64 `json:"end_to_end"`          // workload → metric → one value per run
	PerLayer map[string]map[string]float64   `json:"per_layer,omitempty"` // workload → metric, from one traced run
}

type envInfo struct {
	Commit     string  `json:"commit"`
	FirstSeed  int64   `json:"first_seed"` // run i of a workload uses first_seed + i
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	When       string  `json:"when"`
}

func currentEnv() envInfo {
	env := envInfo{Commit: "unknown", Kernel: "unknown", GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Go: runtime.Version(), When: time.Now().UTC().Format(time.RFC3339)}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}

// setRuns is how many runs of each workload a set holds, run i at seed
// first_seed + i. Ten is what the guides ask for, and a constant keeps a
// parent's set and a change's set the same shape.
const setRuns = 10

// setMain runs every workload setRuns times for the run length
// BENCHMARK.json fixes, each time with another seed, going round the
// workloads so that a noisy stretch of the machine is spread over all of
// them.
func setMain(args []string) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fs := flag.NewFlagSet("set", flag.ContinueOnError)
	out := fs.String("o", "", "result file to write (required)")
	seed := fs.Int64("seed", goldenSeed, "seed of the first run")
	traced := fs.Bool("trace", false, "add one traced run per workload")
	if err := fs.Parse(args); err != nil || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: set -o file.json [-seed 42] [-trace]")
		return 2
	}
	set := setFile{Env: currentEnv(), EndToEnd: map[string]map[string][]float64{}, PerLayer: map[string]map[string]float64{}}
	set.Env.FirstSeed, set.Env.Runs, set.Env.Seconds = *seed, setRuns, float64(sp.RunSeconds)
	cfg := defaultConfig()
	cfg.seconds = set.Env.Seconds
	failed := false
	one := func(workload string, seed int64, trace bool) map[string]metricValue {
		cfg.workload, cfg.seed, cfg.trace = workload, seed, trace
		res, err := runWorkload(cfg)
		if err == nil {
			err = sp.label(res, trace)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", workload, seed, err)
			failed = true
			return nil
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d of %d checks failed\n", workload, seed, res.Failed, res.Attempted)
			failed = true
		}
		return res.Metrics
	}
	for i := 0; i < setRuns; i++ {
		for _, wl := range sp.Workloads {
			if set.EndToEnd[wl.Name] == nil {
				set.EndToEnd[wl.Name] = map[string][]float64{}
			}
			for name, v := range one(wl.Name, *seed+int64(i), false) {
				set.EndToEnd[wl.Name][name] = append(set.EndToEnd[wl.Name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", i+1, setRuns, wl.Name)
		}
	}
	if *traced {
		for _, wl := range sp.Workloads {
			set.PerLayer[wl.Name] = map[string]float64{}
			for name, v := range one(wl.Name, *seed, true) {
				set.PerLayer[wl.Name][name] = v.Value
			}
		}
	}
	blob, err := json.MarshalIndent(set, "", " ")
	if err == nil {
		err = os.WriteFile(*out, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

// gate is the bound compare judges a metric by, where that is tighter
// than the one BENCHMARK.json declares. The driver runs every seed once,
// refuses a benchmark whose spread between those runs exceeds the declared
// bound, and wants that spread below a third of it: a declared bound
// therefore stands three times clear of the sandbox's noise (wall
// metrics) and of how much the data of different seeds differ (the two
// counts). compare sees a parent and a change at the same seeds and holds
// them to the bounds the issue set: a 20 % loss of throughput must never
// read `same`.
type gate struct {
	bound float64
	// perSeed metrics are counts made by the program, not timings: at one
	// seed they repeat exactly (simulated time) or to a fraction of a
	// percent (allocations), so each run is judged against the parent's
	// run at the same seed.
	perSeed bool
}

var gates = map[string]gate{
	"setup_s":       {bound: 0.10},
	"ops_per_s":     {bound: 0.10},
	"op_p10_ms":     {bound: 0.10},
	"sim_ms_per_op": {bound: 0, perSeed: true},
	"allocs_per_op": {bound: 0.02, perSeed: true},
}

// verdict judges metric values b (the change) against a (the parent).
// worseBy is the relative move of the median in the metric's bad
// direction. The rule is the one the guides fix: a spread wider than the
// bound resolves nothing unless every run of b beats every run of a; a
// median worse by more than the bound is a regression; a median better
// by more than the parent's own spread is a gain.
func verdict(a, b []float64, higherIsBetter bool, bound float64) (worseBy float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worseBy = (mb - ma) / ma
	}
	if higherIsBetter {
		worseBy = -worseBy
	}
	if max(spread(a), spread(b)) > bound {
		if allBetter(a, b, higherIsBetter) {
			return worseBy, "better"
		}
		return worseBy, "unresolved"
	}
	switch {
	case worseBy > bound:
		return worseBy, "worse"
	case worseBy < 0 && -worseBy > spread(a):
		return worseBy, "better"
	}
	return worseBy, "same"
}

// allBetter reports whether every value of b is better than every value
// of a.
func allBetter(a, b []float64, higherIsBetter bool) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if higherIsBetter {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

// perSeedVerdict judges a count run for run: b[i] against a[i], both
// measured at the same seed. One seed worse by more than the bound is a
// regression, however the other nine read; with none worse, a median move
// for the better beyond the bound is a gain. worseBy is the move of the
// seed that fared worst, or the median move when the verdict is a gain.
func perSeedVerdict(a, b []float64, higherIsBetter bool, bound float64) (worseBy float64, v string) {
	moves := make([]float64, 0, len(a))
	for i := range a {
		move := 0.0
		if a[i] != 0 {
			move = (b[i] - a[i]) / a[i]
		}
		if higherIsBetter {
			move = -move
		}
		moves = append(moves, move)
	}
	worst, mid := slices.Max(moves), median(moves)
	switch {
	case worst > bound:
		return worst, "worse"
	case mid < -bound:
		return mid, "better"
	}
	return worst, "same"
}

func readSet(path string) (*setFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setFile
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// sameShape refuses to compare sets that were not measured alike: run
// length, run count and seeds are fixed by the benchmark and must be the
// same on both sides.
func sameShape(a, b envInfo) error {
	if a.Seconds != b.Seconds || a.Runs != b.Runs || a.FirstSeed != b.FirstSeed {
		return fmt.Errorf("the sets were not measured alike: parent %g s × %d runs from seed %d, change %g s × %d runs from seed %d",
			a.Seconds, a.Runs, a.FirstSeed, b.Seconds, b.Runs, b.FirstSeed)
	}
	return nil
}

// compareMain prints one row per (metric, workload) and exits non-zero if
// any pairing got worse by more than its bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare parent.json change.json")
		return 2
	}
	sp, err := loadSpec()
	var a, b *setFile
	if err == nil {
		a, err = readSet(args[0])
	}
	if err == nil {
		b, err = readSet(args[1])
	}
	if err == nil {
		err = sameShape(a.Env, b.Env)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("parent %s (%s)   change %s (%s)   %d runs of %g s from seed %d\n",
		a.Env.Commit, a.Env.When, b.Env.Commit, b.Env.When, a.Env.Runs, a.Env.Seconds, a.Env.FirstSeed)
	fmt.Printf("%-14s %-14s %38s %38s %7s %9s %7s  %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "spread", "worse by", "bound", "verdict")
	counts := map[string]int{}
	for _, ms := range sp.EndToEnd {
		g, tighter := gates[ms.Name]
		if !tighter {
			g = gate{bound: ms.Bound}
		}
		for _, wl := range sp.Workloads {
			va, vb := a.EndToEnd[wl.Name][ms.Name], b.EndToEnd[wl.Name][ms.Name]
			if len(va) != a.Env.Runs || len(vb) != b.Env.Runs {
				fmt.Printf("%-14s %-14s a run is missing\n", ms.Name, wl.Name)
				counts["unresolved"]++
				continue
			}
			// Between seeds a count spreads with the data, which says nothing
			// about a run-for-run judgment: no spread is printed for it.
			judge, note, noise := verdict, "", fmt.Sprintf("%6.2f%%", 100*max(spread(va), spread(vb)))
			if g.perSeed {
				judge, note, noise = perSeedVerdict, " (run for run)", "      -"
			}
			worseBy, v := judge(va, vb, ms.Better == "higher", g.bound)
			counts[v]++
			fmt.Printf("%-14s %-14s %38s %38s %s %+8.2f%% %6.1f%%  %s%s\n", ms.Name, wl.Name, summary(va), summary(vb),
				noise, 100*worseBy, 100*g.bound, v, note)
		}
	}
	fmt.Printf("better %d, same %d, worse %d, unresolved %d\n", counts["better"], counts["same"], counts["worse"], counts["unresolved"])
	if counts["worse"] > 0 {
		return 1
	}
	return 0
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(v), q1, q3)
}
