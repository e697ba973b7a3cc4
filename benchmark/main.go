// Command benchmark is GhostDB's one benchmark spine: four workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// attributes them to layers. BENCHMARK.json at the repository root names
// every workload and metric; README.md in this directory explains them.
//
//	bash benchmark/run.sh --workload plan_mix --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh set -o a.json        # ten seeds of every workload, round-robin
//	bash benchmark/run.sh compare a.json b.json
//
// It drives the system through its public entry points only and does not
// import internal/bench, so edits to the paper-experiment harness cannot
// change what is measured here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metrics maps a metric name from BENCHMARK.json to its measured value.
type metrics map[string]float64

// config is one run's input: the contract's four flags plus the knobs
// the tests and the set runner turn.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reps     int    // fresh-database repetitions in an untraced run
	scale    int    // prescriptions; 0 selects the workload's own scale
	outDir   string // where a traced run writes its spans
	tmpDir   string // where the file backend keeps its device directories
}

const defaultReps = 5

// defaultConfig is a run as run.sh starts it, from the repository root.
func defaultConfig() config {
	return config{seed: goldenSeed, reps: defaultReps,
		outDir: filepath.Join("benchmark", "out"), tmpDir: filepath.Join(".bench_build", "tmp")}
}

// workload is one of the four traffic shapes. The runner calls setup,
// warmup, measure (once, or twice in a traced run) and finish once per
// repetition, each time on a fresh database.
type workload interface {
	// setup builds the database (and server) from scratch; the runner
	// times it as setup_s.
	setup() error
	// warmup runs the workload's fixed single-threaded sequence once:
	// it fills caches, checks every result against the oracle, and —
	// because the sequence is fixed — yields the exact simulated device
	// time per op.
	warmup() (simMsPerOp float64, err error)
	// measure runs the closed loop for d, and for one unit at least — a
	// unit being the block the loop repeats: one walk of the request
	// cycle, one pass, one round. It returns the wall time, in
	// milliseconds, of each op and of each unit. With a tracer it records
	// spans and layer counts as it goes.
	measure(d time.Duration, tr *tracer) (opMs, unitMs []float64)
	// opsPerUnit is how many ops one unit holds.
	opsPerUnit() int
	// finish verifies results once more after the measured phase and
	// tears the database down. In a traced run it first takes the layer
	// probes that are not part of the op loop.
	finish(tr *tracer) error
	// layerMetrics reports the per-layer metrics of a traced run.
	layerMetrics(tr *tracer, m metrics)
	// tailPercentile is the fixed percentile the traced run's op_tail_ms
	// is taken at.
	tailPercentile() float64
	// simByTemplate is the simulated time of the warm-up sequence, split
	// by template: what golden_sim.json pins.
	simByTemplate() map[string]time.Duration
}

func newWorkload(cfg config, t *tally) (workload, error) {
	switch cfg.workload {
	case "http_point":
		return newHTTPPoint(cfg, t)
	case "plan_mix":
		return newPassWorkload(cfg, t, 1)
	case "shard_scatter":
		return newPassWorkload(cfg, t, 4)
	case "write_ckpt":
		return newWriteCkpt(cfg, t)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// result is what one run reports; its JSON form is the contract's last
// output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostMeter reads the process-wide counters around a measured phase.
type hostMeter struct {
	mem   runtime.MemStats
	ru    syscall.Rusage
	start time.Time
}

func startMeter() *hostMeter {
	h := &hostMeter{}
	runtime.ReadMemStats(&h.mem)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &h.ru) // cannot fail for RUSAGE_SELF
	h.start = time.Now()
	return h
}

type hostDelta struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration
	cpu        time.Duration
}

func (h *hostMeter) stop() hostDelta {
	wall := time.Since(h.start)
	var mem runtime.MemStats
	var ru syscall.Rusage
	runtime.ReadMemStats(&mem)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return hostDelta{
		wall:       wall,
		mallocs:    mem.Mallocs - h.mem.Mallocs,
		allocBytes: mem.TotalAlloc - h.mem.TotalAlloc,
		gcPause:    time.Duration(mem.PauseTotalNs - h.mem.PauseTotalNs),
		cpu:        tv(ru.Utime) + tv(ru.Stime) - tv(h.ru.Utime) - tv(h.ru.Stime),
	}
}

func (a *hostDelta) add(b hostDelta) {
	a.wall, a.cpu, a.gcPause = a.wall+b.wall, a.cpu+b.cpu, a.gcPause+b.gcPause
	a.mallocs, a.allocBytes = a.mallocs+b.mallocs, a.allocBytes+b.allocBytes
}

func heapLiveMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// runWorkload executes one run of one workload and returns its metrics:
// the end-to-end set for an untraced run, the per-layer set for a traced
// one.
func runWorkload(cfg config) (*result, error) {
	var t tally
	w, err := newWorkload(cfg, &t)
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden(cfg)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	if cfg.trace {
		err = tracedRun(cfg, w, m)
	} else {
		err = untracedRun(cfg, w, m)
	}
	if err != nil {
		return nil, err
	}
	// Every pinned template is a check of every run at the golden seed, so
	// a device model that moved makes the run incorrect, traced or not; the
	// traced run also reports the count.
	if drift := goldenDrift(&t, golden, w.simByTemplate()); cfg.trace {
		m["sim.golden_drift"] = float64(drift)
	}
	res := &result{
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	for name, v := range m {
		res.Metrics[name] = metricValue{Value: v}
	}
	return res, nil
}

// sliceLen is the length of the slices a repetition's measured phase is
// cut into, with a calibration burst before each and after the last. A
// tenth of a second is one or two units, so the kernel is sampled right
// next to the ops it calibrates. Run alternately on one seed, slices of a
// second with 16-call bursts spread plan_mix's op_p10_ms by 4.4 % over ten
// runs, a quarter of a second with 4-call bursts by 2.6 %; on
// shard_scatter a quarter of a second gave 3.2 %, a tenth with 2-call
// bursts 1.7 %.
const sliceLen = 100 * time.Millisecond

// untracedRun repeats setup → warm-up → measure → verify on fresh
// databases. Counts and setup_s are the median of the per-repetition
// values. The two wall metrics are taken at the 10th percentile of the
// samples pooled from all repetitions and calibrated (see calib.go):
// op_p10_ms from the op times, ops_per_s from the unit times, so that
// what a unit holds besides its ops — garbage collection, dirty queries,
// the checkpoint — counts against the rate.
func untracedRun(cfg config, w workload, m metrics) error {
	reps := cfg.reps
	per := time.Duration(cfg.seconds / float64(reps) * float64(time.Second))
	var setup, sim, allocs, heap, opMs, unitMs, kernelMs []float64
	for r := 0; r < reps; r++ {
		runtime.GC() // the previous repetition's database is garbage by now
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		simPerOp, err := w.warmup()
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		sim = append(sim, simPerOp)
		heap = append(heap, heapLiveMB())

		var host hostDelta
		ops := 0
		// A slice ends with the unit that crosses its deadline, so the phase
		// is counted out in measured time, not in slices.
		for host.wall < per {
			kernelMs = append(kernelMs, calibrate()...)
			meter := startMeter()
			op, unit := w.measure(min(per-host.wall, sliceLen), nil)
			host.add(meter.stop())
			ops += len(op)
			opMs, unitMs = append(opMs, op...), append(unitMs, unit...)
		}
		kernelMs = append(kernelMs, calibrate()...)
		allocs = append(allocs, float64(host.mallocs)/float64(ops))
		if err := w.finish(nil); err != nil {
			return fmt.Errorf("verification: %w", err)
		}
	}
	kernel := quiet(kernelMs)
	m["setup_s"] = median(setup)
	m["ops_per_s"] = float64(w.opsPerUnit()) / (calibrated(quiet(unitMs), kernel) / 1000)
	m["op_p10_ms"] = calibrated(quiet(opMs), kernel)
	m["sim_ms_per_op"] = median(sim)
	m["allocs_per_op"] = median(allocs)
	m["heap_live_mb"] = median(heap)
	return nil
}

// tracedRun is one repetition whose measured phase alternates between
// slices with tracing off, which give the host counters and the raw
// wall-clock figures, and slices with spans on. The difference between
// the two rates is the tracing overhead; alternating keeps a drift of the
// machine out of it.
func tracedRun(cfg config, w workload, m metrics) error {
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if _, err := w.warmup(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	const pairs = 5
	slice := time.Duration(cfg.seconds / (2 * pairs) * float64(time.Second))
	tr := newTracer()
	var plain hostDelta
	var tracedOps int
	var tracedWall time.Duration
	var pooled, kernelMs []float64
	peak := watchGoroutines()
	for i := 0; i < pairs; i++ {
		kernelMs = append(kernelMs, calibrate()...)
		meter := startMeter()
		op, _ := w.measure(slice, nil)
		plain.add(meter.stop())
		pooled = append(pooled, op...)

		t0 := time.Now()
		op, _ = w.measure(slice, tr)
		tracedWall += time.Since(t0)
		tracedOps += len(op)
	}
	m["host.goroutines_peak"] = float64(peak())
	if err := w.finish(tr); err != nil {
		return fmt.Errorf("verification: %w", err)
	}

	sort.Float64s(pooled)
	tail := w.tailPercentile()
	if beyond := samplesBeyond(len(pooled), tail); beyond < 10 {
		fmt.Fprintf(os.Stderr, "note: only %d of %d untraced samples lie beyond p%g; p%g is the highest percentile with ten beyond it\n",
			beyond, len(pooled), tail, highestTail(len(pooled)))
	}
	ops := float64(len(pooled))
	plainRate := ops / plain.wall.Seconds()
	m["raw.op_p50_ms"] = percentile(pooled, 50)
	m["op_tail_ms"] = percentile(pooled, tail)
	m["raw.ops_per_s"] = plainRate
	m["host.calib_ms"] = quiet(kernelMs)
	m["host.cpu_ms_per_op"] = ms(plain.cpu) / ops
	m["host.alloc_bytes_per_op"] = float64(plain.allocBytes) / ops
	m["host.gc_pause_ms"] = ms(plain.gcPause)
	m["trace.overhead_pct"] = 100 * (plainRate - float64(tracedOps)/tracedWall.Seconds()) / plainRate
	w.layerMetrics(tr, m)
	printShares(tr.spans)
	return writeSpans(cfg.outDir, cfg.workload, tr.spans)
}

// printShares writes, to standard error, where the traced ops' wall time
// went: each span name's summed self time as a share of the summed wall
// of the root spans. Self times partition a root's interval, so the
// shares of one root's tree add up to 100%.
func printShares(spans []span) {
	lt := groupSpans(spans)
	var rootWall float64
	for _, s := range spans {
		if s.Parent == 0 {
			rootWall += float64(s.End - s.Start)
		}
	}
	names := make([]string, 0, len(lt.self))
	for name := range lt.self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return sum(lt.self[names[i]]) > sum(lt.self[names[j]]) })
	fmt.Fprintf(os.Stderr, "%-16s %9s %12s %7s\n", "span", "count", "self ms", "share")
	for _, name := range names {
		self := sum(lt.self[name])
		fmt.Fprintf(os.Stderr, "%-16s %9d %12.3f %6.1f%%\n", name, len(lt.self[name]), self/1e6, 100*self/rootWall)
	}
}

// watchGoroutines samples the goroutine count every few milliseconds on
// its own goroutine until the returned function is called, which stops
// the sampler, waits for it and returns the peak.
func watchGoroutines() (stop func() int) {
	done, exited := make(chan struct{}), make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				exited <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int { close(done); return <-exited }
}

// spec is BENCHMARK.json: the single place a metric's unit, direction
// and bound are written down. The program reads it to label its output
// and to judge a comparison, so the two can never disagree.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory: the
// repository root, where run.sh starts the program and TestMain moves the
// tests.
func loadSpec() (*spec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// label fills in units from the spec and checks the run reported exactly
// the metric set the spec declares for its mode. A per-layer metric that
// does not apply to the workload reads 0; an end-to-end metric must
// always be measured.
func (s *spec) label(res *result, traced bool) error {
	declared := s.EndToEnd
	if traced {
		declared = s.PerLayer
	}
	out := make(map[string]metricValue, len(declared))
	for _, d := range declared {
		v, ok := res.Metrics[d.Name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v.Value, Unit: d.Unit}
	}
	for name := range res.Metrics {
		if _, ok := out[name]; !ok {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	res.Metrics = out
	return nil
}

func printResult(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Printf("%-28s %16.6f %s\n", name, v.Value, v.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func runMain(args []string) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := defaultConfig()
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "http_point | plan_mix | shard_scatter | write_ckpt")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "dataset and key seed")
	fs.Float64Var(&cfg.seconds, "seconds", float64(sp.RunSeconds), "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace != 0
	res, err := runWorkload(cfg)
	if err == nil {
		err = sp.label(res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "set":
			os.Exit(setMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "golden":
			os.Exit(goldenMain())
		}
	}
	os.Exit(runMain(os.Args[1:]))
}
