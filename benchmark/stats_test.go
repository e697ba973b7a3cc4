package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileIsAnObservedSample(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestSamplesBeyondAndHighestTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{100, 90, 10}, {100, 99, 1}, {1000, 99, 10}, {57, 90, 5}, {130, 90, 13}} {
		if got := samplesBeyond(c.n, c.p); got != c.beyond {
			t.Errorf("samplesBeyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1.5, 9.2}, 1.25, 6.6},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{3, 1, 7}, 1, 7},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // sticks out of the parent by 20
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // a grandchild does not count against root
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Within one tree, clipped self times add up to the root's duration.
	clean := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "leaf", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 50, End: 95},
	}
	var total int64
	for _, d := range selfTimes(clean) {
		total += d
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100", total)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"unchanged", base, scaled(1.01), false, "same"},
		{"slower latency", base, scaled(1.2), false, "worse"},
		{"faster latency", base, scaled(0.9), false, "better"},
		{"higher throughput", base, scaled(1.2), true, "better"},
		{"lower throughput", base, scaled(0.8), true, "worse"},
		{"too noisy to say", noisy, scaled(1.0), false, "unresolved"},
		{"noisy but every run wins", noisy, scaled(0.5), false, "better"},
	} {
		if _, got := verdict(c.a, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestPerSeedVerdict(t *testing.T) {
	base := []float64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	with := func(change func(i int, v float64) float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = change(i, v)
		}
		return out
	}
	oneSeedUp := with(func(i int, v float64) float64 {
		if i == 3 {
			return v * 1.05
		}
		return v
	})
	for _, c := range []struct {
		name  string
		b     []float64
		bound float64
		want  string
	}{
		{"bit-identical", base, 0, "same"},
		{"one seed of ten moved, exact metric", oneSeedUp, 0, "worse"},
		{"one seed of ten moved beyond the bound", oneSeedUp, 0.02, "worse"},
		{"one seed of ten moved within the bound", oneSeedUp, 0.10, "same"},
		{"jitter within the bound", with(func(i int, v float64) float64 { return v * (1 + 0.001*float64(i%3-1)) }), 0.02, "same"},
		{"every seed lower, exact metric", with(func(_ int, v float64) float64 { return v * 0.9 }), 0, "better"},
		{"every seed lower beyond the bound", with(func(_ int, v float64) float64 { return v * 0.9 }), 0.02, "better"},
	} {
		if _, got := perSeedVerdict(base, c.b, false, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// The unpaired rule would not see the one seed: the medians agree.
	if _, got := verdict(base, oneSeedUp, false, 1); got != "same" {
		t.Errorf("unpaired verdict on one moved seed = %s, want same", got)
	}
}

func TestSetsMustBeMeasuredAlike(t *testing.T) {
	a := envInfo{Seconds: 20, Runs: 10, FirstSeed: 42}
	if err := sameShape(a, a); err != nil {
		t.Errorf("equal shapes refused: %v", err)
	}
	for _, b := range []envInfo{{Seconds: 5, Runs: 10, FirstSeed: 42}, {Seconds: 20, Runs: 3, FirstSeed: 42}, {Seconds: 20, Runs: 10, FirstSeed: 1000}} {
		if sameShape(a, b) == nil {
			t.Errorf("sets measured as %+v and %+v were accepted for comparison", a, b)
		}
	}
}

func TestGoldenDriftFailsTheRun(t *testing.T) {
	golden := map[string]int64{"demo": 100, "deep": 200, "sweep": 300}
	ns := func(m map[string]int64) map[string]time.Duration {
		out := map[string]time.Duration{}
		for k, v := range m {
			out[k] = time.Duration(v)
		}
		return out
	}
	for _, c := range []struct {
		name  string
		sim   map[string]int64
		drift int
	}{
		{"as pinned", map[string]int64{"demo": 100, "deep": 200, "sweep": 300}, 0},
		{"one template changed", map[string]int64{"demo": 101, "deep": 200, "sweep": 300}, 1},
		{"one template missing", map[string]int64{"demo": 100, "deep": 200}, 1},
		{"one template not pinned", map[string]int64{"demo": 100, "deep": 200, "sweep": 300, "extra": 1}, 1},
		{"changed, missing and extra", map[string]int64{"demo": 1, "deep": 200, "extra": 1}, 3},
	} {
		var tl tally
		if got := goldenDrift(&tl, golden, ns(c.sim)); got != c.drift {
			t.Errorf("%s: drift %d, want %d", c.name, got, c.drift)
		}
		if failed := tl.failed.Load(); failed != int64(c.drift) {
			t.Errorf("%s: %d failed checks, want one per drifted template (%d)", c.name, failed, c.drift)
		}
		if tl.attempted.Load() < int64(len(golden)) {
			t.Errorf("%s: %d checks, want at least one per pinned template", c.name, tl.attempted.Load())
		}
	}
	// Another seed or scale has nothing pinned and nothing to check.
	var tl tally
	if got := goldenDrift(&tl, nil, ns(map[string]int64{"demo": 1})); got != 0 || tl.attempted.Load() != 0 {
		t.Errorf("no golden: drift %d after %d checks, want 0 and 0", got, tl.attempted.Load())
	}
}

func TestCalibrationScalesToTheQuietMachine(t *testing.T) {
	// A machine that runs the kernel in twice its nominal time runs
	// everything at half speed: the op is reported at half its wall time.
	if got := calibrated(100, 2*calibNominalMs); math.Abs(got-50) > 1e-9 {
		t.Errorf("calibrated(100 ms, kernel at twice nominal) = %g, want 50", got)
	}
	if got := calibrated(100, calibNominalMs); got != 100 {
		t.Errorf("calibrated on the quiet machine = %g, want the wall time, 100", got)
	}
	// Interference only adds time: nine disturbed samples in ten leave the
	// quiet value where it was.
	samples := []float64{5, 9, 30, 7, 8, 12, 6, 40, 11, 10}
	if got := quiet(samples); got != 5 {
		t.Errorf("quiet = %g, want the 10th percentile, 5", got)
	}
	if samples[0] != 5 || samples[2] != 30 {
		t.Error("quiet reordered its argument")
	}
}
