package bench

import (
	"strings"
	"testing"
)

const testScale = 3000

func TestFig6AndFormat(t *testing.T) {
	cfg := Config{Scale: testScale}
	db, _, err := BuildDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Fig6(db, DemoQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("%d plans", len(rows))
	}
	base := rows[0].Rows
	for _, r := range rows {
		if r.Rows != base {
			t.Errorf("plan %s row count %d != %d", r.Label, r.Rows, base)
		}
		if r.Time <= 0 {
			t.Errorf("plan %s no time", r.Label)
		}
	}
	out := FormatPlanRows(rows)
	if !strings.Contains(out, "P1") || !strings.Contains(out, "#") {
		t.Errorf("format: %q", out)
	}
	if FormatPlanRows(nil) == "" {
		t.Error("empty format")
	}

	fig5, err := Fig5(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"post-filter", "BloomBuild", "MergeProject"} {
		if !strings.Contains(fig5, want) {
			t.Errorf("fig5 missing %q", want)
		}
	}
}

func TestSweepAndBaselines(t *testing.T) {
	cfg := Config{Scale: testScale}
	db, _, err := BuildDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	points, err := SelectivitySweep(db, []float64{0.05, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].Pre <= 0 || points[1].Post <= 0 {
		t.Fatalf("sweep: %+v", points)
	}
	if !strings.Contains(FormatSweep(points), "winner") {
		t.Error("sweep format")
	}

	rows, err := Baselines(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d baseline rows", len(rows))
	}
	for _, r := range rows[1:4] {
		if r.Rows != rows[0].Rows {
			t.Errorf("%s disagrees on cardinality: %d vs %d", r.Name, r.Rows, rows[0].Rows)
		}
	}
	if !strings.Contains(FormatBaselines(rows), "isolated deep") {
		t.Error("baseline format")
	}

	st := Storage(db)
	if len(st) != 4 || st[3].Bytes <= 0 {
		t.Fatalf("storage: %+v", st)
	}
	if !strings.Contains(FormatStorage(st, testScale), "climbing") {
		t.Error("storage format")
	}
}

func TestRebuildExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuild experiments skipped in -short mode")
	}
	cfg := Config{Scale: testScale}

	bus, err := BusSpeed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bus) != 2 || bus[0].Link == bus[1].Link {
		t.Fatalf("bus: %+v", bus)
	}
	_ = FormatBus(bus)

	spy, err := Spy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if spy.Leaks != 0 {
		t.Fatalf("spy found %d leaks", spy.Leaks)
	}
	if spy.SpyMessages == 0 || spy.SecureHidden == 0 {
		t.Errorf("spy: %+v", spy)
	}
	if !strings.Contains(FormatSpy(spy), "leak audit") {
		t.Error("spy format")
	}

	ram, err := RAMSweep(cfg, []int{16 << 10, 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ram) != 2 {
		t.Fatalf("ram: %+v", ram)
	}
	_ = FormatRAM(ram)

	writes, err := WriteRatio(cfg, []float64{3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 2 {
		t.Fatalf("writes: %+v", writes)
	}
	if writes[1].Grace <= writes[0].Grace {
		t.Errorf("higher write ratio did not slow the write-heavy baseline: %+v", writes)
	}
	_ = FormatWrites(writes)
}

func TestGameAblationsBloom(t *testing.T) {
	cfg := Config{Scale: testScale}
	db, _, err := BuildDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, pick, err := Game(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 || pick == "" {
		t.Fatalf("game: %d rows, pick %q", len(rows), pick)
	}
	if !strings.Contains(FormatGame(rows, pick), "optimizer") {
		t.Error("game format")
	}

	abl, err := Ablations(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != 3 {
		t.Fatalf("%d ablations", len(abl))
	}
	dev, err := DeviceIndexAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dev.With <= 0 || dev.Without <= 0 {
		t.Fatalf("device ablation: %+v", dev)
	}
	_ = FormatAblations(append(abl, dev))

	bl, err := BloomFPR([]int{5000}, []float64{9.6})
	if err != nil {
		t.Fatal(err)
	}
	if bl[0].Measured > 3*bl[0].Analytic+0.01 {
		t.Errorf("bloom fpr: %+v", bl[0])
	}
	_ = FormatBloom(bl)
}

// TestLoadGenOrderStatistics: the loadgen report's latency quantiles are
// samples of the run, so they are ordered and none exceeds the maximum
// (bucketed quantiles could, and did: p99 above max_ns).
func TestLoadGenOrderStatistics(t *testing.T) {
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.991, 100}, {1, 100}, {0, 1}} {
		if got := orderStat(sorted, c.q); got != c.want {
			t.Errorf("orderStat(1..100, %v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := orderStat(nil, 0.5); got != 0 {
		t.Errorf("orderStat of no samples = %d, want 0", got)
	}

	rep, err := LoadGenLocal(Config{Scale: 2000}, 8, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 40 || rep.Dropped != 0 || rep.RowsTotal != 40 {
		t.Fatalf("report = %+v, want 40 requests, 40 rows, 0 dropped", rep)
	}
	if !(0 < rep.P50NS && rep.P50NS <= rep.P95NS && rep.P95NS <= rep.P99NS && rep.P99NS <= rep.MaxNS) {
		t.Fatalf("quantiles out of order: %+v", rep)
	}
}
