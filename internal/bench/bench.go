package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/baseline"
	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// DemoQuery is the paper's Section 4 example, the workload of most
// experiments.
const DemoQuery = `SELECT Med.Name, Pre.Quantity, Vis.Date
FROM Medicine Med, Prescription Pre, Visit Vis
WHERE Vis.Date > 05-11-2006 /*VISIBLE*/
AND Vis.Purpose = "Sclerosis" /*HIDDEN*/
AND Med.Type = "Antibiotic"  /*VISIBLE*/
AND Med.MedID = Pre.MedID
AND Vis.VisID = Pre.VisID`

// DeepQuery reaches two foreign-key hops below the root — where the
// climbing indexes' transitive lists matter most.
const DeepQuery = `SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Doctor Doc
WHERE Doc.Country = 'Spain' AND Vis.Purpose = 'Sclerosis'`

// Config parameterizes a harness run.
type Config struct {
	Scale int   // prescriptions; the paper uses 1,000,000
	Seed  int64 // dataset seed
}

// BuildDB generates the dataset and loads a GhostDB with the given
// options.
func BuildDB(cfg Config, opts ...core.Option) (*core.DB, *datagen.Dataset, error) {
	c := datagen.WithScale(cfg.Scale)
	if cfg.Seed != 0 {
		c.Seed = cfg.Seed
	}
	ds := datagen.Generate(c)
	db, err := core.Open(opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := db.LoadDataset(ds); err != nil {
		return nil, nil, err
	}
	return db, ds, nil
}

// demoSpec builds a forced plan for the demo query: the strategy of the
// date predicate, the medicine predicate, and the cross switch. The demo
// query's predicates bind in WHERE order: Vis.Date, Vis.Purpose, Med.Type.
func demoSpec(label string, date, med plan.Strategy, cross bool) plan.Spec {
	return plan.Spec{
		Label:       label,
		Strategies:  []plan.Strategy{date, plan.StratHidIndex, med},
		CrossFilter: cross,
	}
}

// PlanRow is one plan's outcome — a bar of Figure 6.
type PlanRow struct {
	Label string
	Desc  string
	Time  time.Duration
	RAM   int64
	Rows  int
	Bus   int64
}

// Fig6 executes every enumerated plan for the query — the plan-time bars
// of Figure 6 plus the RAM comparison of demo phase 2.
func Fig6(db *core.DB, query string) ([]PlanRow, error) {
	q, err := db.Prepare(query)
	if err != nil {
		return nil, err
	}
	var rows []PlanRow
	for _, spec := range db.Plans(q) {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Label, err)
		}
		rows = append(rows, PlanRow{
			Label: spec.Label,
			Desc:  spec.Describe(q),
			Time:  res.Report.TotalTime,
			RAM:   res.Report.RAMHigh,
			Rows:  len(res.Rows),
			Bus:   res.Report.BusBytes,
		})
	}
	return rows, nil
}

// FormatPlanRows renders plan rows as a bar table.
func FormatPlanRows(rows []PlanRow) string {
	if len(rows) == 0 {
		return "(no plans)\n"
	}
	var worst time.Duration
	for _, r := range rows {
		if r.Time > worst {
			worst = r.Time
		}
	}
	sorted := append([]PlanRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %12s %10s %10s %8s\n", "plan", "time", "ram", "bus", "rows")
	for _, r := range sorted {
		n := int(float64(r.Time) / float64(worst) * 38)
		fmt.Fprintf(&b, "%-4s %12s %10s %10s %8d  %s\n",
			r.Label, stats.FormatDuration(r.Time), stats.FormatBytes(r.RAM),
			stats.FormatBytes(r.Bus), r.Rows, strings.Repeat("#", n+1))
		fmt.Fprintf(&b, "     %s\n", r.Desc)
	}
	return b.String()
}

// Fig5 forces the all-post plan of Figure 5 on the demo query and returns
// its operator report and explanation.
func Fig5(db *core.DB) (string, error) {
	q, err := db.Prepare(DemoQuery)
	if err != nil {
		return "", err
	}
	spec := demoSpec("Fig5", plan.StratVisPost, plan.StratVisPost, false)
	res, err := db.QueryWithPlan(q, spec)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(db.Explain(q, spec))
	b.WriteString(res.Report.String())
	return b.String(), nil
}

// SweepPoint is one selectivity of experiment E3.
type SweepPoint struct {
	Selectivity float64
	VisibleIDs  int
	Pre         time.Duration
	Post        time.Duration
	Cross       time.Duration
}

// SelectivitySweep varies the visible date predicate's selectivity and
// times the three strategies — the crossover experiment E3.
func SelectivitySweep(db *core.DB, sels []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, sel := range sels {
		cutoff := datagen.DateCutoff(sel)
		query := fmt.Sprintf(`SELECT Med.Name, Pre.Quantity, Vis.Date
FROM Medicine Med, Prescription Pre, Visit Vis
WHERE Vis.Date > '%s' AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic'
AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`, cutoff)
		q, err := db.Prepare(query)
		if err != nil {
			return nil, err
		}
		point := SweepPoint{Selectivity: sel}
		runs := []struct {
			dst  *time.Duration
			spec plan.Spec
		}{
			{&point.Pre, demoSpec("pre", plan.StratVisPre, plan.StratVisPre, false)},
			{&point.Post, demoSpec("post", plan.StratVisPost, plan.StratVisPost, false)},
			{&point.Cross, demoSpec("cross", plan.StratVisPre, plan.StratVisPre, true)},
		}
		for _, r := range runs {
			res, err := db.QueryWithPlan(q, r.spec)
			if err != nil {
				return nil, fmt.Errorf("sel %.2f %s: %w", sel, r.spec.Label, err)
			}
			*r.dst = res.Report.TotalTime
			point.VisibleIDs = visibleDateCount(res)
		}
		out = append(out, point)
	}
	return out, nil
}

func visibleDateCount(res *core.Result) int {
	// The size of the shipped Visit date list (pre) or Bloom input (post).
	for _, op := range res.Report.Ops {
		if (op.Name == "ShipIDList" || op.Name == "BloomBuild") &&
			strings.HasPrefix(op.Detail, "Visit") {
			return int(op.TuplesIn)
		}
	}
	return res.Report.ResultRows
}

// FormatSweep renders the sweep as a series table and marks crossovers.
func FormatSweep(points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %12s %12s %12s %s\n", "sel", "|IDs|", "pre", "post", "cross", "winner")
	for _, p := range points {
		winner := "pre"
		best := p.Pre
		if p.Post < best {
			winner, best = "post", p.Post
		}
		if p.Cross < best {
			winner = "cross"
		}
		fmt.Fprintf(&b, "%5.0f%% %10d %12s %12s %12s %s\n",
			p.Selectivity*100, p.VisibleIDs,
			stats.FormatDuration(p.Pre), stats.FormatDuration(p.Post),
			stats.FormatDuration(p.Cross), winner)
	}
	return b.String()
}

// BaselineRow is one algorithm's outcome in experiment E4.
type BaselineRow struct {
	Workload string
	Name     string
	Time     time.Duration
	RAM      int64
	Rows     int
}

// Baselines compares GhostDB's index structures against the paper's
// rejected alternatives. All algorithms run under the same bare-root-IDs
// contract on the same device, so the comparison isolates the index
// structures. Two workloads:
//
//   - "mixed depth-2": visible Doctor predicate + hidden Visit predicate.
//     Every level is occupied, so per-level intersection dominates and
//     join indices tie the climbing index; the scan-based joins die.
//   - "isolated deep": one hidden Patient predicate two hops below the
//     root — the precomputed transitive lists' home turf.
func Baselines(db *core.DB) ([]BaselineRow, error) {
	workloads := []struct {
		name string
		q    baseline.Query
	}{
		{"mixed depth-2", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			{Table: "Doctor", Column: "Country", P: pred.Compare(sql.OpEq, value.NewString(datagen.DemoCountry))},
			{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpEq, value.NewString(datagen.DemoPurpose)), Hidden: true},
		}}},
		{"isolated deep", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			{Table: "Patient", Column: "BodyMassIndex", P: pred.Compare(sql.OpGt, value.NewInt(40)), Hidden: true},
		}}},
	}
	be := db.BaselineEngine()
	var rows []BaselineRow
	for _, w := range workloads {
		for _, alg := range []baseline.Algorithm{baseline.Climbing, baseline.JoinIndex, baseline.BNL, baseline.GraceHash} {
			ids, rep, err := be.Run(w.q, alg)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", w.name, alg, err)
			}
			rows = append(rows, BaselineRow{Workload: w.name, Name: alg.String(),
				Time: rep.TotalTime, RAM: rep.RAMHigh, Rows: len(ids)})
		}
	}
	return rows, nil
}

// FormatBaselines renders E4 with slowdown factors per workload.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	var base time.Duration
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(&b, "workload: %s\n", r.Workload)
			fmt.Fprintf(&b, "  %-24s %12s %10s %8s %10s\n", "algorithm", "time", "ram", "rows", "vs climbing")
			base = r.Time
			last = r.Workload
		}
		fmt.Fprintf(&b, "  %-24s %12s %10s %8d %9.1fx\n",
			r.Name, stats.FormatDuration(r.Time), stats.FormatBytes(r.RAM), r.Rows,
			float64(r.Time)/float64(base))
	}
	return b.String()
}

// StorageRow is one structure's flash footprint (E5).
type StorageRow struct {
	Name  string
	Bytes int64
}

// Storage reports the device flash breakdown.
func Storage(db *core.DB) []StorageRow {
	st := db.Storage()
	return []StorageRow{
		{"hidden base columns", st.BaseColumns},
		{"subtree key tables", st.SKTs},
		{"climbing indexes", st.Climbing},
		{"total (page aligned)", st.Total},
	}
}

// FormatStorage renders E5.
func FormatStorage(rows []StorageRow, rootRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "flash footprint at %d prescriptions:\n", rootRows)
	total := rows[len(rows)-1].Bytes
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %10s (%4.1f%%)\n", r.Name, stats.FormatBytes(r.Bytes),
			100*float64(r.Bytes)/float64(total))
	}
	return b.String()
}

// BusRow compares link speeds (E6).
type BusRow struct {
	Link    string
	PrePlan time.Duration
	Post    time.Duration
}

// BusSpeed builds the database under both USB profiles and times the
// all-pre and all-post plans: post-filtering ships more bytes, so the
// 12 Mb/s link hurts it more.
func BusSpeed(cfg Config) ([]BusRow, error) {
	var out []BusRow
	for _, prof := range []bus.Profile{bus.USBFullSpeed(), bus.USBHighSpeed()} {
		db, _, err := BuildDB(cfg, core.WithUSB(prof))
		if err != nil {
			return nil, err
		}
		q, err := db.Prepare(DemoQuery)
		if err != nil {
			return nil, err
		}
		row := BusRow{Link: prof.Name}
		res, err := db.QueryWithPlan(q, demoSpec("pre", plan.StratVisPre, plan.StratVisPre, true))
		if err != nil {
			return nil, err
		}
		row.PrePlan = res.Report.TotalTime
		res, err = db.QueryWithPlan(q, demoSpec("post", plan.StratVisPost, plan.StratVisPost, false))
		if err != nil {
			return nil, err
		}
		row.Post = res.Report.TotalTime
		out = append(out, row)
	}
	return out, nil
}

// FormatBus renders E6.
func FormatBus(rows []BusRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %14s %14s\n", "link", "pre+cross", "post")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %14s %14s\n", r.Link,
			stats.FormatDuration(r.PrePlan), stats.FormatDuration(r.Post))
	}
	return b.String()
}

// SpyReport is experiment E7: the wire audit.
type SpyReport struct {
	SpyMessages   int
	SpyBytes      int64
	SecureHidden  int
	HiddenValues  int
	Leaks         int
	ChannelTotals []trace.ChannelTotal
}

// Spy runs a query mix under full capture and audits the trace.
func Spy(cfg Config) (*SpyReport, error) {
	db, _, err := BuildDB(cfg, core.WithCapture(trace.CaptureFull))
	if err != nil {
		return nil, err
	}
	queries := []string{
		DemoQuery,
		DeepQuery,
		`SELECT Pat.Name, Pat.Age FROM Patient Pat WHERE Pat.BodyMassIndex > 35`,
	}
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			return nil, err
		}
	}
	events := db.Recorder().Events()
	rep := &SpyReport{HiddenValues: db.HiddenValues().Len()}
	var spyEvents []trace.Event
	for _, e := range events {
		if e.SpyVisible() {
			spyEvents = append(spyEvents, e)
			rep.SpyMessages++
			rep.SpyBytes += int64(e.Bytes)
		} else {
			rep.SecureHidden++
		}
	}
	rep.ChannelTotals = trace.Totals(spyEvents)
	rep.Leaks = len(trace.Audit(events, db.HiddenValues().Contains))
	return rep, nil
}

// FormatSpy renders E7.
func FormatSpy(r *SpyReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "spy observed %d messages (%s); %d secure messages hidden\n",
		r.SpyMessages, stats.FormatBytes(r.SpyBytes), r.SecureHidden)
	for _, t := range r.ChannelTotals {
		fmt.Fprintf(&b, "  %-8s -> %-8s %-11s %6d msgs %12d bytes\n",
			t.From, t.To, t.Kind, t.Messages, t.Bytes)
	}
	fmt.Fprintf(&b, "leak audit over %d hidden values: %d leaks\n", r.HiddenValues, r.Leaks)
	return b.String()
}

// RAMRow is one budget of experiment E8.
type RAMRow struct {
	Budget int
	Pre    time.Duration
	Post   time.Duration
}

// RAMSweep rebuilds the database under shrinking RAM budgets.
func RAMSweep(cfg Config, budgets []int) ([]RAMRow, error) {
	var out []RAMRow
	for _, budget := range budgets {
		prof := device.SmartUSB2007().WithRAM(budget)
		// Keep the page cache within a quarter of the budget.
		frames := budget / prof.Flash.PageSize / 4
		if frames < 1 {
			frames = 1
		}
		if frames > 8 {
			frames = 8
		}
		prof.CacheFrames = frames
		db, _, err := BuildDB(cfg, core.WithProfile(prof))
		if err != nil {
			return nil, fmt.Errorf("budget %d: %w", budget, err)
		}
		q, err := db.Prepare(DemoQuery)
		if err != nil {
			return nil, err
		}
		row := RAMRow{Budget: budget}
		res, err := db.QueryWithPlan(q, demoSpec("pre", plan.StratVisPre, plan.StratVisPre, true))
		if err != nil {
			return nil, fmt.Errorf("budget %d pre: %w", budget, err)
		}
		row.Pre = res.Report.TotalTime
		res, err = db.QueryWithPlan(q, demoSpec("post", plan.StratVisPost, plan.StratVisPost, false))
		if err != nil {
			return nil, fmt.Errorf("budget %d post: %w", budget, err)
		}
		row.Post = res.Report.TotalTime
		out = append(out, row)
	}
	return out, nil
}

// FormatRAM renders E8.
func FormatRAM(rows []RAMRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s\n", "budget", "pre+cross", "post")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14s %14s\n", stats.FormatBytes(int64(r.Budget)),
			stats.FormatDuration(r.Pre), stats.FormatDuration(r.Post))
	}
	return b.String()
}

// WriteRow is one flash write/read cost ratio of experiment E9.
type WriteRow struct {
	Ratio   float64
	GhostDB time.Duration
	Grace   time.Duration
}

// WriteRatio sweeps the program/read cost ratio: GhostDB's read-only
// query path barely moves while the write-heavy Grace hash join degrades.
func WriteRatio(cfg Config, ratios []float64) ([]WriteRow, error) {
	var out []WriteRow
	for _, ratio := range ratios {
		prof := device.SmartUSB2007().WithWriteRatio(ratio)
		db, _, err := BuildDB(cfg, core.WithProfile(prof))
		if err != nil {
			return nil, err
		}
		res, err := db.Query(DeepQuery)
		if err != nil {
			return nil, err
		}
		bq := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			{Table: "Doctor", Column: "Country", P: pred.Compare(sql.OpEq, value.NewString(datagen.DemoCountry))},
			{Table: "Visit", Column: "Purpose", P: pred.Compare(sql.OpEq, value.NewString(datagen.DemoPurpose)), Hidden: true},
		}}
		_, rep, err := db.BaselineEngine().Run(bq, baseline.GraceHash)
		if err != nil {
			return nil, err
		}
		out = append(out, WriteRow{Ratio: ratio, GhostDB: res.Report.TotalTime, Grace: rep.TotalTime})
	}
	return out, nil
}

// FormatWrites renders E9.
func FormatWrites(rows []WriteRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %14s %14s %10s\n", "ratio", "ghostdb", "grace-hash", "gap")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6.1fx %14s %14s %9.1fx\n", r.Ratio,
			stats.FormatDuration(r.GhostDB), stats.FormatDuration(r.Grace),
			float64(r.Grace)/float64(r.GhostDB))
	}
	return b.String()
}

// GameRow pairs the optimizer's estimate with measured reality (E11).
type GameRow struct {
	Label     string
	Estimated time.Duration
	Measured  time.Duration
}

// Game runs demo phase 3: every plan estimated and measured; the "prize"
// goes to whoever ranks them right.
func Game(db *core.DB) ([]GameRow, string, error) {
	q, err := db.Prepare(DemoQuery)
	if err != nil {
		return nil, "", err
	}
	var rows []GameRow
	for _, spec := range db.Plans(q) {
		est, err := db.Estimate(q, spec)
		if err != nil {
			return nil, "", err
		}
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, GameRow{Label: spec.Label, Estimated: est, Measured: res.Report.TotalTime})
	}
	auto, err := db.Query(DemoQuery)
	if err != nil {
		return nil, "", err
	}
	return rows, auto.Spec.Label, nil
}

// FormatGame renders E11.
func FormatGame(rows []GameRow, pick string) string {
	var b strings.Builder
	best := rows[0]
	for _, r := range rows[1:] {
		if r.Measured < best.Measured {
			best = r
		}
	}
	fmt.Fprintf(&b, "%-6s %14s %14s\n", "plan", "estimated", "measured")
	for _, r := range rows {
		marker := ""
		if r.Label == pick {
			marker += "  <- optimizer"
		}
		if r.Label == best.Label {
			marker += "  <- fastest"
		}
		fmt.Fprintf(&b, "%-6s %14s %14s%s\n", r.Label,
			stats.FormatDuration(r.Estimated), stats.FormatDuration(r.Measured), marker)
	}
	return b.String()
}
