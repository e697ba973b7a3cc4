package bench

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/baseline"
	"github.com/ghostdb/ghostdb/internal/bloom"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// AblationRow is one design-choice comparison.
type AblationRow struct {
	Name    string
	With    time.Duration
	Without time.Duration
	Note    string
}

// Ablations measures the design choices behind the experiment index's
// numbers (doc.go):
//
//  1. climbing indexes' transitive ancestor lists vs per-edge join
//     indices (one hop + materialization per edge);
//  2. hidden predicates through the climbing index vs hidden
//     post-filtering (fetch the attribute per candidate row);
//  3. cross-filtering on vs off for the demo query's pre-filtered plan.
func Ablations(db *core.DB) ([]AblationRow, error) {
	var out []AblationRow

	// 1. Transitive lists vs per-edge hops on a deep hidden predicate,
	// both under the bare-root-IDs contract.
	bq := baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
		{Table: "Patient", Column: "BodyMassIndex", P: pred.Compare(sql.OpGt, value.NewInt(40)), Hidden: true},
	}}
	_, climbRep, err := db.BaselineEngine().Run(bq, baseline.Climbing)
	if err != nil {
		return nil, err
	}
	_, hopRep, err := db.BaselineEngine().Run(bq, baseline.JoinIndex)
	if err != nil {
		return nil, err
	}
	out = append(out, AblationRow{
		Name:    "climbing transitive lists",
		With:    climbRep.TotalTime,
		Without: hopRep.TotalTime,
		Note:    "deep hidden predicate; without = per-edge join indices (one materialized hop per level)",
	})

	// 2. Hidden predicate via index vs attribute fetch after the SKT.
	q, err := db.Prepare(DemoQuery)
	if err != nil {
		return nil, err
	}
	withIx, err := db.QueryWithPlan(q, plan.Spec{
		Label:      "hid-ix",
		Strategies: []plan.Strategy{plan.StratVisPre, plan.StratHidIndex, plan.StratVisPre},
	})
	if err != nil {
		return nil, err
	}
	withoutIx, err := db.QueryWithPlan(q, plan.Spec{
		Label:      "hid-post",
		Strategies: []plan.Strategy{plan.StratVisPre, plan.StratHidPost, plan.StratVisPre},
	})
	if err != nil {
		return nil, err
	}
	out = append(out, AblationRow{
		Name:    "hidden pred via climbing index",
		With:    withIx.Report.TotalTime,
		Without: withoutIx.Report.TotalTime,
		Note:    "without = fetch Vis.Purpose per candidate after the SKT",
	})

	// 3. Cross-filtering on the all-pre plan.
	crossOn, err := db.QueryWithPlan(q, demoSpec("cross-on", plan.StratVisPre, plan.StratVisPre, true))
	if err != nil {
		return nil, err
	}
	crossOff, err := db.QueryWithPlan(q, demoSpec("cross-off", plan.StratVisPre, plan.StratVisPre, false))
	if err != nil {
		return nil, err
	}
	out = append(out, AblationRow{
		Name:    "cross-filtering",
		With:    crossOn.Report.TotalTime,
		Without: crossOff.Report.TotalTime,
		Note:    "pre-filtered demo plan, intersecting at the Visit level first",
	})
	return out, nil
}

// DeviceIndexAblation builds a second database with a device climbing
// index on the visible Doctor.Country column (Figure 4) and compares the
// device-index strategy against delegating the same predicate.
func DeviceIndexAblation(cfg Config) (AblationRow, error) {
	db, _, err := BuildDB(cfg, core.WithDeviceIndex("Doctor", "Country"))
	if err != nil {
		return AblationRow{}, err
	}
	q, err := db.Prepare(DeepQuery)
	if err != nil {
		return AblationRow{}, err
	}
	// Predicate order in DeepQuery: Doc.Country (visible), Vis.Purpose
	// (hidden).
	device, err := db.QueryWithPlan(q, plan.Spec{Label: "device",
		Strategies: []plan.Strategy{plan.StratVisDevice, plan.StratHidIndex}})
	if err != nil {
		return AblationRow{}, err
	}
	delegated, err := db.QueryWithPlan(q, plan.Spec{Label: "pre",
		Strategies: []plan.Strategy{plan.StratVisPre, plan.StratHidIndex}, CrossFilter: true})
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Name:    "device index on visible column",
		With:    device.Report.TotalTime,
		Without: delegated.Report.TotalTime,
		Note: fmt.Sprintf("Doctor.Country evaluated on-device (bus %s) vs delegated (bus %s)",
			stats.FormatBytes(device.Report.BusBytes), stats.FormatBytes(delegated.Report.BusBytes)),
	}, nil
}

// FormatAblations renders the ablation table.
func FormatAblations(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %12s %12s %8s\n", "design choice", "with", "without", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %12s %12s %7.1fx\n", r.Name,
			stats.FormatDuration(r.With), stats.FormatDuration(r.Without),
			float64(r.Without)/float64(r.With))
		fmt.Fprintf(&b, "    %s\n", r.Note)
	}
	return b.String()
}

// BloomRow is one row of the E10 micro-benchmark.
type BloomRow struct {
	Keys       int
	BitsPerKey float64
	K          int
	Analytic   float64
	Measured   float64
}

// BloomFPR measures Bloom filter false-positive rates against the
// analytic bound — the compactness/low-fpr property of [Bloom 1970] the
// paper relies on.
func BloomFPR(keyCounts []int, bitsPerKey []float64) ([]BloomRow, error) {
	var out []BloomRow
	for _, n := range keyCounts {
		for _, bpk := range bitsPerKey {
			mBits := int(float64(n) * bpk)
			k := bloom.OptimalK(mBits, n)
			f, err := bloom.New(mBits, k)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				f.Add(bloom.Hash32(uint32(i + 1)))
			}
			probes := 200000
			fp := 0
			for i := 0; i < probes; i++ {
				if f.Contains(bloom.Hash32(uint32(n + i + 1))) {
					fp++
				}
			}
			out = append(out, BloomRow{
				Keys:       n,
				BitsPerKey: bpk,
				K:          k,
				Analytic:   f.EstimatedFPR(),
				Measured:   float64(fp) / float64(probes),
			})
		}
	}
	return out, nil
}

// FormatBloom renders E10.
func FormatBloom(rows []BloomRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %10s %4s %12s %12s\n", "keys", "bits/key", "k", "analytic", "measured")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10.1f %4d %12.5f %12.5f\n",
			r.Keys, r.BitsPerKey, r.K, r.Analytic, r.Measured)
	}
	return b.String()
}
