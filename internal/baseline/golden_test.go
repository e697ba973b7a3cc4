package baseline_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/baseline"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// The baselines' simulated cost, pinned. testdata/baseline_golden.txt was
// written at commit 1d9ffd5 — the last one whose baselines ran on the
// element-at-a-time operators (exec.Union, MergeIntersect, Translate,
// SpillIDs, MaterializeRows, RowFile.Iter) — by this file's dump, from a
// generator that existed only in a clone of that commit. The baselines now
// compose the executor's batch operators; TestBaselineGolden holds them to
// the frozen records at batch lengths 1, 7 and 1024. Never regenerate the
// file from the surviving code: a change that moves a baseline's cost on
// purpose has to account for every line it rewrites.

const baselineGoldenPath = "testdata/baseline_golden.txt"

// goldenQueries is the pinned workload: every shape the baselines branch on.
func goldenQueries() []struct {
	name string
	q    baseline.Query
} {
	str := value.NewString
	p := func(table, column string, hidden bool, pr pred.P) baseline.Pred {
		return baseline.Pred{Table: table, Column: column, P: pr, Hidden: hidden}
	}
	return []struct {
		name string
		q    baseline.Query
	}{
		{"no-predicate", baseline.Query{Root: "Prescription"}},
		{"root-only", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			p("Prescription", "Quantity", true, pred.Compare(sql.OpLe, value.NewInt(10))),
		}}},
		{"multi-pred", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			p("Visit", "Date", false, pred.Compare(sql.OpGt, value.NewDate(2005, 1, 1))),
			p("Visit", "Purpose", true, pred.Compare(sql.OpNe, str(datagen.DemoPurpose))),
			p("Prescription", "Frequency", false, pred.Compare(sql.OpGe, value.NewInt(2))),
			p("Prescription", "Quantity", true, pred.Compare(sql.OpLe, value.NewInt(40))),
		}}},
		{"isolated-deep", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			p("Patient", "BodyMassIndex", true, pred.Compare(sql.OpGt, value.NewInt(40))),
		}}},
		// The root-key range ends the intersection halfway through the
		// deep predicate's root-level union: a merge input that read ahead
		// of the demand would show up here.
		{"deep+root-range", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			p("Patient", "BodyMassIndex", true, pred.Compare(sql.OpGt, value.NewInt(40))),
			p("Prescription", "PreID", false, pred.Compare(sql.OpLe, value.NewInt(300))),
		}}},
		{"mixed", baseline.Query{Root: "Prescription", Preds: []baseline.Pred{
			p("Doctor", "Country", false, pred.Compare(sql.OpEq, str(datagen.DemoCountry))),
			p("Visit", "Purpose", true, pred.Compare(sql.OpEq, str(datagen.DemoPurpose))),
		}}},
		{"demo", demoQuery()},
	}
}

var goldenAlgorithms = []baseline.Algorithm{baseline.Climbing, baseline.JoinIndex, baseline.BNL, baseline.GraceHash}

// goldenDevices are the paper's device and the 16KB one on which every
// merge spills.
func goldenDevices() []struct {
	name string
	prof device.Profile
} {
	return []struct {
		name string
		prof device.Profile
	}{
		{"default", device.SmartUSB2007()},
		{"tiny", core.SmallProfileForTest()},
	}
}

// goldenScales are the dataset sizes (prescriptions); -short replays the
// first only.
var goldenScales = []int{600, 20_000}

// baselineDump runs the pinned workload at one batch length (0 leaves the
// environment at its default) and renders one record per run followed by
// one line per operator. Everything a baseline may produce or spend is in
// it: result IDs, simulated time, RAM high-water, leftover RAM, every
// flash counter, and each operator's tuples, RAM and time.
//
// A run that fails is pinned by its error text alone: what an aborted
// pipeline had spent when it stopped depends on how far its inputs had
// been read, which no operator contract fixes (exec/batch.go rule 1 covers
// the IDs an operator returns). The next run starts on a fresh database,
// so no record depends on what a failed run left behind.
func baselineDump(t *testing.T, scales []int, batchLen int) []string {
	t.Helper()
	var lines []string
	for _, scale := range scales {
		ds := datagen.Generate(datagen.WithScale(scale))
		for _, d := range goldenDevices() {
			var db *core.DB
			var be *baseline.Engine
			for _, w := range goldenQueries() {
				for _, alg := range goldenAlgorithms {
					if db == nil {
						var err error
						if db, err = core.Open(core.WithProfile(d.prof)); err != nil {
							t.Fatal(err)
						}
						if err := db.LoadDataset(ds); err != nil {
							t.Fatal(err)
						}
						be = db.BaselineEngine()
						if batchLen > 0 {
							be.Env.SetBatchLen(batchLen)
						}
					}
					used := db.Device().RAM.Used()
					ids, rep, err := be.Run(w.q, alg)
					key := fmt.Sprintf("scale=%d dev=%s q=%s alg=%s", scale, d.name, w.name, alg)
					if err != nil {
						lines = append(lines, fmt.Sprintf("%s err=%q", key, err))
						db = nil
						continue
					}
					h := fnv.New64a()
					fmt.Fprint(h, ids)
					f := rep.Flash
					lines = append(lines, fmt.Sprintf(
						"%s ids=%d:%016x total=%d ram=%d leaked=%d flash=%d/%d/%d/%d/%d/%d/%d/%d ops=%d",
						key, len(ids), h.Sum64(), int64(rep.TotalTime), rep.RAMHigh, db.Device().RAM.Used()-used,
						f.PageReads, f.PagesProgrammed, f.BlockErases, f.BytesRead, f.BytesProgrammed,
						int64(f.ReadTime), int64(f.ProgTime), int64(f.EraseTime), len(rep.Ops)))
					for _, op := range rep.Ops {
						lines = append(lines, fmt.Sprintf("  op %s(%s) in=%d out=%d ram=%d time=%d",
							op.Name, op.Detail, op.TuplesIn, op.TuplesOut, op.RAMBytes, int64(op.Time)))
					}
				}
			}
		}
	}
	return lines
}

// TestBaselineGolden replays the frozen records line for line at batch
// lengths 1, 7 and 1024 (-short: the 600-prescription half only).
func TestBaselineGolden(t *testing.T) {
	raw, err := os.ReadFile(baselineGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	scales := goldenScales
	if testing.Short() {
		scales = scales[:1]
		for i, line := range want {
			if strings.HasPrefix(line, fmt.Sprintf("scale=%d ", goldenScales[1])) {
				want = want[:i]
				break
			}
		}
	}
	for _, n := range []int{1, 7, 1024} {
		t.Run(fmt.Sprintf("batch=%d", n), func(t *testing.T) {
			got := baselineDump(t, scales, n)
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("record %d diverges from the element-at-a-time verdict:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d records, golden has %d", len(got), len(want))
			}
		})
	}
}
