package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/plan"
)

// The optimizer's verdict, frozen. testdata/estimate_golden.txt holds, for
// the seeded random-query corpus and the demo queries, at 600 and 20 000
// prescriptions, on the default and the 16 KB device, on one device and on
// two shards: every enumerated plan's cost-model estimate (DB.Estimate, in
// ns), its cardinality model (the CardEstimates EXPLAIN prints), the plan
// the optimizer picks, and — sharded — the plan each contacted shard ran.
// It was written before the optimizer step and the cardinality walk were
// each reduced to one implementation; it is replayed, never regenerated: a
// change that moves the model on purpose has to account for every line.

const estimateGoldenPath = "testdata/estimate_golden.txt"

// estimateSection is one configuration of the golden.
type estimateSection struct {
	scale   string // "tiny" (600 prescriptions) or "20k"
	profile string // "default" or "16k"
	shards  int
}

func (s estimateSection) String() string {
	return fmt.Sprintf("%s/%s/shards=%d", s.scale, s.profile, s.shards)
}

func estimateSections() []estimateSection {
	var out []estimateSection
	for _, scale := range []string{"tiny", "20k"} {
		for _, profile := range []string{"default", "16k"} {
			for _, shards := range []int{1, 2} {
				out = append(out, estimateSection{scale, profile, shards})
			}
		}
	}
	return out
}

// estimateCorpus is the seeded random-query corpus (the batch-equivalence
// seed: plain SPJ queries, then post-operator ones) followed by the demo
// queries.
func estimateCorpus(ds *datagen.Dataset) []string {
	gen := &queryGen{rng: rand.New(rand.NewSource(23)), ds: ds}
	var out []string
	for i := 0; i < 40; i++ {
		out = append(out, gen.next())
	}
	for i := 0; i < 15; i++ {
		out = append(out, gen.nextPostOp())
	}
	return append(append(out, paperQuery), concurrentQueries...)
}

// estimateRecords replays one section of the corpus on a fresh database
// and renders its golden lines.
func estimateRecords(t *testing.T, sec estimateSection) []string {
	t.Helper()
	cfg := datagen.Tiny()
	if sec.scale == "20k" {
		cfg = datagen.WithScale(20_000)
	}
	ds := datagen.Generate(cfg)
	var opts []Option
	if sec.profile == "16k" {
		opts = append(opts, WithProfile(SmallProfileForTest()))
	}
	if sec.shards > 1 {
		opts = append(opts, WithShards(sec.shards))
	}
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}

	var out []string
	for i, sqlText := range estimateCorpus(ds) {
		key := fmt.Sprintf("%s q%d", sec, i)
		id := fnv.New32a()
		id.Write([]byte(sqlText))
		q, err := db.Prepare(sqlText)
		if err != nil {
			out = append(out, fmt.Sprintf("%s id=%08x err=%q", key, id.Sum32(), err))
			continue
		}
		for _, spec := range db.Plans(q) {
			out = append(out, estimateLine(t, db, key, sqlText, q, spec))
		}
		eo, err := db.ExplainOnly(sqlText)
		if err != nil {
			t.Fatalf("%s %q: %v", key, sqlText, err)
		}
		line := fmt.Sprintf("%s id=%08x pick=%s", key, id.Sum32(), eo.Spec.Label)
		if sec.shards > 1 {
			line += " ran=" + shardLabels(db, sqlText)
		}
		out = append(out, line)
	}
	return out
}

// estimateLine renders one plan's estimate and cardinality model, asking
// DB.Estimate for the time and EXPLAIN (forced to the plan) for the
// cardinalities, and requiring the two to agree on the time.
func estimateLine(t *testing.T, db *DB, key, sqlText string, q *plan.Query, spec plan.Spec) string {
	t.Helper()
	est, err := db.Estimate(q, spec)
	if err != nil {
		t.Fatalf("%s %q / %s: %v", key, sqlText, spec.Label, err)
	}
	a, err := db.ExplainOnly(sqlText, WithSpec(spec))
	if err != nil {
		t.Fatalf("%s %q / %s: %v", key, sqlText, spec.Label, err)
	}
	if a.EstimatedSim != est {
		t.Fatalf("%s %q / %s: EXPLAIN estimates %d ns, DB.Estimate %d ns", key, sqlText, spec.Label, a.EstimatedSim, est)
	}
	c := a.Cards
	return fmt.Sprintf("%s %s est=%d root=%d count=%v rootcount=%v cand=%d surv=%d",
		key, spec.Describe(q), int64(est), c.RootRows, c.PredCount, c.PredRootCount, c.Candidates, c.Survivors)
}

// shardLabels runs the statement and names the plan each shard ran ("-"
// for a shard it did not contact), or the error it failed with.
func shardLabels(db *DB, sqlText string) string {
	res, err := db.Query(sqlText)
	if err != nil {
		return fmt.Sprintf("err=%q", err)
	}
	labels := make([]string, len(res.ShardReports))
	for s, rep := range res.ShardReports {
		labels[s] = "-"
		if rep != nil {
			labels[s] = rep.PlanLabel
		}
	}
	return strings.Join(labels, ",")
}

// TestEstimateGolden replays the corpus and holds every estimate, every
// cardinality model and every plan choice to the frozen golden.
func TestEstimateGolden(t *testing.T) {
	golden, err := os.ReadFile(estimateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	for _, sec := range estimateSections() {
		t.Run(sec.String(), func(t *testing.T) {
			var want []string
			for _, ln := range lines {
				if strings.HasPrefix(ln, sec.String()+" ") {
					want = append(want, ln)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s has no section %s", estimateGoldenPath, sec)
			}
			got := estimateRecords(t, sec)
			for i := 0; i < len(want) && i < len(got); i++ {
				if got[i] != want[i] {
					t.Fatalf("estimate drifted from the golden:\n got %s\nwant %s", got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, golden has %d", len(got), len(want))
			}
		})
	}
}
