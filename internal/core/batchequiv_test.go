package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// The engine-invariance property: vectorization may change host time
// only, never simulated cost. The reference is the verdict of the
// row-at-a-time engine (the pre-vectorization operator graph, one element
// per call), frozen in testdata/rowengine_golden.txt by the last commit
// that had one (3e02396): one record per corpus × delta state × query ×
// plan. The tests require the executor's one pipeline to reproduce it bit
// for bit at batch lengths 1, 7 and 1024, and the three lengths to agree
// with each other. The golden is not regenerated to make a failure go
// away: a change that moves the cost model on purpose has to account for
// every line it rewrites.

// equivBatchLens are the vectorization widths held to the golden: the
// degenerate one, an odd one that never aligns with a page or a bus
// chunk, and the production default.
var equivBatchLens = []int{1, 7, 1024}

const rowGoldenPath = "testdata/rowengine_golden.txt"

// loadEquivDBs builds one engine per batch length over the same dataset,
// plus the shared seeded query generator.
func loadEquivDBs(t *testing.T, opts ...Option) ([]*DB, *queryGen) {
	t.Helper()
	ds := datagen.Generate(datagen.Tiny())
	dbs := make([]*DB, len(equivBatchLens))
	for k, n := range equivBatchLens {
		db, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadDataset(ds); err != nil {
			t.Fatal(err)
		}
		db.shards.engines[0].env.SetBatchLen(n)
		dbs[k] = db
	}
	return dbs, &queryGen{rng: rand.New(rand.NewSource(23)), ds: ds}
}

// diffReports returns a description of the first divergence between two
// execution reports, or "" when they are bit-identical in simulated time,
// tuple counts, flash traffic, bus traffic and RAM high-water.
func diffReports(a, b *stats.Report) string {
	if a.TotalTime != b.TotalTime {
		return "TotalTime " + a.TotalTime.String() + " vs " + b.TotalTime.String()
	}
	if a.RAMHigh != b.RAMHigh {
		return "RAMHigh differs"
	}
	if a.Flash != b.Flash {
		return "flash stats differ"
	}
	if a.BusBytes != b.BusBytes || a.BusMsgs != b.BusMsgs {
		return "bus traffic differs"
	}
	if a.ResultRows != b.ResultRows {
		return "result row count differs"
	}
	if len(a.Ops) != len(b.Ops) {
		return "operator count differs"
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Name != y.Name || x.Detail != y.Detail {
			return "op " + x.Name + "(" + x.Detail + ") vs " + y.Name + "(" + y.Detail + ")"
		}
		if x.TuplesIn != y.TuplesIn || x.TuplesOut != y.TuplesOut {
			return "op " + x.Name + "(" + x.Detail + ") tuple counts differ: " + x.String() + " vs " + y.String()
		}
		if x.Time != y.Time {
			return "op " + x.Name + "(" + x.Detail + ") time differs: " + x.String() + " vs " + y.String()
		}
		if x.RAMBytes != y.RAMBytes {
			return "op " + x.Name + "(" + x.Detail + ") RAM differs"
		}
	}
	return ""
}

// goldenRecord renders one execution as a golden line. key names the
// corpus position; id digests the query text and plan, so a drifted
// corpus reads differently from a drifted cost. Everything diffReports
// compares is in the line: the scalars verbatim, the result rows and the
// per-operator name/detail/in/out/time/RAM as digests.
func goldenRecord(key, sqlText, planDesc string, res *Result) string {
	id := fnv.New32a()
	fmt.Fprintf(id, "%s\n%s", sqlText, planDesc)
	rows := fnv.New64a()
	fmt.Fprint(rows, res.Rows)
	ops := fnv.New64a()
	r := res.Report
	for _, op := range r.Ops {
		fmt.Fprintf(ops, "%s|%s|%d|%d|%d|%d\n", op.Name, op.Detail, op.TuplesIn, op.TuplesOut, op.Time, op.RAMBytes)
	}
	f := r.Flash
	return fmt.Sprintf("%s id=%08x total=%d ram=%d flash=%d/%d/%d/%d/%d/%d/%d/%d bus=%d/%d rows=%d:%016x ops=%d:%016x",
		key, id.Sum32(), int64(r.TotalTime), r.RAMHigh,
		f.PageReads, f.PagesProgrammed, f.BlockErases, f.BytesRead, f.BytesProgrammed,
		int64(f.ReadTime), int64(f.ProgTime), int64(f.EraseTime),
		r.BusBytes, r.BusMsgs, r.ResultRows, rows.Sum64(), len(r.Ops), ops.Sum64())
}

// equivRun replays the seeded corpus on a set of engines in lockstep,
// requiring them to agree with each other, and collects engine 0's
// golden records.
type equivRun struct {
	t       *testing.T
	dbs     []*DB
	section string // golden section: "<profile>/<short|full>"
	records []string
}

// query runs one query on every engine — under every enumerated plan, or
// under the optimizer's choice only — and records engine 0's reports.
func (r *equivRun) query(state string, i int, sqlText string, allPlans bool) {
	r.t.Helper()
	nPlans := 1
	if allPlans {
		q, err := r.dbs[0].Prepare(sqlText)
		if err != nil {
			r.t.Fatalf("%s query %d %q: %v", state, i, sqlText, err)
		}
		nPlans = len(r.dbs[0].Plans(q))
	}
	for s := 0; s < nPlans; s++ {
		key := fmt.Sprintf("%s %s q%d p%d", r.section, state, i, s)
		first, firstErr := runEquivQuery(r.dbs[0], sqlText, allPlans, s, nPlans)
		for k, db := range r.dbs[1:] {
			res, err := runEquivQuery(db, sqlText, allPlans, s, nPlans)
			if firstErr != nil || err != nil {
				if fmt.Sprint(firstErr) != fmt.Sprint(err) {
					r.t.Fatalf("%s %q: engine 0 says %v, engine %d says %v", key, sqlText, firstErr, k+1, err)
				}
				continue
			}
			desc := first.Spec.Describe(first.Query)
			if !sameRows(first.Rows, res.Rows) {
				r.t.Fatalf("%s %q / %s: engine 0 returned %d rows, engine %d %d",
					key, sqlText, desc, len(first.Rows), k+1, len(res.Rows))
			}
			if d := diffReports(first.Report, res.Report); d != "" {
				r.t.Fatalf("%s %q / %s: engines 0 and %d diverge: %s\n0:\n%s\n%d:\n%s",
					key, sqlText, desc, k+1, d, first.Report, k+1, res.Report)
			}
		}
		if firstErr != nil {
			// Running out of RAM on the 16KB device is a verdict too: a
			// pipeline that held one more page would fail where the row
			// engine did not.
			r.records = append(r.records, fmt.Sprintf("%s err=%q", key, firstErr))
			continue
		}
		r.records = append(r.records, goldenRecord(key, sqlText, first.Spec.Describe(first.Query), first))
	}
}

// runEquivQuery executes sqlText under enumerated plan s of nPlans, or
// under the optimizer's choice when allPlans is false.
func runEquivQuery(db *DB, sqlText string, allPlans bool, s, nPlans int) (*Result, error) {
	if !allPlans {
		return db.Query(sqlText)
	}
	q, err := db.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	specs := db.Plans(q)
	if len(specs) != nPlans {
		return nil, fmt.Errorf("%d plans, engine 0 enumerated %d", len(specs), nPlans)
	}
	return db.QueryWithPlan(q, specs[s])
}

// dmlScript is a deterministic live-DML sequence applied identically to
// every engine: inserts, a hidden-column update, deletes with virtual
// cascade. It leaves every table of the Figure 3 schema with a dirty
// delta so the equivalence corpus runs with delta-resident rows.
var dmlScript = []string{
	`INSERT INTO Doctor VALUES (3, 'Novak', 'Oncology', 75011, 'France')`,
	`UPDATE Visit SET Purpose = 'Checkup' WHERE Date > 2007-01-01`,
	`DELETE FROM Medicine WHERE Type = 'Vaccine'`,
	`DELETE FROM Patient WHERE Age > 60`,
	`UPDATE Prescription SET Quantity = 5 WHERE Quantity > 80`,
}

// exec runs one DML statement on every engine and requires identical
// affected-row counts.
func (r *equivRun) exec(stmt string) {
	r.t.Helper()
	var first int64
	for k, db := range r.dbs {
		n, err := db.Exec(stmt)
		if err != nil {
			r.t.Fatalf("%q (engine %d): %v", stmt, k, err)
		}
		if k == 0 {
			first = n
		} else if n != first {
			r.t.Fatalf("%q: engine 0 affected %d, engine %d %d", stmt, first, k, n)
		}
	}
}

// checkpoint merges the delta to flash on every engine.
func (r *equivRun) checkpoint() {
	r.t.Helper()
	var first int64
	for k, db := range r.dbs {
		n, err := db.Checkpoint()
		if err != nil {
			r.t.Fatal(err)
		}
		if k == 0 {
			first = n
		}
		if n == 0 || n != first {
			r.t.Fatalf("checkpoint absorbed %d (engine 0) vs %d (engine %d)", first, n, k)
		}
	}
}

// equivCorpus sizes one replay: the default-RAM corpus runs every random
// query under every enumerated plan; the 16KB-device corpus, where some
// enumerated plans legitimately run out of RAM, runs the optimizer's
// plan and forces the spill-everything paths (multi-pass unions, scratch
// runs, tight-RAM sequential contribution integration).
type equivCorpus struct {
	iterations, aggIterations int
	allPlans                  bool
}

func defaultEquivCorpus(short bool) equivCorpus {
	if short {
		return equivCorpus{10, 5, true}
	}
	return equivCorpus{40, 15, true}
}

func tinyEquivCorpus(short bool) equivCorpus {
	if short {
		return equivCorpus{5, 3, false}
	}
	return equivCorpus{15, 8, false}
}

// replay walks the corpus with a clean base, with delta-resident rows
// after live DML, and again after CHECKPOINT merges the delta to flash.
func (c equivCorpus) replay(r *equivRun, gen *queryGen) {
	for i := 0; i < c.iterations+c.aggIterations; i++ {
		// The tail of the corpus exercises the post-operator dialect:
		// aggregation runs host-side after the pipeline, so the
		// bit-identical-cost property must hold there too.
		sqlText := gen.next()
		if i >= c.iterations {
			sqlText = gen.nextPostOp()
		}
		r.query("clean", i, sqlText, c.allPlans)
	}

	// Live DML: every engine mutates identically (the delta path is
	// granularity-independent by construction), then the whole corpus
	// property must hold with delta-resident rows...
	for _, stmt := range dmlScript {
		r.exec(stmt)
	}
	dmlIterations := c.iterations/2 + c.aggIterations/2
	for i := 0; i < dmlIterations; i++ {
		sqlText := gen.next()
		if i%3 == 2 {
			sqlText = gen.nextPostOp()
		}
		r.query("dirty", 1000+i, sqlText, c.allPlans)
	}

	// ...and again after CHECKPOINT merges the delta into fresh flash
	// segments.
	r.checkpoint()
	for i := 0; i < dmlIterations; i++ {
		sqlText := gen.next()
		if i%3 == 2 {
			sqlText = gen.nextPostOp()
		}
		r.query("ckpt", 2000+i, sqlText, c.allPlans)
	}
}

// equivSection names the golden section of a corpus.
func equivSection(profile string, short bool) string {
	if short {
		return profile + "/short"
	}
	return profile + "/full"
}

// requireRowGolden holds the replayed records to the frozen section of
// the row engine's golden, line for line.
func requireRowGolden(t *testing.T, r *equivRun) {
	t.Helper()
	golden, err := os.ReadFile(rowGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(golden), "\n") {
		if strings.HasPrefix(line, r.section+" ") {
			want = append(want, line)
		}
	}
	if len(want) == 0 {
		t.Fatalf("%s has no section %s", rowGoldenPath, r.section)
	}
	for i := 0; i < len(want) && i < len(r.records); i++ {
		if r.records[i] != want[i] {
			t.Fatalf("batch lengths %v diverge from the row engine's golden:\n got %s\nwant %s",
				equivBatchLens, r.records[i], want[i])
		}
	}
	if len(r.records) != len(want) {
		t.Fatalf("section %s: replayed %d records, golden has %d", r.section, len(r.records), len(want))
	}
}

// TestBatchRowEquivalence is the engine-invariance property: every random
// query, under every enumerated plan, must produce the result set, the
// per-operator tuple counts and the bit-identical simulated device time
// the row-at-a-time engine produced, at every batch length. The cost
// model is the paper's contribution — vectorization is only allowed to
// change host CPU time. The property must hold with a clean base, with
// delta-resident rows after live DML, and again after CHECKPOINT merges
// the delta to flash.
func TestBatchRowEquivalence(t *testing.T) {
	dbs, gen := loadEquivDBs(t)
	r := &equivRun{t: t, dbs: dbs, section: equivSection("default", testing.Short())}
	defaultEquivCorpus(testing.Short()).replay(r, gen)
	requireRowGolden(t, r)
}

// TestBatchRowEquivalenceTinyRAM repeats the property on a 16KB device,
// where every contribution spills, in the same three delta states.
func TestBatchRowEquivalenceTinyRAM(t *testing.T) {
	dbs, gen := loadEquivDBs(t, WithProfile(SmallProfileForTest()))
	r := &equivRun{t: t, dbs: dbs, section: equivSection("tiny", testing.Short())}
	tinyEquivCorpus(testing.Short()).replay(r, gen)
	requireRowGolden(t, r)
}
