package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/trace"
)

// When the spy sees each message, frozen. testdata/spy_timing_golden.txt
// holds, per query, a digest of the full spy-visible event sequence of
// every device — sender, receiver, kind, bytes and the simulated instant
// At — for the two aggregate templates that dominate the benchmark pass,
// the demo query under the optimizer and under each of its six forced
// plans, and the demo query over a dirty delta, on one device and on
// four. Per-channel totals (the other goldens) cannot see a charge that
// moves across a bus send; this file can. It was written before the
// projection merge moved records in runs and is replayed, never
// regenerated.

const spyTimingGoldenPath = "testdata/spy_timing_golden.txt"

// spyTimingScale is large enough that the row sort forms several runs and
// merges them, and that the demo query returns rows.
const spyTimingScale = 20_000

// spyTimingDML leaves a dirty delta on the tables the demo query joins:
// new Sclerosis visits and the prescriptions under them, a hidden update
// and deletes.
func spyTimingDML(visits, prescriptions int) []string {
	v, p := visits+1, prescriptions+1
	return []string{
		fmt.Sprintf(`INSERT INTO Visit VALUES (%d, DATE '2007-03-03', 'Sclerosis', 1, 1), (%d, DATE '2007-04-04', 'Sclerosis', 2, 2)`, v, v+1),
		fmt.Sprintf(`INSERT INTO Prescription VALUES (%d, 4, 2, DATE '2007-03-04', 1, %d), (%d, 9, 1, DATE '2007-04-05', 2, %d), (%d, 3, 3, DATE '2007-04-06', 3, 7)`, p, v, p+1, v+1, p+2),
		`UPDATE Prescription SET Quantity = 77 WHERE PreID BETWEEN 100 AND 140`,
		`UPDATE Visit SET Purpose = 'Sclerosis' WHERE VisID BETWEEN 10 AND 30`,
		`DELETE FROM Prescription WHERE PreID BETWEEN 200 AND 260`,
	}
}

// spyDigest hashes a recorder's spy-visible events in order.
func spyDigest(h interface{ Write([]byte) (int, error) }, evs []trace.Event) {
	var w [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(x))
		h.Write(w[:])
	}
	for _, e := range evs {
		h.Write([]byte(e.From))
		h.Write([]byte{0})
		h.Write([]byte(e.To))
		h.Write([]byte{0})
		h.Write([]byte(e.Kind))
		h.Write([]byte{0})
		put(int64(e.Bytes))
		put(int64(e.At))
	}
}

// spyTimingRecords replays the queries on a fresh database with the given
// number of shards and renders one line per query.
func spyTimingRecords(t *testing.T, shards int) []string {
	t.Helper()
	var opts []Option
	if shards > 1 {
		opts = append(opts, WithShards(shards))
	}
	db := loadScale(t, spyTimingScale, opts...)
	defer db.Close()
	engines := db.shards.engines

	var out []string
	run := func(name string, query func() (*Result, error)) {
		for _, e := range engines {
			e.rec.Reset()
		}
		res, err := query()
		if err != nil {
			t.Fatalf("shards=%d %s: %v", shards, name, err)
		}
		h := sha256.New()
		events := 0
		for _, e := range engines {
			if d := e.rec.Dropped(); d > 0 {
				t.Fatalf("shards=%d %s: the recorder dropped %d events", shards, name, d)
			}
			evs := e.rec.SpyView()
			events += len(evs)
			spyDigest(h, evs)
			h.Write([]byte{0xff}) // device boundary
		}
		out = append(out, fmt.Sprintf("shards=%d %s rows=%d events=%d digest=%x",
			shards, name, len(res.Rows), events, h.Sum(nil)[:12]))
	}
	query := func(sqlText string) func() (*Result, error) {
		return func() (*Result, error) { return db.Query(sqlText) }
	}

	run("agg_group", query(aggGroupShape))
	run("agg_topk", query(aggTopKShape))
	run("demo", query(paperQuery))
	q, err := db.Prepare(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	specs := db.Plans(q)
	if len(specs) != 6 {
		t.Fatalf("shards=%d: the demo query has %d plans, want 6", shards, len(specs))
	}
	for i, spec := range specs {
		run(fmt.Sprintf("demo/plan%d", i+1), func() (*Result, error) { return db.QueryWithPlan(q, spec) })
	}
	for _, s := range spyTimingDML(db.RowCount("Visit"), db.RowCount("Prescription")) {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("shards=%d %q: %v", shards, s, err)
		}
	}
	run("demo/dirty", query(paperQuery))
	return out
}

// TestSpyTimingGolden holds the spy's view of the benchmark's heaviest
// queries, timing included, to the frozen golden at one and four shards.
func TestSpyTimingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two 20k-row databases")
	}
	golden, err := os.ReadFile(spyTimingGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			prefix := fmt.Sprintf("shards=%d ", shards)
			var want []string
			for _, ln := range lines {
				if strings.HasPrefix(ln, prefix) {
					want = append(want, ln)
				}
			}
			got := spyTimingRecords(t, shards)
			if len(got) != len(want) {
				t.Errorf("%d records, golden has %d", len(got), len(want))
			}
			for i := 0; i < len(want) && i < len(got); i++ {
				if got[i] != want[i] {
					t.Errorf("spy timing drifted from the golden:\n got %s\nwant %s", got[i], want[i])
				}
			}
		})
	}
}
