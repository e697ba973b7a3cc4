package core

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// pinnedScript is the fixed workload of TestPinnedDeltaCheckpointCost:
// two rounds of keyed and ranged INSERT / UPDATE / DELETE (incl. a
// cascade through a dimension delete and a foreign key pointing past the
// base segment into a delta-resident row), dirty queries, CHECKPOINT and
// clean queries over the tiny synthetic dataset.
var pinnedScript = [][]string{
	{
		`INSERT INTO Visit VALUES (61, DATE '2007-05-05', 'Relapse', 1, 2)`,
		`INSERT INTO Prescription VALUES (601, 4, 2, DATE '2007-05-06', 1, 61), (602, 9, 1, DATE '2007-05-07', 2, 3)`,
		`UPDATE Prescription SET Quantity = 7 WHERE PreID = 10`,
		`UPDATE Prescription SET Frequency = 3 WHERE PreID BETWEEN 100 AND 140`,
		`UPDATE Visit SET Purpose = 'Remission' WHERE Purpose = 'Sclerosis'`,
		`SELECT Pre.PreID, Pre.Quantity, Vis.Purpose FROM Prescription Pre, Visit Vis WHERE Pre.VisID = Vis.VisID AND Vis.Purpose = 'Remission'`,
		`DELETE FROM Prescription WHERE PreID = 20`,
		`DELETE FROM Prescription WHERE Quantity > 92`,
		`UPDATE Prescription SET VisID = 61 WHERE PreID = 30`,
		`DELETE FROM Patient WHERE PatID = 2`,
		`SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity > 20`,
		`SELECT Pre.PreID, Pre.Frequency, Med.Name, Pat.Age FROM Prescription Pre, Medicine Med, Visit Vis, Patient Pat WHERE Pre.MedID = Med.MedID AND Pre.VisID = Vis.VisID AND Vis.PatID = Pat.PatID AND Pre.Frequency = 3`,
		`SELECT Vis.VisID, Vis.Date, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID AND Vis.Date > 2006-06-01`,
		`CHECKPOINT`,
		`SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity > 20`,
		`SELECT Pre.PreID, Pre.Quantity, Vis.Purpose FROM Prescription Pre, Visit Vis WHERE Pre.VisID = Vis.VisID AND Vis.Purpose = 'Remission'`,
	},
	{
		`UPDATE Prescription SET Quantity = 1 WHERE PreID = 5`,
		`UPDATE Prescription SET WhenWritten = DATE '2007-01-01' WHERE Frequency = 3`,
		`DELETE FROM Prescription WHERE PreID BETWEEN 200 AND 230`,
		`DELETE FROM Visit WHERE Purpose = 'Remission'`,
		`SELECT Pre.PreID, Pre.WhenWritten FROM Prescription Pre WHERE Pre.Quantity < 30`,
		`SELECT Pat.PatID, Pat.Name, Pat.BodyMassIndex FROM Patient Pat WHERE Pat.Age > 0`,
		`DELETE FROM Medicine WHERE MedID = 2`,
		`SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity > 0`,
		`CHECKPOINT`,
		`SELECT Pre.PreID, Med.Name FROM Prescription Pre, Medicine Med WHERE Pre.MedID = Med.MedID AND Pre.Quantity > 60`,
		`SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.VisID > 0`,
	},
}

// pinnedCost holds what the script cost on the parent commit (3b67b22,
// the last one with string-keyed liveness / effective-value helpers and
// the map-and-sort climbing.Build), captured BEFORE the ordinal table
// views and the rank-propagation index build were written. One line per
// device: simulated clock, tombstone probes, flash page reads / programs
// / erases, terminal<->device bus bytes, RAM high-water; then a digest of
// every statement's answer. Keyed backend/shards: the file backend charges
// the clock differently for page operations, every count is the same.
var pinnedCost = map[string]string{
	"sim/1": `dev0 clock=218982405 probes=3828 reads=484 progs=175 erases=14 bus=3876 ram=43588
answers=71e72bd5e8ff5a6a
`,
	"sim/4": `dev0 clock=144044427 probes=1283 reads=303 progs=155 erases=11 bus=2427 ram=43280
dev1 clock=139005479 probes=1283 reads=316 progs=154 erases=11 bus=2098 ram=43263
dev2 clock=142686693 probes=1259 reads=365 progs=158 erases=11 bus=2067 ram=43251
dev3 clock=132715685 probes=1315 reads=312 progs=154 erases=10 bus=2063 ram=43252
answers=71e72bd5e8ff5a6a
`,
	"file/1": `dev0 clock=122028005 probes=3828 reads=484 progs=175 erases=14 bus=3876 ram=43588
answers=71e72bd5e8ff5a6a
`,
	"file/4": `dev0 clock=71933277 probes=1283 reads=303 progs=155 erases=11 bus=2427 ram=43280
dev1 clock=66086279 probes=1283 reads=316 progs=154 erases=11 bus=2098 ram=43263
dev2 clock=65186143 probes=1259 reads=365 progs=158 erases=11 bus=2067 ram=43251
dev3 clock=61554935 probes=1315 reads=312 progs=154 erases=10 bus=2063 ram=43252
answers=71e72bd5e8ff5a6a
`,
}

// deviceCosts renders one cost line per device.
func deviceCosts(devs []*engine, ramHigh []int64) string {
	var b strings.Builder
	for i, c := range devs {
		c.mu.Lock()
		fs := c.dev.Flash.Stats()
		probes := c.metrics.tombstoneProbes.Value()
		fmt.Fprintf(&b, "dev%d clock=%d probes=%d reads=%d progs=%d erases=%d bus=%d ram=%d\n",
			i, int64(c.clock.Now()), probes, fs.PageReads, fs.PagesProgrammed, fs.BlockErases,
			c.net.Stats(trace.Terminal, trace.Device).Bytes, ramHigh[i])
		c.mu.Unlock()
	}
	return b.String()
}

// pinnedRoutedCost is the same script on four devices with root DML routed
// by key: `WHERE PreID = k` and `BETWEEN` statements visit only the shards
// that own a matching key. Against pinnedCost, flash reads / programs /
// erases, RAM and the answers are the same line for line; clock, tombstone
// probes and bus bytes are lower by exactly the statement sends and
// no-match probes the non-owning devices no longer see — which the
// "broadcast" run below proves by reproducing pinnedCost unmodified.
var pinnedRoutedCost = map[string]string{
	"sim/4": `dev0 clock=139684766 probes=1224 reads=303 progs=155 erases=11 bus=2230 ram=43280
dev1 clock=136820351 probes=1251 reads=316 progs=154 erases=11 bus=2005 ram=43263
dev2 clock=138335827 probes=1205 reads=365 progs=158 erases=11 bus=1870 ram=43251
dev3 clock=130533794 probes=1286 reads=312 progs=154 erases=10 bus=1959 ram=43252
answers=71e72bd5e8ff5a6a
`,
	"file/4": `dev0 clock=67573616 probes=1224 reads=303 progs=155 erases=11 bus=2230 ram=43280
dev1 clock=63901151 probes=1251 reads=316 progs=154 erases=11 bus=2005 ram=43263
dev2 clock=60835277 probes=1205 reads=365 progs=158 erases=11 bus=1870 ram=43251
dev3 clock=59373044 probes=1286 reads=312 progs=154 erases=10 bus=1959 ram=43252
answers=71e72bd5e8ff5a6a
`,
}

// execBroadcast runs one root-table DELETE or UPDATE the way the
// coordinator did before it routed by key: on every shard.
func execBroadcast(t *testing.T, db *DB, stmt string) int64 {
	t.Helper()
	parsed, err := sql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := plan.BindDML(db.sch, parsed)
	if err != nil {
		t.Fatal(err)
	}
	ss := &db.shards
	db.mu.Lock()
	defer db.mu.Unlock()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	hit := make([]bool, len(ss.engines))
	for s := range hit {
		hit[s] = true
	}
	n, err := ss.execRootDML(d, rootKeyPreds(nil, d.Preds, db.sch.Root()), hit)
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return n
}

// TestPinnedDeltaCheckpointCost pins the simulated cost of the delta
// overlay and of CHECKPOINT across the host-side refactor: the same
// charges in the same order, the same page-cache read order, the same
// bytes programmed. Runs on the environment-selected backend
// (GHOSTDB_TEST_BACKEND=file in the CI matrix) and at shards 1 and 4; at
// 4 once with root DML broadcast (the parent's constants) and once routed.
func TestPinnedDeltaCheckpointCost(t *testing.T) {
	backend := os.Getenv("GHOSTDB_TEST_BACKEND")
	if backend == "" {
		backend = "sim"
	}
	for _, tc := range []struct {
		name      string
		shards    int
		broadcast bool
		want      map[string]string
	}{
		{"shards=1", 1, false, pinnedCost},
		{"shards=4", 4, true, pinnedCost},
		{"shards=4/routed", 4, false, pinnedRoutedCost},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var db *DB
			if tc.shards > 1 {
				db, _, _ = loadShardedTiny(t, tc.shards)
			} else {
				db, _, _ = loadTiny(t)
			}
			defer db.Close()
			devs := db.shards.engines
			ramHigh := make([]int64, len(devs))
			digest := fnv.New64a()
			for _, round := range pinnedScript {
				for _, stmt := range round {
					switch {
					case strings.HasPrefix(stmt, "SELECT"):
						res, err := db.Query(stmt)
						if err != nil {
							t.Fatalf("%s: %v", stmt, err)
						}
						fmt.Fprintf(digest, "%d:%v\n", len(res.Rows), res.Rows)
					case tc.broadcast && (strings.HasPrefix(stmt, "UPDATE Prescription") || strings.HasPrefix(stmt, "DELETE FROM Prescription")):
						fmt.Fprintf(digest, "%d\n", execBroadcast(t, db, stmt))
					default:
						n, err := db.Exec(stmt)
						if err != nil {
							t.Fatalf("%s: %v", stmt, err)
						}
						fmt.Fprintf(digest, "%d\n", n)
					}
					for i, c := range devs {
						c.mu.Lock()
						ramHigh[i] = max(ramHigh[i], c.dev.RAM.High())
						c.mu.Unlock()
					}
				}
			}
			want := tc.want[fmt.Sprintf("%s/%d", backend, tc.shards)]
			got := deviceCosts(devs, ramHigh) + fmt.Sprintf("answers=%016x\n", digest.Sum64())
			if got != want {
				t.Fatalf("simulated cost drifted from the parent commit:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}
