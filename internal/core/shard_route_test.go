package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/value"
)

// keyPred is one generated predicate on the root key: its SQL over the
// alias Pre, and the same condition over global keys. A nil match is a
// predicate the routing rule ignores (<>).
type keyPred struct {
	sql   string
	match func(g int64) bool
}

func keyEq(k int64) keyPred {
	return keyPred{fmt.Sprintf("Pre.PreID = %d", k), func(g int64) bool { return g == k }}
}

func keyBetween(lo, hi int64) keyPred {
	return keyPred{fmt.Sprintf("Pre.PreID BETWEEN %d AND %d", lo, hi), func(g int64) bool { return g >= lo && g <= hi }}
}

func keyIn(ks ...int64) keyPred {
	lits := make([]string, len(ks))
	for i, k := range ks {
		lits[i] = fmt.Sprint(k)
	}
	return keyPred{"Pre.PreID IN (" + strings.Join(lits, ", ") + ")", func(g int64) bool {
		for _, k := range ks {
			if g == k {
				return true
			}
		}
		return false
	}}
}

func keyCmp(op string, k int64) keyPred {
	p := keyPred{sql: fmt.Sprintf("Pre.PreID %s %d", op, k)}
	switch op {
	case "<":
		p.match = func(g int64) bool { return g < k }
	case "<=":
		p.match = func(g int64) bool { return g <= k }
	case ">":
		p.match = func(g int64) bool { return g > k }
	case ">=":
		p.match = func(g int64) bool { return g >= k }
	}
	return p
}

// routeCases draws the root-key side of the corpus for a root of n keys:
// hits, misses on both ends, IN lists of every spread, empty and narrow
// and wide ranges, and conjunctions.
func routeCases(rng *rand.Rand, n int64) [][]keyPred {
	k := func() int64 { return 1 + rng.Int63n(n) }
	spread := func(size int) keyPred {
		ks := make([]int64, size)
		for i := range ks {
			ks[i] = k()
		}
		return keyIn(ks...)
	}
	lo := k()
	return [][]keyPred{
		nil, // no root-key predicate: every shard
		{keyEq(k())},
		{keyEq(1)},
		{keyEq(n)},
		{keyEq(0)},
		{keyEq(n + 7)},
		{spread(1)},
		{spread(2)},
		{spread(3)},
		{spread(6)},
		{keyIn(0, n+3)},
		{keyIn(k(), 0, n+1, k())},
		{keyBetween(lo+5, lo)}, // empty
		{keyBetween(lo, lo)},
		{keyBetween(lo, lo+1)},
		{keyBetween(lo, lo+2)},
		{keyBetween(n-1, n+50)},
		{keyBetween(-5, 2)},
		{keyBetween(n/4, 3*n/4)},
		{keyCmp("<", 1)},
		{keyCmp("<", 3)},
		{keyCmp("<=", 2)},
		{keyCmp(">", n-2)},
		{keyCmp(">=", n)},
		{keyCmp(">", n)},
		{keyCmp(">=", n/2)},
		{keyCmp(">", lo-3), keyEq(lo)},
		{keyCmp(">", lo), keyEq(lo)},
		{keyCmp("<=", lo+1), keyCmp(">=", lo)},
		{spread(5), keyCmp("<=", n/2)},
		{keyIn(lo, lo+1, lo+2), keyIn(lo+2, lo+1, lo+9)},
		{keyEq(lo), {sql: fmt.Sprintf("Pre.PreID <> %d", lo)}},
		{{sql: fmt.Sprintf("Pre.PreID <> %d", lo)}},
	}
}

// routeContexts are what stands beside the root-key predicates: nothing,
// a hidden root column, a visible root column, a hidden dimension column
// behind a join, a visible dimension column — none of which may prune.
var routeContexts = []struct{ from, where string }{
	{"Prescription Pre", ""},
	{"Prescription Pre", "Pre.Quantity > 20"},
	{"Prescription Pre", "Pre.Frequency >= 2"},
	{"Prescription Pre, Visit Vis", "Vis.Purpose = 'Sclerosis'"},
	{"Prescription Pre, Medicine Med", "Med.Type = 'Antibiotic'"},
}

// routeShapes are the SELECT heads and tails put on top.
var routeShapes = []struct{ head, tail string }{
	{"SELECT Pre.PreID, Pre.Quantity", ""},
	{"SELECT Pre.PreID, Pre.Frequency", " LIMIT 2"},
	{"SELECT COUNT(*), MIN(Pre.PreID), MAX(Pre.Quantity), AVG(Pre.Quantity)", ""},
	{"SELECT Pre.Frequency, COUNT(*), SUM(Pre.Quantity)", " GROUP BY Pre.Frequency"},
	{"SELECT DISTINCT Pre.Frequency", ""},
	{"SELECT Pre.PreID, Pre.Quantity", " ORDER BY Pre.Quantity DESC, Pre.PreID LIMIT 3"},
}

// forcedScatter runs sqlText on every shard of sdb, whatever its root-key
// predicates say: the reference the routed run is held to.
func forcedScatter(t *testing.T, sdb *DB, sqlText string) *Result {
	t.Helper()
	cq, err := sdb.compileCached(nil, sqlText)
	if err != nil {
		t.Fatal(err)
	}
	ss := &sdb.shards
	cp := ss.planOnce(cq, sdb.sch.Root())
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	hit := make([]bool, len(ss.engines))
	for s := range hit {
		hit[s] = true
	}
	res, err := sdb.gather(cp, cq.shape, &queryConfig{}, hit, len(hit))
	if err != nil {
		t.Fatalf("forced scatter of %q: %v", sqlText, err)
	}
	return res
}

// coldCaches empties every shard's page cache, so what a run costs a
// device does not depend on which statements reached that device before.
func coldCaches(sdb *DB) {
	for _, c := range sdb.shards.engines {
		c.mu.Lock()
		c.hid.Cache().Invalidate()
		c.mu.Unlock()
	}
}

// wantTargets places, by brute force over the global key space, the
// shards that own a key every predicate admits.
func wantTargets(ss *shardSet, keys []keyPred) []bool {
	want := make([]bool, len(ss.engines))
	narrowing := false
	for _, p := range keys {
		narrowing = narrowing || p.match != nil
	}
	for g := int64(1); g <= int64(ss.roots.n); g++ {
		ok := true
		for _, p := range keys {
			if p.match != nil && !p.match(g) {
				ok = false
				break
			}
		}
		if ok {
			want[ss.roots.shardOf(g)] = true
		}
	}
	if !narrowing { // no predicate the rule routes by: every shard, keys or not
		for s := range want {
			want[s] = true
		}
	}
	return want
}

// TestShardRouteDifferential is the routing differential: seeded root-key
// predicates, alone and beside predicates that must not prune, under every
// result shape, on a clean, a dirty and a checkpointed database. The
// routed 4-shard answer must equal the single device's, WithShards(1)'s
// and a forced full scatter's; exactly the shards that own no admissible
// key go uncontacted; and the report is the contacted shards' — their max
// simulated time, their summed flash and bus work, each shard costing what
// it costs in the full scatter.
func TestShardRouteDifferential(t *testing.T) {
	single, _, _ := loadTiny(t)
	one, _, _ := loadShardedTiny(t, 1)
	sdb, _, _ := loadShardedTiny(t, 4)
	dbs := []*DB{single, one, sdb}
	rng := rand.New(rand.NewSource(1707))
	ss := &sdb.shards

	pruned, zero, scattered := 0, 0, 0
	replay := func(state string) {
		next, err := single.NextID("Prescription")
		if err != nil {
			t.Fatal(err)
		}
		n := int64(next) - 1
		cases := routeCases(rng, n)
		for ci, keys := range cases {
			// Every case meets every context and every shape once per state,
			// rotating so the product stays small.
			ctx := routeContexts[(ci+len(state))%len(routeContexts)]
			for si, shape := range routeShapes {
				if testing.Short() && (ci+si)%3 != 0 {
					continue
				}
				var conds []string
				keyOnly := ctx.where == ""
				for _, p := range keys {
					conds = append(conds, p.sql)
					keyOnly = keyOnly && p.match != nil
				}
				if ctx.where != "" {
					conds = append(conds, ctx.where)
				}
				sqlText := shape.head + " FROM " + ctx.from
				if len(conds) > 0 {
					sqlText += " WHERE " + strings.Join(conds, " AND ")
				}
				sqlText += shape.tail
				tag := state + ": " + sqlText

				ref, err := single.Query(sqlText)
				if err != nil {
					t.Fatalf("%s: single device: %v", tag, err)
				}
				oneRes, err := one.Query(sqlText)
				if err != nil {
					t.Fatalf("%s: WithShards(1): %v", tag, err)
				}
				if !sameRows(oneRes.Rows, ref.Rows) {
					t.Fatalf("%s: WithShards(1)\n%v\nsingle device\n%v", tag, oneRes.Rows, ref.Rows)
				}
				// Every shard chooses its plan first (the optimizer's probes
				// read index pages), then both runs start from cold caches.
				forcedScatter(t, sdb, sqlText)
				coldCaches(sdb)
				res, err := sdb.Query(sqlText)
				if err != nil {
					t.Fatalf("%s: routed: %v", tag, err)
				}
				if !sameRows(res.Rows, ref.Rows) {
					t.Fatalf("%s: routed\n%v\nsingle device\n%v", tag, res.Rows, ref.Rows)
				}
				coldCaches(sdb)
				full := forcedScatter(t, sdb, sqlText)
				if !sameRows(full.Rows, ref.Rows) {
					t.Fatalf("%s: forced scatter\n%v\nsingle device\n%v", tag, full.Rows, ref.Rows)
				}

				want := wantTargets(ss, keys)
				contacted := 0
				var sumReads, sumBytes, sumBus, sumMsgs int64
				var maxTime time.Duration
				for s, rep := range res.ShardReports {
					if (rep != nil) != want[s] {
						t.Fatalf("%s: shard %d contacted=%v, an admissible key lives there=%v", tag, s, rep != nil, want[s])
					}
					if rep == nil {
						continue
					}
					contacted++
					sumReads += rep.Flash.PageReads
					sumBytes += rep.Flash.BytesRead
					sumBus += rep.BusBytes
					sumMsgs += rep.BusMsgs
					maxTime = max(maxTime, rep.TotalTime)
				}
				rep := res.Report
				if rep.Flash.PageReads != sumReads || rep.Flash.BytesRead != sumBytes || rep.BusBytes != sumBus || rep.BusMsgs != sumMsgs {
					t.Fatalf("%s: report totals %d reads %d B, bus %d B %d msgs; contacted shards sum to %d, %d, %d, %d",
						tag, rep.Flash.PageReads, rep.Flash.BytesRead, rep.BusBytes, rep.BusMsgs, sumReads, sumBytes, sumBus, sumMsgs)
				}
				if rep.TotalTime != maxTime {
					t.Fatalf("%s: TotalTime %v, contacted shards' max %v", tag, rep.TotalTime, maxTime)
				}
				// A contacted shard does the same device work either way.
				for s, r := range res.ShardReports {
					if f := full.ShardReports[s]; r != nil && (r.TotalTime != f.TotalTime || r.Flash != f.Flash || r.BusBytes != f.BusBytes) {
						t.Fatalf("%s: shard %d routed %v / %+v / %d B, in the forced scatter %v / %+v / %d B",
							tag, s, r.TotalTime, r.Flash, r.BusBytes, f.TotalTime, f.Flash, f.BusBytes)
					}
				}
				switch {
				case contacted == 0:
					// No device ran: nothing to time. The full scatter pays four
					// empty pipelines for the same empty answer.
					zero++
					if rep.TotalTime != 0 || full.Report.TotalTime == 0 {
						t.Fatalf("%s: no shard contacted but TotalTime %v (forced scatter %v)", tag, rep.TotalTime, full.Report.TotalTime)
					}
				case keyOnly && rep.TotalTime != full.Report.TotalTime:
					// Keyed on the root alone, a pruned shard's pipeline is empty
					// end to end and never the slowest: routing leaves the
					// simulated time where the full scatter had it. (A <> on the
					// key is no such predicate: off the owner it matches all rows.)
					t.Fatalf("%s: TotalTime %v over %d shards, forced scatter %v", tag, rep.TotalTime, contacted, full.Report.TotalTime)
				case rep.TotalTime > full.Report.TotalTime:
					// Beside a hidden or dimension predicate a pruned shard still
					// had index ranges to walk, and could have been the slowest.
					t.Fatalf("%s: TotalTime %v over %d shards exceeds the forced scatter's %v", tag, rep.TotalTime, contacted, full.Report.TotalTime)
				}
				if contacted == len(want) {
					scattered++
				} else if contacted > 0 {
					pruned++
				}
			}
		}
	}

	replay("clean")
	script := append(append([]string(nil), dmlScript...),
		`INSERT INTO Prescription VALUES (601, 4, 2, DATE '2007-05-06', 1, 3), (602, 9, 1, DATE '2007-05-07', 2, 3)`,
		`DELETE FROM Prescription WHERE PreID = 17`,
		`UPDATE Prescription SET Quantity = 33 WHERE PreID IN (601, 44)`,
	)
	for _, stmt := range script {
		var first int64
		for i, db := range dbs {
			n, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s on engine %d: %v", stmt, i, err)
			}
			if i == 0 {
				first = n
			} else if n != first {
				t.Fatalf("%s: engine %d affected %d rows, single device %d", stmt, i, n, first)
			}
		}
	}
	replay("dirty")
	for i, db := range dbs {
		if n, err := db.Checkpoint(); err != nil || n == 0 {
			t.Fatalf("checkpoint on engine %d absorbed %d: %v", i, n, err)
		}
	}
	replay("ckpt")
	if pruned == 0 || zero == 0 || scattered == 0 {
		t.Fatalf("corpus degenerate: %d pruned, %d answered without a device, %d scattered", pruned, zero, scattered)
	}
}

// shardDeltaEntries counts the delta rows and tombstones of one device.
func shardDeltaEntries(db *DB, e *engine) int {
	var d DeltaStats
	for _, t := range db.Schema().Tables() {
		e.addDelta(t, &d)
	}
	return d.Rows + d.Tombstones
}

// TestShardKeyedDML pins root-write routing: an UPDATE or DELETE keyed on
// the root's primary key visits the owning devices only — no other clock
// advances, no other delta grows, a dead device elsewhere does not fail it
// — and affects what the single device affects.
func TestShardKeyedDML(t *testing.T) {
	single, _, _ := loadTiny(t)
	kill := &fault.Plan{CutAtOp: 1}
	kill.SetShard(2)
	sdb, _, _ := loadShardedTiny(t, 4, WithFaultPlan(kill))
	ss := &sdb.shards
	owner := func(g int) int { return int(ss.roots.shardOf(int64(g))) }

	type stmt struct {
		sql    string
		params []value.Value
		keys   []int
	}
	stmts := []stmt{
		{sql: `UPDATE Prescription SET Quantity = 7 WHERE PreID = 9`, keys: []int{9}},
		{sql: `DELETE FROM Prescription WHERE PreID IN (14, 18, 600)`, keys: []int{14, 18, 600}},
		{sql: `UPDATE Prescription SET Frequency = 4 WHERE PreID = ?`, params: []value.Value{value.NewInt(21)}, keys: []int{21}},
		{sql: `DELETE FROM Prescription WHERE PreID IN (?, ?)`, params: []value.Value{value.NewInt(30), value.NewInt(33)}, keys: []int{30, 33}},
		{sql: `UPDATE Prescription SET Quantity = 1 WHERE PreID BETWEEN 41 AND 42 AND Quantity >= 0`, keys: []int{41, 42}},
		{sql: `DELETE FROM Prescription WHERE PreID = 4000`},
	}
	exec := func(db *DB, st stmt) (int64, error) {
		return db.exec(context.Background(), mustParseScript(t, st.sql), st.params)
	}
	for _, st := range stmts {
		targets := map[int]bool{}
		for _, k := range st.keys {
			if owner(k) == 2 {
				t.Fatalf("%s: key %d lives on the shard this test kills; pick another", st.sql, k)
			}
			targets[owner(k)] = true
		}
		clocks := make([]time.Duration, len(ss.engines))
		deltas := make([]int, len(ss.engines))
		for s, c := range ss.engines {
			clocks[s], deltas[s] = c.simTime(), shardDeltaEntries(sdb, c)
		}
		want, err := exec(single, st)
		if err != nil {
			t.Fatalf("%s on the single device: %v", st.sql, err)
		}
		got, err := exec(sdb, st)
		if err != nil {
			t.Fatalf("%s on four shards: %v", st.sql, err)
		}
		if got != want {
			t.Fatalf("%s affected %d rows on four shards, %d on the single device", st.sql, got, want)
		}
		for s, c := range ss.engines {
			moved := c.simTime() != clocks[s]
			grew := shardDeltaEntries(sdb, c) != deltas[s]
			if moved != targets[s] || grew != targets[s] {
				t.Fatalf("%s: shard %d target=%v, clock moved=%v, delta grew=%v", st.sql, s, targets[s], moved, grew)
			}
		}
	}

	// The plan cuts shard 2's power at its first device operation: nothing
	// above reached it. A statement that must visit it trips the cut and
	// fails; keyed writes to healthy owners keep working afterwards.
	if ss.engines[2].fatalError() != nil {
		t.Fatal("shard 2 died during statements that never targeted it")
	}
	if _, err := sdb.Exec(`UPDATE Prescription SET Quantity = 2 WHERE Frequency = 1`); err == nil {
		t.Fatal("a root UPDATE without a key predicate skipped the dying shard")
	}
	if ss.engines[2].fatalError() == nil {
		t.Fatal("the power cut on shard 2 did not latch")
	}
	key := 50
	for owner(key) == 2 {
		key++
	}
	n, err := sdb.Exec(fmt.Sprintf(`UPDATE Prescription SET Quantity = 3 WHERE PreID = %d`, key))
	if err != nil || n != 1 {
		t.Fatalf("keyed UPDATE on healthy shard %d with shard 2 dead: %d rows, %v", owner(key), n, err)
	}
	dead := 50
	for owner(dead) != 2 {
		dead++
	}
	if _, err := sdb.Exec(fmt.Sprintf(`DELETE FROM Prescription WHERE PreID = %d`, dead)); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("keyed DELETE owned by the dead shard: %v", err)
	}
}

// TestShardRouteMetricsAndExplain covers what an operator sees of routing:
// the route counters and contacted-shards histogram, and EXPLAIN ANALYZE
// naming the shards a root key pruned.
func TestShardRouteMetricsAndExplain(t *testing.T) {
	sdb, _, _ := loadShardedTiny(t, 4)
	for _, q := range []string{
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID = 10`,            // pruned, 1 shard
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID = 0`,             // pruned, 0 shards
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID IN (1, 2)`,       // pruned, 2 shards
		`SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity > 20`,          // scatter
		`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'`,           // replica
		`SELECT Vis.VisID FROM Visit Vis WHERE Vis.VisID = 3`,                    // replica: a dimension key is no root key
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID BETWEEN 1 AND 4`, // scatter: every shard owns one
	} {
		if _, err := sdb.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	snap := sdb.MetricsSnapshot()
	for name, want := range map[string]int64{
		`shard_route_total{route="pruned"}`:  3,
		`shard_route_total{route="scatter"}`: 2,
		`shard_route_total{route="replica"}`: 2,
	} {
		if v, ok := snap.Get(name); !ok || v.Value != want {
			t.Errorf("%s = %+v, want %d", name, v, want)
		}
	}
	if v, ok := snap.Get("shards_contacted"); !ok || v.Hist.Count != 7 || v.Hist.Sum != 1+0+2+4+1+1+4 {
		t.Errorf("shards_contacted = %+v, want 7 queries contacting 13 shards", v.Hist)
	}
	for s, child := range sdb.shards.engines {
		if _, ok := child.metrics.reg.Snapshot().Get("shards_contacted"); ok {
			t.Errorf("shard %d registers the coordinator's routing metrics", s)
		}
	}

	a, err := sdb.ExplainAnalyze(`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID IN (2, 6)`)
	if err != nil {
		t.Fatal(err)
	}
	text := a.Text()
	if len(a.Shards) != 4 || a.Shards[0].Pruned != true || a.Shards[1].Pruned || len(a.Shards[1].Ops) == 0 {
		t.Fatalf("shard analyses: %+v", a.Shards)
	}
	for _, want := range []string{"shard 0: pruned (root key)", "shard 1: ", "shard 2: pruned (root key)", "shard 3: pruned (root key)"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "shard 1: pruned") || len(a.Result.Rows) != 2 {
		t.Errorf("shard 1 owns both keys and must have run (%d rows):\n%s", len(a.Result.Rows), text)
	}
	// A dimension-rooted statement prunes nothing: the replicas it skipped
	// are not reported as pruned.
	a, err = sdb.ExplainAnalyze(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.DocID = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(a.Text(), "pruned") || len(a.Shards) != 1 {
		t.Fatalf("dimension-rooted ANALYZE: %d shard sections\n%s", len(a.Shards), a.Text())
	}
}

// BenchmarkShardPoint is shard_scatter's root_point shape — a root-key
// lookup through Compile + Run with a bound parameter — on one device and
// on four, for a key that exists and one past the end.
func BenchmarkShardPoint(b *testing.B) {
	const scale = 50_000
	const q = `SELECT Pre.PreID, Pre.Quantity, Pre.WhenWritten FROM Prescription Pre WHERE Pre.PreID = ?`
	for _, shards := range []int{1, 4} {
		var opts []Option
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		db := loadScale(b, scale, opts...)
		cq, err := db.compileCached(nil, q)
		if err != nil {
			b.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			key  int64
			rows int
		}{{"hit", scale / 3, 1}, {"miss", scale + 1, 0}} {
			b.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(b *testing.B) {
				params := []value.Value{value.NewInt(tc.key)}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := cq.Run(params)
					if err != nil || len(res.Rows) != tc.rows {
						b.Fatalf("%d rows, %v", len(res.Rows), err)
					}
				}
			})
		}
		db.Close()
	}
}
