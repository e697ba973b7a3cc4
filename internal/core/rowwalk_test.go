package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/value"
)

// The aggregate path folds the executor's row walk straight into a
// grouper. Its references are the two loops it replaced, kept here: the
// aggregated branch of outputRows (materialise the physical rows, then
// add them one by one) and shardPartials (a pass over the shard's rows and their
// global roots). Both consume the physical rows of the same query with
// its post-operators stripped.

// refFinishAggregate is the single device's finishRows, before the front
// door finished every query, for an aggregated query over materialised
// physical rows.
func refFinishAggregate(q *plan.Query, base [][]value.Value) ([][]value.Value, error) {
	if q.HasLimit && q.Limit == 0 {
		return nil, nil
	}
	g := exec.GetGrouper(q.GroupBy, aggOps(q))
	defer exec.PutGrouper(g)
	for _, row := range base {
		if err := g.Add(row); err != nil {
			return nil, err
		}
	}
	if !q.Grouped && g.Groups() == 0 {
		g.AddEmptyGroup()
	}
	rows, err := grouperRows(q, g, nil)
	if err != nil {
		return nil, err
	}
	return finishTail(q, rows), nil
}

// partial is one group as the front door absorbs it from an engine's
// grouper: key tuple, raw accumulator states, smallest global root.
type partial struct {
	keys  []value.Value
	accs  []exec.AggState
	first int64
}

// partials copies out every group of g (nil: none).
func partials(g *exec.Grouper) []partial {
	if g == nil {
		return nil
	}
	out := make([]partial, g.Groups())
	for gi := range out {
		keys, accs, first := g.Partial(gi)
		out[gi] = partial{keys: slices.Clone(keys), accs: accs, first: first}
	}
	return out
}

// refShardPartials is the shardPartials that preceded the walk.
func refShardPartials(q *plan.Query, rows [][]value.Value, groots []uint32) ([]partial, error) {
	g := exec.GetGrouper(q.GroupBy, aggOps(q))
	defer exec.PutGrouper(g)
	for i, row := range rows {
		if err := g.AddAt(row, int64(groots[i])); err != nil {
			return nil, err
		}
	}
	return partials(g), nil
}

// stripPostOps returns q as the plain query that delivers its physical
// rows: same tables, predicates and projections, no finishing stage.
func stripPostOps(q *plan.Query) *plan.Query {
	p := *q
	p.Outputs, p.VisibleOuts = nil, 0
	p.Aggs, p.GroupBy, p.Grouped, p.Having = nil, nil, false, nil
	p.OrderBy, p.Distinct = nil, false
	p.HasLimit, p.Limit = false, 0
	return &p
}

func sameGroups(a, b []partial) bool {
	return slices.EqualFunc(a, b, func(x, y partial) bool {
		return x.first == y.first && slices.Equal(x.keys, y.keys) && slices.Equal(x.accs, y.accs)
	})
}

// TestRowWalkMatchesAssembleThenFinish replays the seeded post-operator
// corpus with a clean base, a dirty delta and after CHECKPOINT. On one
// device every aggregated query must return through the front door
// exactly what the reference computes from the materialised physical rows
// (rows, group order and float sums compared with ==); on 1 and 4 shards
// every engine's groups must equal the reference's partials over that
// engine's rows, and the merged result the single device's.
func TestRowWalkMatchesAssembleThenFinish(t *testing.T) {
	ds := datagen.Generate(datagen.Tiny())
	open := func(opts ...Option) *DB {
		db, err := Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadDataset(ds); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}
	single := open()
	sharded := []*DB{open(WithShards(1)), open(WithShards(4))}
	all := append([]*DB{single}, sharded...)
	gen := &queryGen{rng: rand.New(rand.NewSource(16)), ds: ds}

	want := 40
	if testing.Short() {
		want = 12
	}
	replay := func(state string) {
		for checked := 0; checked < want; {
			sqlText := gen.nextPostOp()
			ccq, err := single.compileCached(nil, sqlText)
			if err != nil {
				t.Fatalf("%s %q: %v", state, sqlText, err)
			}
			bound, err := ccq.shape.BindParams(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bound.Aggregated() {
				continue
			}
			checked++
			got, err := ccq.Run(nil)
			if err != nil {
				t.Fatalf("%s %q: %v", state, sqlText, err)
			}
			var phys Result
			kid := single.shards.planOnce(ccq, single.sch.Root()).kids[0]
			if err := kid.run(stripPostOps(bound), &queryConfig{}, nil, &phys); err != nil {
				t.Fatalf("%s %q (physical rows): %v", state, sqlText, err)
			}
			ref, err := refFinishAggregate(bound, phys.Rows)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(got.Rows, ref) {
				t.Fatalf("%s %q: the walk returned\n%v\nassemble-then-finish over %d physical rows\n%v",
					state, sqlText, got.Rows, len(phys.Rows), ref)
			}
			if got.Report.ResultRows != len(ref) {
				t.Fatalf("%s %q: report says %d rows, result has %d", state, sqlText, got.Report.ResultRows, len(ref))
			}
			for _, sdb := range sharded {
				checkShardWalk(t, state, sdb, sqlText, got.Rows)
			}
		}
	}

	replay("clean")
	for _, stmt := range dmlScript {
		for _, db := range all {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%q: %v", stmt, err)
			}
		}
	}
	replay("dirty")
	for _, db := range all {
		if n, err := db.Checkpoint(); err != nil || n == 0 {
			t.Fatalf("checkpoint absorbed %d: %v", n, err)
		}
	}
	replay("ckpt")
}

// checkShardWalk holds one database's rows to the single device's and,
// for a root-rooted query, every engine's groups to refShardPartials — the
// one engine of a single device included, whose root mapping is the
// identity.
func checkShardWalk(t *testing.T, state string, sdb *DB, sqlText string, want [][]value.Value) {
	t.Helper()
	ss := &sdb.shards
	tag := fmt.Sprintf("%s shards=%d %q", state, sdb.ShardCount(), sqlText)
	res, err := sdb.Query(sqlText)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if !sameRows(res.Rows, want) {
		t.Fatalf("%s: merged\n%v\nsingle device\n%v", tag, res.Rows, want)
	}
	if len(ss.engines) == 1 && (len(res.ShardReports) != 1 || res.ShardReports[0] != res.Report) {
		t.Fatalf("%s: one device's ShardReports %v, want exactly its Report %p", tag, res.ShardReports, res.Report)
	}
	root := sdb.sch.Root()
	if !strings.EqualFold(res.Query.Root.Name, root.Name) {
		return // a dimension-rooted query runs on one replica: nothing to compare per engine
	}
	cq, err := sdb.compileCached(nil, sqlText)
	if err != nil {
		t.Fatal(err)
	}
	cp := ss.planOnce(cq, root)
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for s := range ss.engines {
		var out shardOut
		sdb.runShard(cp, s, cq.shape, &queryConfig{}, &out)
		if out.err != nil {
			t.Fatalf("%s shard %d: %v", tag, s, out.err)
		}
		got := partials(out.res.grouper)
		exec.PutGrouper(out.res.grouper)
		// The same shard-local query, stripped to its physical rows and
		// walked with its global roots (spelled out under the identity).
		local := *cq.shape
		local.Preds = ss.localizePreds(s, cq.shape.Preds, cp.keys)
		sh := &shardRemap{pkProjs: cp.pkProjs}
		if ss.roots.identity() {
			sh.l2g = make([]uint32, ss.roots.n)
			for i := range sh.l2g {
				sh.l2g[i] = uint32(i + 1)
			}
		} else {
			sh.l2g = ss.roots.l2g[s]
		}
		var phys Result
		if err := cp.kids[s].run(stripPostOps(&local), &queryConfig{}, sh, &phys); err != nil {
			t.Fatalf("%s shard %d (physical rows): %v", tag, s, err)
		}
		ref, err := refShardPartials(&local, phys.Rows, phys.Roots)
		if err != nil {
			t.Fatal(err)
		}
		if local.HasLimit && local.Limit == 0 {
			ref = nil // the walk is skipped; the front door returns no rows either way
		}
		if !sameGroups(got, ref) {
			t.Fatalf("%s shard %d: walk partials\n%+v\nshardPartials over %d physical rows\n%+v",
				tag, s, got, len(phys.Rows), ref)
		}
		if out.res.Rows != nil || out.res.Roots != nil {
			t.Fatalf("%s shard %d: an aggregated shard run materialised %d rows", tag, s, len(out.res.Rows))
		}
		if out.res.Report.ResultRows != len(phys.Rows) {
			t.Fatalf("%s shard %d: report says %d physical rows, the pipeline delivered %d",
				tag, s, out.res.Report.ResultRows, len(phys.Rows))
		}
	}
}

// TestSeqSetSweepMatchesSort is the property the walk's base order rests
// on: marking distinct sequence numbers below a bound and sweeping the
// bitmap yields them in ascending order, whatever order they were marked
// in and whatever a previous, larger use left in the backing storage.
func TestSeqSetSweepMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var set seqSet // reused across cases, like the pooled executor's
	sweep := func(bound int, members []uint32) []uint32 {
		ex := &executor{rootBySeq: make([]uint32, bound)}
		for i := range ex.rootBySeq {
			ex.rootBySeq[i] = uint32(i + 1)
		}
		set.reset(bound)
		for _, m := range members {
			set.add(m)
		}
		ex.live = set
		var out []uint32
		w := ex.newWalk()
		for {
			root, ok := w.next(nil)
			if !ok {
				return out
			}
			out = append(out, root-1)
		}
	}
	subset := func(bound, n int) []uint32 {
		out := make([]uint32, n)
		for i, p := range rng.Perm(bound)[:n] {
			out[i] = uint32(p)
		}
		return out
	}
	// In order: each case inherits the previous one's backing storage.
	cases := []struct {
		name    string
		bound   int
		members []uint32
	}{
		{"empty", 1000, nil},
		{"empty bound", 0, nil},
		{"one", 1000, []uint32{613}},
		{"first and last", 129, []uint32{128, 0}},
		{"all", 777, subset(777, 777)},
		{"sparse", 100_000, subset(100_000, 40)},
		{"after larger", 70, []uint32{69, 1}},
		{"dense", 4096, subset(4096, 3000)},
		{"already sorted", 500, []uint32{3, 63, 64, 65, 127, 128, 499}},
		{"word boundary", 64, subset(64, 64)},
	}
	for _, c := range cases {
		want := slices.Clone(c.members)
		slices.Sort(want)
		if got := sweep(c.bound, c.members); !slices.Equal(got, want) {
			t.Errorf("%s: sweep of %d members below %d = %v, want %v", c.name, len(c.members), c.bound, got, want)
		}
		if set.n != len(c.members) {
			t.Errorf("%s: set counts %d members, want %d", c.name, set.n, len(c.members))
		}
	}
}

// aggGroupShape is the benchmark's agg_group template: every
// prescription is a physical row, two projections wide.
const aggGroupShape = `SELECT Med.Type, SUM(Pre.Quantity) FROM Medicine Med, Prescription Pre ` +
	`GROUP BY Med.Type ORDER BY SUM(Pre.Quantity) DESC`

// aggTopKShape is the benchmark's agg_topk template.
const aggTopKShape = `SELECT Doc.Country, COUNT(*) FROM Doctor Doc, Visit Vis, Prescription Pre ` +
	`WHERE Pre.Quantity >= 2 GROUP BY Doc.Country HAVING COUNT(*) > 10 ORDER BY COUNT(*) DESC LIMIT 5`

// queryBytes reports the bytes one execution of sqlText allocates, as the
// smallest of a few single-threaded runs. The collector is held off
// across the runs, after one forced cycle: a cycle inside the window
// empties the pools, and refilling them is bytes the query did not ask
// for.
func queryBytes(t *testing.T, db *DB, sqlText string) uint64 {
	t.Helper()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 6; i++ {
		runtime.ReadMemStats(&before)
		if _, err := db.Query(sqlText); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; i > 0 && d < best {
			best = d // run 0 warms the plan cache and the pools
		}
	}
	return best
}

// TestAggregateAllocationFloor pins what an aggregated query may allocate
// per physical row: the projection store (a 9-byte cell per row and
// projection, and a 16-byte string header per row of a string projection)
// and nothing else row-shaped. Doubling the rows of an agg_group-shaped
// query may grow its bytes by that store plus slack for the per-row words
// the device pipeline and the visible projection stream carry; a store of
// value.Values (32 B a cell, what it was) or a second materialised copy of
// the rows (what assemble used to build for the grouper) would each add
// more than the slack on top and fail.
func TestAggregateAllocationFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two 20k/40k-row databases")
	}
	const small, large = 20_000, 40_000
	bytesAt := func(rows int) uint64 {
		db := loadScale(t, rows)
		defer db.Close()
		return queryBytes(t, db, aggGroupShape)
	}
	lo, hi := bytesAt(small), bytesAt(large)
	const projections, stringProjections = 2, 1 // Med.Type, Pre.Quantity
	store := uint64(9*projections+16*stringProjections) * (large - small)
	slack := store / 4
	t.Logf("agg_group: %d B at %d rows, %d B at %d rows: +%d B (projection store +%d B, slack %d B)",
		lo, small, hi, large, hi-lo, store, slack)
	if hi < lo || hi-lo > store+slack {
		t.Fatalf("bytes per query grew by %d from %d to %d rows; the projection store accounts for %d (+%d slack): a second row-shaped copy is back",
			hi-lo, small, large, store, slack)
	}
}

// BenchmarkAggregateFinish runs the two aggregate templates that dominate
// plan_mix at its scale, on one device and on four.
func BenchmarkAggregateFinish(b *testing.B) {
	shapes := []struct{ name, sql string }{{"agg_group", aggGroupShape}, {"agg_topk", aggTopKShape}}
	for _, shards := range []int{1, 4} {
		var opts []Option
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		db := loadScale(b, 50_000, opts...)
		for _, shape := range shapes {
			b.Run(fmt.Sprintf("%s/shards=%d", shape.name, shards), func(b *testing.B) {
				if _, err := db.Query(shape.sql); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(shape.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		db.Close()
	}
}
