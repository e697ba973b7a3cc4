package core

// The gather side of a scattered query: what one shard hands back, how
// its rows are carried into the global key space, and the three host-side
// merges (aggregation partials, post-operator candidates, plain root
// streams) that turn the per-shard streams into the rows a single device
// would have returned. Nothing here charges a simulated clock or touches
// a traced bus — like the single-device finishing stage it runs on the
// secure display. Routing and fan-out live in coordinator.go.

import (
	"fmt"
	"sort"

	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/value"
)

// shardGroup is one exported aggregation partial: the group's key
// tuple, its raw accumulator states, and the smallest global root that
// contributed (the group-creation order stamp).
type shardGroup struct {
	keys  []value.Value
	accs  []exec.AggState
	first int64
}

// shardOut is one contacted shard's contribution to the gather phase: res
// carries the group partials (aggregated) or the physical rows with their
// global roots (plain); rows the reduced candidates of a post-op query.
type shardOut struct {
	shard int
	res   *Result
	rows  [][]value.Value // post-op candidates, width+1 with trailing global root
	err   error
}

// shardRemap carries a shard's physical rows into the global key space
// while the executor walks them: the local->global root mapping and the
// projections that show the root's primary key. The mapping is only valid
// under ss.mu.RLock, which the front door holds for the whole query.
type shardRemap struct {
	l2g     []uint32
	pkProjs []int
	// finish is set when this shard is the query's only target: nothing
	// will be merged, so the shard runs the finishing tail itself over its
	// remapped rows and delivers the final result.
	finish bool
}

// apply returns the global identifier of the shard-local root and
// rewrites the row's root-key projections to it.
func (m *shardRemap) apply(local uint32, row []value.Value) (uint32, error) {
	if local == 0 || int(local) > len(m.l2g) {
		return 0, fmt.Errorf("core: local root %d outside the global root mapping (a cross-shard statement partially applied?)", local)
	}
	g := m.l2g[local-1]
	for _, j := range m.pkProjs {
		row[j] = value.NewInt(int64(g))
	}
	return g, nil
}

// shardCandidates reduces a plain post-op query's physical rows to
// output-shaped candidates with a trailing global-root column, applying
// the per-shard pushdowns: DISTINCT always, and top-K (ORDER BY+LIMIT)
// or a plain LIMIT cap. Dropping rows here is safe: rows arrive in
// global root order within a shard, global dedupe keeps the
// earliest-root occurrence of a value, and the sorter breaks ties by
// arrival (= root) order — so any row cut locally has at least LIMIT
// globally-surviving rows ranked before it.
func shardCandidates(q *plan.Query, rows [][]value.Value, groots []uint32) [][]value.Value {
	width := len(q.Outputs)
	out := make([][]value.Value, len(rows))
	// One flat backing array; the sub-slices are cap-limited, so DISTINCT's
	// in-place compaction and the sorter's copy cannot run into a neighbour.
	flat := make([]value.Value, len(rows)*(width+1))
	for i, br := range rows {
		row := flat[i*(width+1) : (i+1)*(width+1) : (i+1)*(width+1)]
		for oi, o := range q.Outputs {
			row[oi] = br[o.Proj]
		}
		row[width] = value.NewInt(int64(groots[i]))
		out[i] = row
	}
	if q.Distinct {
		d := exec.GetDistinct(q.VisibleOuts)
		kept := out[:0]
		for _, r := range out {
			if !d.Seen(r) {
				kept = append(kept, r)
			}
		}
		exec.PutDistinct(d)
		out = kept
	}
	if q.HasLimit {
		switch {
		case len(q.OrderBy) > 0:
			if q.Limit > 0 && len(out) > q.Limit {
				keys := make([]exec.SortKey, len(q.OrderBy))
				for i, k := range q.OrderBy {
					keys[i] = exec.SortKey{Col: k.Out, Desc: k.Desc}
				}
				srt := exec.GetSorter(keys, q.Limit)
				for _, r := range out {
					srt.Push(r)
				}
				sorted := srt.Finish()
				kept := make([][]value.Value, len(sorted))
				copy(kept, sorted)
				exec.PutSorter(srt)
				out = kept
			}
		case len(out) > q.Limit:
			out = out[:q.Limit]
		}
	}
	return out
}

// mergeAggregates absorbs every shard's group partials into one merge
// grouper (identity key columns: the exported key tuples address
// themselves), reorders the groups by their first-seen global root to
// match single-device group creation order, and runs the shared
// finishing tail.
func mergeAggregates(q *plan.Query, outs []shardOut) ([][]value.Value, error) {
	if q.HasLimit && q.Limit == 0 {
		return nil, nil
	}
	idKeys := make([]int, len(q.GroupBy))
	for i := range idKeys {
		idKeys[i] = i
	}
	g := exec.GetGrouper(idKeys, aggOps(q))
	defer exec.PutGrouper(g)
	for _, so := range outs {
		for _, grp := range so.res.groups {
			if err := g.Absorb(grp.keys, grp.accs, grp.first); err != nil {
				return nil, err
			}
		}
	}
	// A global aggregate over an empty scatter still yields one row.
	if !q.Grouped && g.Groups() == 0 {
		g.AddEmptyGroup()
	}
	order := make([]int, g.Groups())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return g.FirstSeen(order[a]) < g.FirstSeen(order[b]) })
	rows, err := grouperRows(q, g, order)
	if err != nil {
		return nil, err
	}
	return finishTail(q, rows), nil
}

// mergeCandidates restores global root order over the concatenated
// per-shard candidates, strips the trailing root column and runs the
// shared finishing tail — identical tie-breaks to the single device.
func mergeCandidates(q *plan.Query, outs []shardOut) [][]value.Value {
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	width := len(q.Outputs)
	total := 0
	for _, so := range outs {
		total += len(so.rows)
	}
	all := make([][]value.Value, 0, total)
	for _, so := range outs {
		all = append(all, so.rows...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a][width].Int() < all[b][width].Int() })
	for i := range all {
		all[i] = all[i][:width:width]
	}
	return finishTail(q, all)
}

// mergeRoots k-way-merges the per-shard plain result rows by global
// root identifier up to the limit. Per-shard rows are already in global
// root order (localToGlobal is strictly increasing), so a linear merge
// over the shard heads suffices.
func mergeRoots(q *plan.Query, outs []shardOut) [][]value.Value {
	limit := -1
	if q.HasLimit {
		limit = q.Limit
	}
	total := 0
	for _, so := range outs {
		total += len(so.res.Roots)
	}
	if limit >= 0 && total > limit {
		total = limit
	}
	rows := make([][]value.Value, 0, total)
	idx := make([]int, len(outs))
	for limit < 0 || len(rows) < limit {
		best := -1
		var bestRoot uint32
		for s := range outs {
			if idx[s] >= len(outs[s].res.Roots) {
				continue
			}
			if r := outs[s].res.Roots[idx[s]]; best < 0 || r < bestRoot {
				best, bestRoot = s, r
			}
		}
		if best < 0 {
			break
		}
		rows = append(rows, outs[best].res.Rows[idx[best]])
		idx[best]++
	}
	return rows
}
