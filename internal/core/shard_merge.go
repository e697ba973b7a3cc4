package core

// The gather side of a query: what one contacted engine hands back, how
// its rows are carried into the global key space, the reports' merge and
// the three host-side row merges (groupers, post-operator candidates,
// plain root streams) that turn 0, 1 or k engines' halves into the rows a
// single device returns before finishTail. One half is already merged.
// Nothing here charges a simulated clock or touches a traced bus — like
// the rest of the finishing stage it runs on the secure display. Routing
// and fan-out live in coordinator.go.

import (
	"fmt"
	"sort"

	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// shardOut is one contacted shard's half of a query: res carries its
// grouper (aggregated) or its physical rows, with their global roots on a
// remapped shard (plain); rows a post-op query's rows reduced to
// candidates.
type shardOut struct {
	shard int
	res   Result
	rows  [][]value.Value // post-op candidates, with a trailing global root on a remapped shard
	err   error
}

// shardRemap carries a shard's physical rows into the global key space
// while the executor walks them: the local->global root mapping and the
// projections that show the root's primary key. The mapping is only valid
// under ss.mu.RLock, which the front door holds for the whole query. A
// nil *shardRemap is the identity.
type shardRemap struct {
	l2g     []uint32
	pkProjs []int
}

// apply returns the global identifier of the shard-local root and
// rewrites the row's root-key projections to it.
func (m *shardRemap) apply(local uint32, row []value.Value) (uint32, error) {
	if m == nil {
		return local, nil
	}
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
// output-shaped candidates. On a remapped shard each carries a trailing
// global-root column and the per-shard pushdowns apply: DISTINCT always,
// and top-K (ORDER BY+LIMIT) or a plain LIMIT cap. Dropping rows here is
// safe: rows arrive in global root order within a shard, global dedupe
// keeps the earliest-root occurrence of a value, and the sorter breaks
// ties by arrival (= root) order — so any row cut locally has at least
// LIMIT globally-surviving rows ranked before it. Without roots (nil
// groots: the identity mapping or a replica) the rows are the query's
// only stream, and finishTail does all of that once.
func shardCandidates(q *plan.Query, rows [][]value.Value, groots []uint32) [][]value.Value {
	width := len(q.Outputs)
	stride := width
	if groots != nil {
		stride++
	}
	out := make([][]value.Value, len(rows))
	// One flat backing array; the sub-slices are cap-limited, so DISTINCT's
	// in-place compaction and the sorter's copy cannot run into a neighbour.
	flat := make([]value.Value, len(rows)*stride)
	for i, br := range rows {
		row := flat[i*stride : (i+1)*stride : (i+1)*stride]
		for oi, o := range q.Outputs {
			row[oi] = br[o.Proj]
		}
		if groots != nil {
			row[width] = value.NewInt(int64(groots[i]))
		}
		out[i] = row
	}
	if groots == nil {
		return out
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

// mergeReports merges the contacted engines' execution reports:
// simulated time and RAM are per-device maxima (the devices run
// concurrently), flash and bus work are sums, and the plan label is the
// first contacted shard's. One report is its own merge, operators
// included; with no shard contacted there was no plan to run.
func mergeReports(q *plan.Query, outs []shardOut) *stats.Report {
	if len(outs) == 1 {
		return outs[0].res.Report
	}
	rep := &stats.Report{Query: q.SQL, PlanLabel: "pruned"}
	for i := range outs {
		r := outs[i].res.Report
		if i == 0 {
			rep.PlanLabel = r.PlanLabel
		}
		rep.TotalTime = max(rep.TotalTime, r.TotalTime)
		rep.RAMHigh = max(rep.RAMHigh, r.RAMHigh)
		rep.Flash.PageReads += r.Flash.PageReads
		rep.Flash.PagesProgrammed += r.Flash.PagesProgrammed
		rep.Flash.BlockErases += r.Flash.BlockErases
		rep.Flash.BytesRead += r.Flash.BytesRead
		rep.Flash.BytesProgrammed += r.Flash.BytesProgrammed
		rep.Flash.ReadTime += r.Flash.ReadTime
		rep.Flash.ProgTime += r.Flash.ProgTime
		rep.Flash.EraseTime += r.Flash.EraseTime
		rep.BusBytes += r.BusBytes
		rep.BusMsgs += r.BusMsgs
	}
	return rep
}

// finish is the one finisher: it merges the engines' halves into
// output-shaped rows in single-device order and runs the finishing tail
// over them, once per query.
func finish(q *plan.Query, outs []shardOut) ([][]value.Value, error) {
	var rows [][]value.Value
	switch {
	case q.Aggregated():
		var err error
		if rows, err = mergeAggregates(q, outs); err != nil {
			return nil, err
		}
	case q.HasPostOps():
		rows = mergeCandidates(q, outs)
	default:
		rows = mergeRoots(q, outs)
	}
	return finishTail(q, rows), nil
}

// mergeAggregates finalises the engines' groupers into output rows
// (HAVING applied) in single-device group creation order. One grouper is
// already merged: its walk ran in global root order. Several are absorbed
// partial by partial into a merge grouper (identity key columns: the
// partials' key tuples address themselves), whose groups are then
// ordered by their smallest global root. The engines' groupers go back to
// their pool with the gather state (putGather).
func mergeAggregates(q *plan.Query, outs []shardOut) ([][]value.Value, error) {
	if q.HasLimit && q.Limit == 0 {
		return nil, nil // the engines folded nothing
	}
	var g *exec.Grouper
	if len(outs) == 1 {
		g = outs[0].res.grouper
	} else {
		idKeys := make([]int, len(q.GroupBy))
		for i := range idKeys {
			idKeys[i] = i
		}
		g = exec.GetGrouper(idKeys, aggOps(q))
		defer exec.PutGrouper(g)
		for i := range outs {
			sg := outs[i].res.grouper
			for gi := 0; gi < sg.Groups(); gi++ {
				keys, accs, first := sg.Partial(gi)
				if err := g.Absorb(keys, accs, first); err != nil {
					return nil, err
				}
			}
		}
	}
	// A global aggregate over an empty result still yields one row
	// (COUNT = 0, NULL for the other aggregates).
	if !q.Grouped && g.Groups() == 0 {
		g.AddEmptyGroup()
	}
	var order []int
	if len(outs) != 1 {
		order = make([]int, g.Groups())
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return g.FirstSeen(order[a]) < g.FirstSeen(order[b]) })
	}
	return grouperRows(q, g, order)
}

// mergeCandidates restores global root order over the concatenated
// per-shard candidates and strips their trailing root column. One stream
// is already merged: in root order, or reduced by the top-K pushdown,
// whose sorted output re-sorts to the same rows since its ties stand in
// root order.
func mergeCandidates(q *plan.Query, outs []shardOut) [][]value.Value {
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	width := len(q.Outputs)
	var all [][]value.Value
	if len(outs) == 1 {
		all = outs[0].rows
	} else {
		total := 0
		for _, so := range outs {
			total += len(so.rows)
		}
		all = make([][]value.Value, 0, total)
		for _, so := range outs {
			all = append(all, so.rows...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a][width].Int() < all[b][width].Int() })
	}
	for i := range all {
		all[i] = all[i][:width:width]
	}
	return all
}

// mergeRoots k-way-merges the per-shard plain result rows by global
// root identifier up to the limit. Per-shard rows are already in global
// root order (l2g is strictly increasing), so a linear merge over the
// shard heads suffices; one stream is already merged (and limited).
func mergeRoots(q *plan.Query, outs []shardOut) [][]value.Value {
	if len(outs) == 1 {
		return outs[0].res.Rows
	}
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
