package core

// This file is the host-side finishing stage: aggregation, HAVING,
// DISTINCT, ORDER BY and LIMIT over the physical rows the distributed
// pipeline delivered. It runs on the secure display — the same trust
// domain that renders raw result rows — after the device has finished,
// so it advances no simulated clock and sends nothing over the traced
// buses: the spy observes exactly the traffic of the underlying SPJ
// query, and aggregate queries cost the same simulated time at every batch
// length by construction. That is a security property, not a convenience:
// match counts alone are enough to reconstruct a database, so nothing
// computed here may become observable.
//
// There is one aggregate path. The executor's row walk (executor.go) is
// folded row by row, through one scratch row, into a pooled grouper: Add
// on a single device, AddAt stamped with the global root on a shard,
// whose partials the front door merges (shard_merge.go). An aggregated query
// therefore never materialises its physical rows; only a query that
// returns rows (plain, DISTINCT, ORDER BY) goes through finishRows.

import (
	"fmt"

	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// aggregate folds the execution's n physical rows into the query's
// groups. On a single device it finishes them into res.Rows; as a shard's
// half (sh non-nil) it exports per-group raw accumulator partials stamped
// with the smallest contributing global root, so the front door can
// reconstruct single-device group order — unless the shard is the query's
// only target (sh.finish), which folds its remapped rows and finishes them
// itself: its root order is the global one.
func (ex *executor) aggregate(res *Result, sh *shardRemap, n int) error {
	q := ex.q
	if sh != nil {
		ex.rep.ResultRows = n // a shard reports the physical rows it folds
	}
	// LIMIT 0 (the standard zero-row probe) short-circuits the finishing
	// stage entirely: the result is empty whatever the post-operators.
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	g := exec.GetGrouper(q.GroupBy, aggOps(q))
	defer exec.PutGrouper(g)
	row := make([]value.Value, len(q.Projs))
	w := ex.newWalk()
	for {
		root, ok := w.next(row)
		if !ok {
			break
		}
		var err error
		if sh == nil {
			err = g.Add(row)
		} else {
			// Remap before folding: aggregates over the root key must see
			// global values.
			if root, err = sh.apply(root, row); err != nil {
				return err
			}
			err = g.AddAt(row, int64(root))
		}
		if err != nil {
			return err
		}
	}
	if sh != nil && !sh.finish {
		res.groups = make([]shardGroup, g.Groups())
		for gi := range res.groups {
			keys, accs, first := g.Partial(gi)
			// The key slice aliases pooled grouper storage; copy before Put.
			res.groups[gi] = shardGroup{keys: append([]value.Value(nil), keys...), accs: accs, first: first}
		}
		return nil
	}
	// A global aggregate over an empty result still yields one row
	// (COUNT = 0, NULL for the other aggregates).
	if !q.Grouped && g.Groups() == 0 {
		g.AddEmptyGroup()
	}
	rows, err := grouperRows(q, g, nil)
	if err != nil {
		return err
	}
	res.Rows = finishTail(q, rows)
	ex.rep.ResultRows = len(res.Rows)
	return nil
}

// finishRows applies a non-aggregated query's post-operators (DISTINCT,
// ORDER BY, LIMIT) to its physical rows (Projs-wide, in root-ID order) and
// returns the visible result rows.
func finishRows(q *plan.Query, base [][]value.Value) [][]value.Value {
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	return finishTail(q, outputRows(q, base))
}

// finishTail applies the order-sensitive tail of the finishing stage —
// DISTINCT, ORDER BY, LIMIT, hidden-column stripping — to output-shaped
// rows. It is shared by the single-device path (rows in root-ID order)
// and the front door over several devices (rows re-merged into global
// root-ID order), so sort ties break identically on both: the sorter's
// arrival-order tiebreak sees the same sequence either way.
func finishTail(q *plan.Query, rows [][]value.Value) [][]value.Value {
	if q.Distinct {
		d := exec.GetDistinct(q.VisibleOuts)
		kept := rows[:0]
		for _, r := range rows {
			if !d.Seen(r) {
				kept = append(kept, r)
			}
		}
		exec.PutDistinct(d)
		rows = kept
	}
	if len(q.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(q.OrderBy))
		for i, k := range q.OrderBy {
			keys[i] = exec.SortKey{Col: k.Out, Desc: k.Desc}
		}
		// With a LIMIT the sorter keeps only the top K in a bounded heap.
		s := exec.GetSorter(keys, q.Limit)
		for _, r := range rows {
			s.Push(r)
		}
		sorted := s.Finish()
		rows = make([][]value.Value, len(sorted))
		copy(rows, sorted) // the sorted slice aliases pooled storage
		exec.PutSorter(s)
	}
	if q.HasLimit && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	// Drop hidden ORDER BY keys appended past the visible columns.
	if len(q.Outputs) > q.VisibleOuts {
		for i := range rows {
			rows[i] = rows[i][:q.VisibleOuts:q.VisibleOuts]
		}
	}
	return rows
}

// outputRows remaps physical rows to the query's output columns, all
// rows sharing one flat backing array.
func outputRows(q *plan.Query, base [][]value.Value) [][]value.Value {
	width := len(q.Outputs)
	out := make([][]value.Value, len(base))
	flat := make([]value.Value, len(base)*width)
	for i, br := range base {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		for oi, o := range q.Outputs {
			row[oi] = br[o.Proj]
		}
		out[i] = row
	}
	return out
}

// aggOps translates the query's aggregate expressions into executor
// accumulator descriptors.
func aggOps(q *plan.Query) []exec.AggOp {
	aggs := make([]exec.AggOp, len(q.Aggs))
	for i, a := range q.Aggs {
		op := exec.AggOp{Func: a.Func, Col: a.Proj}
		if a.Proj >= 0 {
			op.ArgKind = q.Projs[a.Proj].Kind
		}
		aggs[i] = op
	}
	return aggs
}

// grouperRows finalizes a populated grouper into output rows, applying
// HAVING. order lists the group indexes to emit in sequence; nil means
// the grouper's natural first-seen order. The scatter-gather merge
// passes an order sorted by FirstSeen stamp so cross-shard groups come
// out in the same sequence the single-device engine produces.
func grouperRows(q *plan.Query, g *exec.Grouper, order []int) ([][]value.Value, error) {
	width := len(q.Outputs)
	// Key positions: output plain columns address their group key slot.
	keyPos := make(map[int]int, len(q.GroupBy))
	for pos, pi := range q.GroupBy {
		keyPos[pi] = pos
	}

	emit := func(gi int) (bool, error) {
		for _, h := range q.Having {
			ok, err := havingMatch(g.AggValue(gi, h.AggIdx), h.Op, h.Val)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	}
	var out [][]value.Value
	n := g.Groups()
	if order != nil {
		n = len(order)
	}
	for i := 0; i < n; i++ {
		gi := i
		if order != nil {
			gi = order[i]
		}
		keep, err := emit(gi)
		if err != nil {
			return nil, err
		}
		if !keep {
			continue
		}
		row := make([]value.Value, width)
		for oi, o := range q.Outputs {
			if o.AggIdx >= 0 {
				row[oi] = g.AggValue(gi, o.AggIdx)
				continue
			}
			pos, ok := keyPos[o.Proj]
			if !ok {
				return nil, fmt.Errorf("core: output %s is not a grouping column", o.Label)
			}
			row[oi] = g.Key(gi, pos)
		}
		out = append(out, row)
	}
	return out, nil
}

// havingMatch evaluates one HAVING comparison. A NULL aggregate (empty
// global group) compares to nothing, like SQL's NULL.
func havingMatch(v value.Value, op sql.CompareOp, lit value.Value) (bool, error) {
	if !v.IsValid() {
		return false, nil
	}
	c, err := value.Compare(v, lit)
	if err != nil {
		return false, err
	}
	switch op {
	case sql.OpEq:
		return c == 0, nil
	case sql.OpNe:
		return c != 0, nil
	case sql.OpLt:
		return c < 0, nil
	case sql.OpLe:
		return c <= 0, nil
	case sql.OpGt:
		return c > 0, nil
	case sql.OpGe:
		return c >= 0, nil
	}
	return false, fmt.Errorf("core: unknown HAVING operator %v", op)
}
