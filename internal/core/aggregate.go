package core

// This file is the host-side finishing stage: aggregation, HAVING,
// DISTINCT, ORDER BY and LIMIT over the physical rows the distributed
// pipeline delivered. It runs on the secure display — the same trust
// domain that renders raw result rows — after the devices have finished,
// so it advances no simulated clock and sends nothing over the traced
// buses: the spy observes exactly the traffic of the underlying SPJ
// query, and aggregate queries cost the same simulated time at every batch
// length by construction. That is a security property, not a convenience:
// match counts alone are enough to reconstruct a database, so nothing
// computed here may become observable.
//
// There is one finisher, the front door's gather (coordinator.go), and it
// runs once per query over 0, 1 or k engines. An engine hands back its
// half: an aggregated query's row walk (executor.go) folded row by row,
// through one scratch row, into a pooled grouper whose groups carry their
// smallest global root (AddAt), or any other query's physical rows in
// root order. The front door merges the halves (shard_merge.go) — one
// grouper or one stream is already merged — and finishes them here:
// grouperRows, then finishTail. An aggregated query therefore never
// materialises its physical rows.

import (
	"fmt"

	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// aggregate folds the execution's n physical rows into the query's
// groups and hands the grouper to the front door in res, every group
// stamped with the smallest global root that contributed: several
// shards' groups then merge in single-device creation order, and one
// engine's are already in it.
func (ex *executor) aggregate(res *Result, sh *shardRemap, n int) error {
	q := ex.q
	ex.rep.ResultRows = n // the engine reports the physical rows it folds
	// LIMIT 0 (the standard zero-row probe) is empty whatever the groups.
	if q.HasLimit && q.Limit == 0 {
		return nil
	}
	g := exec.GetGrouper(q.GroupBy, aggOps(q))
	row := make([]value.Value, len(q.Projs))
	w := ex.newWalk()
	for {
		root, ok := w.next(row)
		if !ok {
			break
		}
		// Remap before folding: aggregates over the root key must see
		// global values.
		root, err := sh.apply(root, row)
		if err == nil {
			err = g.AddAt(row, int64(root))
		}
		if err != nil {
			exec.PutGrouper(g)
			return err
		}
	}
	res.grouper = g
	return nil
}

// finishTail applies the order-sensitive tail of the finishing stage —
// DISTINCT, ORDER BY, LIMIT, hidden-column stripping — to the merged
// rows: output-shaped (physical for a query without post-operators, on
// which it changes nothing) and in the order a single device creates
// them, global root order or group creation order. Sort ties therefore
// break identically at every shard count: the sorter's arrival-order
// tiebreak sees the same sequence.
func finishTail(q *plan.Query, rows [][]value.Value) [][]value.Value {
	// LIMIT 0 (the standard zero-row probe) is empty whatever the
	// post-operators.
	if q.HasLimit && q.Limit == 0 {
		return rows[:0]
	}
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
// the grouper's natural first-seen order. A merge of several shards'
// groupers passes an order sorted by FirstSeen stamp so cross-shard
// groups come out in the same sequence the single-device engine produces.
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
	n := g.Groups()
	if order != nil {
		n = len(order)
	}
	// The kept rows share one flat backing array, cap-limited so that
	// finishTail's in-place DISTINCT and its sorter cannot run into a
	// neighbour.
	out := make([][]value.Value, 0, n)
	flat := make([]value.Value, n*width)
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
		k := len(out)
		row := flat[k*width : (k+1)*width : (k+1)*width]
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
