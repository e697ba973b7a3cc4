package core

import (
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/plan"
)

// Explain renders the plan in the spirit of Figure 5: the device pipeline
// with the untrusted inputs marked, and engine 0's live-DML state.
func (db *DB) Explain(q *plan.Query, spec plan.Spec) string {
	return db.shards.engines[0].planText(q, spec)
}

// planText renders the plan with this device's live-DML state.
func (e *engine) planText(q *plan.Query, spec plan.Spec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s for %s\n", spec.Label, q.SQL)
	fmt.Fprintf(&b, "query root: %s", q.Root.Name)
	if spec.CrossFilter {
		b.WriteString("  [cross-filtering]")
	}
	b.WriteByte('\n')
	for i, p := range q.Preds {
		st := spec.Strategies[i]
		side := "UNTRUSTED"
		switch st {
		case plan.StratHidIndex, plan.StratHidPost, plan.StratVisDevice:
			side = "DEVICE"
		}
		fmt.Fprintf(&b, "  %-12s %-10s %s\n", st, side, p)
	}
	b.WriteString("  pipeline: [selections] -> merge/translate -> Access SKT")
	if len(q.VisiblePreds()) > 0 {
		b.WriteString(" -> bloom/verify")
	}
	b.WriteString(" -> Store -> project -> secure display\n")

	// Live-DML state: the per-table delta/tombstone cardinalities, and
	// this query's footprint (how many base root rows the pipeline will
	// subtract and re-evaluate against the effective state).
	e.mu.Lock()
	type deltaLine struct {
		name             string
		rows, tombstones int
	}
	var lines []deltaLine
	for _, d := range e.delta.Tables() {
		if d.Dirty() {
			lines = append(lines, deltaLine{d.Name(), d.Rows(), d.Tombstones()})
		}
	}
	var dirtyRoots, cands int
	if e.loaded && len(lines) > 0 {
		dead, cs := e.deltaFootprint(q)
		dirtyRoots, cands = dead.count(), len(cs)
	}
	e.mu.Unlock()
	if len(lines) > 0 {
		b.WriteString("  delta:")
		for _, l := range lines {
			fmt.Fprintf(&b, " %s[%d rows, %d tombstones]", l.name, l.rows, l.tombstones)
		}
		fmt.Fprintf(&b, "\n  delta merge: subtract %d base root IDs, re-evaluate %d candidates\n", dirtyRoots, cands)
	}
	return b.String()
}
