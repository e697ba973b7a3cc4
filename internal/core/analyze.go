package core

// This file is EXPLAIN / EXPLAIN ANALYZE: the SQL-level window into the
// optimizer and the runtime. EXPLAIN renders the chosen plan with the
// cost model's cardinality estimates; EXPLAIN ANALYZE additionally runs
// the statement and lines up per-operator estimated vs actual tuple
// counts with wall-clock and simulated timings — the estimated-vs-actual
// feedback loop a cost-based optimizer consumes. Neither chooses a plan of
// its own: ANALYZE is the statement's ordinary run with every device
// handing back its optimizer choice, EXPLAIN asks the plan holder that
// run would use (optimizeLocked, compile.go).

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/value"
)

// isExplain reports whether sqlText's first token is EXPLAIN, without
// parsing: Session.Query and DB.Query call it on every statement, so it
// must cost nothing for the common non-EXPLAIN case.
func isExplain(s string) bool {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	const kw = "explain"
	if len(s)-i < len(kw) {
		return false
	}
	for j := 0; j < len(kw); j++ {
		if s[i+j]|0x20 != kw[j] {
			return false
		}
	}
	if i+len(kw) < len(s) {
		c := s[i+len(kw)]
		if c == '_' || (c >= '0' && c <= '9') || (c|0x20 >= 'a' && c|0x20 <= 'z') {
			return false
		}
	}
	return true
}

// OpAnalysis is one operator row of an EXPLAIN ANALYZE: the executor's
// measured counters next to the cost model's cardinality estimate.
type OpAnalysis struct {
	Name      string
	Detail    string
	EstRows   int64 // estimated output cardinality; -1 when the model has none
	TuplesIn  int64
	TuplesOut int64
	RAMBytes  int64
	SimTime   time.Duration // simulated device time in the operator's phase
}

// Analysis is the structured product of EXPLAIN [ANALYZE]: the chosen
// plan, the cost model's estimates, and — for ANALYZE — the executed
// result with per-operator actuals.
type Analysis struct {
	SQL     string // canonical text of the explained SELECT
	Analyze bool

	// The plan that was (or would be) executed, DB.Explain's rendering of
	// it, and the cost model's cardinalities and device time for it: the
	// first contacted device's (plain EXPLAIN, or no device contacted:
	// engine 0's); on a sharded DB each shard section carries its own.
	Spec         plan.Spec
	PlanText     string
	Cards        plan.CardEstimates
	EstimatedSim time.Duration

	// Set only when Analyze: the executed result, its wall-clock
	// latency (including device-gate wait), and the per-operator rows.
	Result *Result
	Wall   time.Duration
	Ops    []OpAnalysis

	// Shards carries the per-device actuals of an ANALYZE over several
	// devices (Ops is nil then — operators are per-device). A database of
	// one device shows that device's operators as the statement's Ops.
	Shards []ShardAnalysis
}

// ShardAnalysis is one device shard's slice of an EXPLAIN ANALYZE: the
// shard's simulated time and its operator actuals lined up against the
// estimates of the plan the shard's own optimizer chose from its own
// statistics.
type ShardAnalysis struct {
	Shard   int
	SimTime time.Duration
	Ops     []OpAnalysis
	// Pruned marks a shard a root-rooted query did not contact because no
	// key the statement's root-key predicates admit lives there.
	Pruned bool

	choice *choice // the plan the shard ran and its estimates; nil if pruned
}

// ExplainAnalyze compiles sqlText (a SELECT, or an EXPLAIN [ANALYZE]
// statement whose inner SELECT is used), executes it, and returns the
// plan with per-operator estimated vs actual cardinalities and timings.
// The query must not contain '?' placeholders.
func (db *DB) ExplainAnalyze(sqlText string, opts ...QueryOption) (*Analysis, error) {
	sel, err := innerSelect(sqlText)
	if err != nil {
		return nil, err
	}
	cfg := newQueryConfig(opts)
	return db.analyzeSelect(sel, true, &cfg)
}

// ExplainOnly compiles sqlText like ExplainAnalyze but renders the plan
// and estimates without executing the query.
func (db *DB) ExplainOnly(sqlText string, opts ...QueryOption) (*Analysis, error) {
	sel, err := innerSelect(sqlText)
	if err != nil {
		return nil, err
	}
	cfg := newQueryConfig(opts)
	return db.analyzeSelect(sel, false, &cfg)
}

// innerSelect extracts the SELECT from plain or EXPLAIN-prefixed text.
func innerSelect(sqlText string) (*sql.Select, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.Select:
		return s, nil
	case *sql.Explain:
		return s.Stmt, nil
	default:
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT statements only, got %T", stmt)
	}
}

// explainQuery answers a SQL-level EXPLAIN [ANALYZE] statement with a
// one-column result ("plan"), one text line per row, so the rendering
// flows through Session.Query and the database/sql driver unchanged.
func (db *DB) explainQuery(sqlText string, cfg *queryConfig) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	ex, ok := stmt.(*sql.Explain)
	if !ok {
		return nil, fmt.Errorf("core: expected an EXPLAIN statement, got %T", stmt)
	}
	a, err := db.analyzeSelect(ex.Stmt, ex.Analyze, cfg)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(a.Text(), "\n"), "\n")
	res := &Result{Columns: []string{"plan"}, Query: nil}
	res.Rows = make([][]value.Value, len(lines))
	for i, ln := range lines {
		res.Rows[i] = []value.Value{value.NewString(ln)}
	}
	if a.Result != nil {
		res.Report = a.Result.Report
		res.Spec = a.Result.Spec
	}
	return res, nil
}

// analyzeSelect is EXPLAIN [ANALYZE], on one device and on a shard set
// alike. ANALYZE runs the statement through its compiled query with every
// device that chooses a plan handing the choice back with the result, so
// each shard section shows the plan that shard ran; plain EXPLAIN, and an
// ANALYZE that contacted no device, asks the plan holder a run would use.
func (db *DB) analyzeSelect(sel *sql.Select, execute bool, cfg *queryConfig) (*Analysis, error) {
	canonical := sel.String()
	cq, err := db.compileCached(cfg.session, canonical)
	if err != nil {
		return nil, err
	}
	q := cq.shape
	if q.NumParams > 0 {
		return nil, fmt.Errorf("core: cannot EXPLAIN a query with %d unbound parameters", q.NumParams)
	}
	a := &Analysis{SQL: canonical, Analyze: execute}
	var top *choice // the choice the plan section shows
	if execute {
		start := time.Now()
		run := *cfg
		run.explain = true
		res, err := cq.runObserved(nil, &run)
		if err != nil {
			return nil, err
		}
		a.Wall, a.Result = time.Since(start), res
		if len(res.choices) == 1 {
			if top = res.choices[0]; top != nil {
				a.Ops = analyzeOps(q, top, res.Report)
			}
		} else {
			rootRooted := strings.EqualFold(q.Root.Name, db.sch.Root().Name)
			for s, ch := range res.choices {
				switch {
				case ch != nil:
					rep := res.ShardReports[s]
					a.Shards = append(a.Shards, ShardAnalysis{Shard: s, SimTime: rep.TotalTime, Ops: analyzeOps(q, ch, rep), choice: ch})
					if top == nil {
						top = ch
					}
				case rootRooted:
					a.Shards = append(a.Shards, ShardAnalysis{Shard: s, Pruned: true})
				} // dimension-rooted: only the routed replica ran
			}
		}
	}
	if top == nil {
		holder := &db.shards.planOnce(cq, db.sch.Root()).kids[0]
		if top, err = holder.explain(q, cfg.spec); err != nil {
			return nil, err
		}
	}
	a.Spec, a.Cards, a.EstimatedSim = top.spec, top.cards, top.est
	a.PlanText = top.e.planText(q, top.spec)
	return a, nil
}

// analyzeOps lines the report's measured operators up with the cost
// model's cardinality estimates for the plan the device chose. Operators
// the model does not estimate carry EstRows = -1.
func analyzeOps(q *plan.Query, ch *choice, rep *stats.Report) []OpAnalysis {
	spec, cards := ch.spec, ch.cards
	// Own-level estimates per table for the shipped/bloom-hashed ID
	// lists: visible predicates on one table combine multiplicatively.
	shipEst := map[string]int64{}  // StratVisPre tables
	bloomEst := map[string]int64{} // StratVisPost tables
	tableEst := func(dst map[string]int64, i int) {
		t := q.Preds[i].Col.Table
		if cur, ok := dst[t]; !ok || int64(cards.PredCount[i]) < cur {
			dst[t] = int64(cards.PredCount[i])
		}
	}
	// Root-level estimate per predicate label for index contributions.
	idxEst := map[string]int64{}
	for i, st := range spec.Strategies {
		switch st {
		case plan.StratVisPre:
			tableEst(shipEst, i)
		case plan.StratVisPost:
			tableEst(bloomEst, i)
		case plan.StratHidIndex, plan.StratVisDevice:
			idxEst[q.PredLabel(i)] = int64(cards.PredRootCount[i])
		}
	}

	out := make([]OpAnalysis, 0, len(rep.Ops))
	for _, op := range rep.Ops {
		oa := OpAnalysis{
			Name:      op.Name,
			Detail:    op.Detail,
			EstRows:   -1,
			TuplesIn:  op.TuplesIn,
			TuplesOut: op.TuplesOut,
			RAMBytes:  op.RAMBytes,
			SimTime:   op.Time,
		}
		switch op.Name {
		case "ClimbingIndex":
			if est, ok := idxEst[op.Detail]; ok {
				oa.EstRows = est
			}
		case "ShipIDList":
			if est, ok := shipEst[op.Detail]; ok {
				oa.EstRows = est
			}
		case "BloomBuild":
			if est, ok := bloomEst[op.Detail]; ok {
				oa.EstRows = est
			}
		case "AccessSKT":
			oa.EstRows = int64(cards.Candidates)
		case "Filter", "Project":
			oa.EstRows = int64(cards.Survivors)
		case "Store":
			if op.Detail == "materialize candidates" {
				oa.EstRows = int64(cards.Survivors)
			}
		}
		out = append(out, oa)
	}
	return out
}

// Text renders the analysis the way the demo GUI renders its popups:
// the plan section first, then (for ANALYZE) the estimated-vs-actual
// operator table and the run summary.
func (a *Analysis) Text() string {
	var b strings.Builder
	if a.Analyze {
		b.WriteString("EXPLAIN ANALYZE\n")
	} else {
		b.WriteString("EXPLAIN\n")
	}
	b.WriteString(strings.TrimRight(a.PlanText, "\n"))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "estimated: %d candidates, %d survivors, %s simulated\n",
		a.Cards.Candidates, a.Cards.Survivors, stats.FormatDuration(a.EstimatedSim))
	if !a.Analyze {
		return b.String()
	}
	opTable := func(ops []OpAnalysis) {
		fmt.Fprintf(&b, "%-28s %10s %10s %10s %9s %12s\n",
			"operator", "est", "in", "out", "ram", "sim")
		for _, op := range ops {
			name := op.Name
			if op.Detail != "" {
				name += "(" + op.Detail + ")"
			}
			est := "-"
			if op.EstRows >= 0 {
				est = fmt.Sprintf("%d", op.EstRows)
			}
			fmt.Fprintf(&b, "%-28s %10s %10d %10d %9s %12s\n",
				name, est, op.TuplesIn, op.TuplesOut,
				stats.FormatBytes(op.RAMBytes), stats.FormatDuration(op.SimTime))
		}
	}
	if len(a.Shards) > 0 {
		for _, sh := range a.Shards {
			if sh.Pruned {
				fmt.Fprintf(&b, "shard %d: pruned (root key)\n", sh.Shard)
				continue
			}
			ch := sh.choice
			fmt.Fprintf(&b, "shard %d: plan %s, %s simulated; estimated %d candidates, %d survivors, %s simulated\n",
				sh.Shard, ch.spec.Describe(a.Result.Query), stats.FormatDuration(sh.SimTime),
				ch.cards.Candidates, ch.cards.Survivors, stats.FormatDuration(ch.est))
			opTable(sh.Ops)
		}
	} else {
		opTable(a.Ops)
	}
	rep := a.Result.Report
	fmt.Fprintf(&b, "actual: %d rows in %s simulated, %s wall (estimated %s simulated)\n",
		rep.ResultRows, stats.FormatDuration(rep.TotalTime),
		stats.FormatDuration(a.Wall), stats.FormatDuration(a.EstimatedSim))
	return b.String()
}
