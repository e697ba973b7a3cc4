// Package plan binds SPJ queries against the GhostDB catalog and
// enumerates the paper's query execution strategies: for every visible
// predicate, Pre-filtering (ship the ID list, translate through climbing
// indexes, intersect before touching the SKT) or Post-filtering (ship a
// Bloom filter, probe after the hidden joins); plus Cross-filtering
// (combine selectivities level by level before climbing). A cost model
// over the device profile ranks the candidate plans — "depending on the
// selectivities, a Pre-filtering or Post-filtering strategy can be
// selected per predicate" (Section 4).
package plan

import (
	"errors"
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Col is a bound column reference.
type Col struct {
	Table  string // catalog table name
	Column string // catalog column name
	Kind   value.Kind
	Hidden bool
}

// String renders Table.Column.
func (c Col) String() string { return c.Table + "." + c.Column }

// Pred is a bound selection predicate.
type Pred struct {
	Col Col
	P   pred.P
}

// Hidden reports whether the predicate touches a hidden column — such
// predicates may only be evaluated inside the device.
func (p Pred) Hidden() bool { return p.Col.Hidden }

// String renders the predicate.
func (p Pred) String() string { return p.Col.String() + " " + p.P.String() }

// AggExpr is one aggregate accumulator a query computes: the function
// and its argument column (an index into Projs; -1 for COUNT(*)).
type AggExpr struct {
	Func sql.AggFunc
	Proj int        // argument column in Projs; -1 for COUNT(*)
	Kind value.Kind // result kind
}

// Label renders the aggregate expression over its bound argument.
func (a AggExpr) Label(projs []Col) string {
	if a.Proj < 0 {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + projs[a.Proj].String() + ")"
}

// Output is one result column of a query with post-operators
// (aggregation, ordering, distinct): either an aggregate (AggIdx into
// Aggs) or a plain column (AggIdx == -1, Proj into Projs). Outputs past
// VisibleOuts are hidden ORDER BY keys, dropped before delivery.
type Output struct {
	AggIdx int // index into Aggs; -1 for a plain column
	Proj   int // index into Projs when AggIdx == -1
	Label  string
	Kind   value.Kind
}

// HavingPred is one bound HAVING conjunct: an aggregate compared
// against a literal (possibly a '?' placeholder before BindParams).
type HavingPred struct {
	AggIdx int // index into Aggs
	Op     sql.CompareOp
	Val    value.Value
}

// OrderKey sorts the output rows by Outputs[Out], descending when Desc.
type OrderKey struct {
	Out  int
	Desc bool
}

// Query is a bound query over the tree schema. A Query with
// NumParams > 0 is a parameter-independent shape: its predicate
// literals include unbound '?' placeholders, and it must pass through
// BindParams before it can execute or be costed.
//
// Projs lists the physical columns the distributed SPJ pipeline
// retrieves. For a plain select-project-join query the projections ARE
// the result columns and Outputs is nil. When the query carries
// aggregates, GROUP BY, HAVING, ORDER BY or DISTINCT, Outputs describes
// the result columns computed host-side (on the secure display, after
// the device pipeline) from the physical rows; Projs then also carries
// aggregate arguments and hidden sort keys.
type Query struct {
	SQL       string
	Schema    *schema.Schema
	Root      *schema.Table // query root: result granularity
	Tables    []string      // FROM tables, catalog names, no duplicates
	Projs     []Col         // physical projection list
	Preds     []Pred        // conjunctive selections
	Limit     int           // result row cap, meaningful when HasLimit
	HasLimit  bool          // a LIMIT clause is present (LIMIT 0 is valid)
	NumParams int           // '?' placeholders awaiting BindParams

	Outputs     []Output     // non-nil exactly when post-operators run
	VisibleOuts int          // prefix of Outputs delivered to the caller
	Aggs        []AggExpr    // unique aggregate accumulators
	GroupBy     []int        // Projs indexes of the grouping columns
	Grouped     bool         // a GROUP BY clause is present
	Having      []HavingPred // conjuncts over Aggs
	OrderBy     []OrderKey   // result ordering; empty = pipeline order
	Distinct    bool         // dedupe the visible output rows

	// predLabels and projLabels cache Preds[i].String() / Projs[i].String()
	// per shape, filled once by Bind. Executions reuse the compiled labels
	// (a parameterized shape shows its '?' placeholders) instead of
	// re-rendering the text on every run.
	predLabels []string
	projLabels []string
	outLabels  []string // visible output labels (post-op queries)
}

// HasPostOps reports whether result rows pass through the host-side
// finishing stage (aggregation / ordering / distinct) after the
// distributed pipeline.
func (q *Query) HasPostOps() bool { return q.Outputs != nil }

// Aggregated reports whether the query computes aggregates (explicitly
// grouped, or a global aggregate over the whole result).
func (q *Query) Aggregated() bool { return q.Grouped || len(q.Aggs) > 0 }

// OutputKind returns the result kind of visible column i.
func (q *Query) OutputKind(i int) value.Kind {
	if q.Outputs != nil {
		return q.Outputs[i].Kind
	}
	return q.Projs[i].Kind
}

// PredLabel returns the display label of predicate i: the label rendered
// at bind time when available, a fresh rendering otherwise.
func (q *Query) PredLabel(i int) string {
	if i < len(q.predLabels) {
		return q.predLabels[i]
	}
	return q.Preds[i].String()
}

// ColumnLabels returns the result column labels in SELECT order: the
// visible output labels for post-op queries, the projection labels
// otherwise. When the shape carries bind-time labels the cached slice
// itself is returned, shared across executions — callers must treat it
// as read-only.
func (q *Query) ColumnLabels() []string {
	if q.Outputs != nil {
		if len(q.outLabels) == q.VisibleOuts {
			return q.outLabels
		}
		out := make([]string, q.VisibleOuts)
		for i := range out {
			out[i] = q.Outputs[i].Label
		}
		return out
	}
	if len(q.projLabels) == len(q.Projs) {
		return q.projLabels
	}
	out := make([]string, len(q.Projs))
	for i := range q.Projs {
		out[i] = q.Projs[i].String()
	}
	return out
}

// ErrBind marks an execution that failed because its arguments did not
// bind to the shape's placeholders: wrong arity, an argument that is
// itself a placeholder, or a value its column cannot take. It is the
// caller's mistake, not the engine's (an HTTP server answers 400).
var ErrBind = errors.New("cannot bind arguments")

// BindParams substitutes the query's '?' placeholders with params (by
// ordinal) and coerces them to their column kinds, returning a new,
// fully bound Query. The shape fields (tables, projections, predicate
// columns) are shared with the receiver; only the predicate list is
// copied. A query without parameters is returned unchanged (params must
// be empty).
func (q *Query) BindParams(params []value.Value) (*Query, error) {
	if len(params) != q.NumParams {
		return nil, fmt.Errorf("plan: query has %d parameters, got %d arguments", q.NumParams, len(params))
	}
	if q.NumParams == 0 {
		return q, nil
	}
	for i, v := range params {
		if v.IsParam() {
			return nil, fmt.Errorf("plan: argument %d is itself an unbound parameter", i+1)
		}
	}
	out := *q
	out.NumParams = 0
	// The shape's cached predicate labels show '?' placeholders; drop
	// them so the bound query renders its actual values on demand.
	out.predLabels = nil
	out.Preds = make([]Pred, len(q.Preds))
	for i, pr := range q.Preds {
		bound, err := bindPredParams(pr.P, params)
		if err != nil {
			return nil, fmt.Errorf("plan: predicate on %s: %w", pr.Col, err)
		}
		if bound, err = coercePred(bound, pr.Col.Kind); err != nil {
			return nil, fmt.Errorf("plan: predicate on %s: %w", pr.Col, err)
		}
		out.Preds[i] = Pred{Col: pr.Col, P: bound}
	}
	if len(q.Having) > 0 {
		out.Having = make([]HavingPred, len(q.Having))
		for i, h := range q.Having {
			if h.Val.IsParam() {
				ord := h.Val.ParamOrdinal()
				if ord < 0 || ord >= len(params) {
					return nil, fmt.Errorf("plan: HAVING placeholder %d out of range", ord+1)
				}
				v, err := coerceOrdered(params[ord], q.Aggs[h.AggIdx].Kind)
				if err != nil {
					return nil, fmt.Errorf("plan: HAVING %s: %w", q.Aggs[h.AggIdx].Label(q.Projs), err)
				}
				h.Val = v
			}
			out.Having[i] = h
		}
	}
	return &out, nil
}

// bindPredParams substitutes placeholder literals inside one predicate.
func bindPredParams(p pred.P, params []value.Value) (pred.P, error) {
	sub := func(v value.Value) (value.Value, error) {
		if !v.IsParam() {
			return v, nil
		}
		ord := v.ParamOrdinal()
		if ord < 0 || ord >= len(params) {
			return value.Value{}, fmt.Errorf("placeholder %d out of range", ord+1)
		}
		return params[ord], nil
	}
	var err error
	switch p.Form {
	case pred.FormCompare:
		p.Val, err = sub(p.Val)
	case pred.FormBetween:
		if p.Lo, err = sub(p.Lo); err == nil {
			p.Hi, err = sub(p.Hi)
		}
	case pred.FormIn:
		set := make([]value.Value, len(p.Set))
		for i, v := range p.Set {
			if set[i], err = sub(v); err != nil {
				break
			}
		}
		p.Set = set
	}
	return p, err
}

// Bind resolves a parsed SELECT against the schema: FROM tables and
// aliases, the query root, projection columns, selection predicates with
// literals coerced to column kinds, and join predicates validated to lie
// on foreign-key edges of the tree.
func Bind(sch *schema.Schema, sel *sql.Select) (*Query, error) {
	q := &Query{SQL: sel.String(), Schema: sch, Limit: sel.Limit, HasLimit: sel.HasLimit}

	// Resolve FROM: alias (or table name) -> catalog table.
	aliases := map[string]*schema.Table{}
	seen := map[string]bool{}
	for _, ref := range sel.From {
		t, ok := sch.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("plan: unknown table %s", ref.Table)
		}
		if seen[t.Name] {
			return nil, fmt.Errorf("plan: table %s appears twice in FROM (self joins are outside GhostDB's tree-query scope)", t.Name)
		}
		seen[t.Name] = true
		q.Tables = append(q.Tables, t.Name)
		key := strings.ToLower(ref.Table)
		if ref.Alias != "" {
			key = strings.ToLower(ref.Alias)
		}
		if _, dup := aliases[key]; dup {
			return nil, fmt.Errorf("plan: duplicate alias %q", key)
		}
		aliases[key] = t
	}
	root, err := sch.QueryRoot(q.Tables)
	if err != nil {
		return nil, err
	}
	q.Root = root

	resolve := func(ref sql.ColRef) (Col, error) {
		if ref.Qualifier != "" {
			t, ok := aliases[strings.ToLower(ref.Qualifier)]
			if !ok {
				// Allow the catalog table name even when aliased.
				if ct, ok2 := sch.Table(ref.Qualifier); ok2 && seen[ct.Name] {
					t = ct
				} else {
					return Col{}, fmt.Errorf("plan: unknown table or alias %q", ref.Qualifier)
				}
			}
			c, ok := t.Column(ref.Column)
			if !ok {
				return Col{}, fmt.Errorf("plan: no column %s.%s", t.Name, ref.Column)
			}
			return Col{Table: t.Name, Column: c.Name, Kind: c.Type.Kind, Hidden: c.Hidden}, nil
		}
		var found *Col
		for _, name := range q.Tables {
			t, _ := sch.Table(name)
			if c, ok := t.Column(ref.Column); ok {
				if found != nil {
					return Col{}, fmt.Errorf("plan: column %s is ambiguous", ref.Column)
				}
				found = &Col{Table: t.Name, Column: c.Name, Kind: c.Type.Kind, Hidden: c.Hidden}
			}
		}
		if found == nil {
			return Col{}, fmt.Errorf("plan: unknown column %s", ref.Column)
		}
		return *found, nil
	}

	// Projections. A query with aggregates, GROUP BY, HAVING, ORDER BY
	// or DISTINCT binds its result columns through the post-operator
	// path; a plain SPJ query's result columns are its projections.
	shaped := sel.Distinct || len(sel.GroupBy) > 0 || len(sel.Having) > 0 || len(sel.OrderBy) > 0
	for _, item := range sel.Items {
		if item.Agg != sql.AggNone {
			shaped = true
		}
	}
	if shaped {
		if err := q.bindPostOps(sel, resolve); err != nil {
			return nil, err
		}
	} else {
		for _, item := range sel.Items {
			if item.Star {
				for _, name := range q.Tables {
					t, _ := sch.Table(name)
					for _, c := range t.Columns {
						q.Projs = append(q.Projs, Col{Table: t.Name, Column: c.Name, Kind: c.Type.Kind, Hidden: c.Hidden})
					}
				}
				continue
			}
			c, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			q.Projs = append(q.Projs, c)
		}
		if len(q.Projs) == 0 {
			return nil, fmt.Errorf("plan: empty projection list")
		}
	}

	// Conditions.
	for _, cond := range sel.Where {
		if j, ok := cond.(*sql.Join); ok {
			if err := validateJoin(sch, resolve, j); err != nil {
				return nil, err
			}
			continue
		}
		var colRef sql.ColRef
		switch c := cond.(type) {
		case *sql.Compare:
			colRef = c.Col
		case *sql.Between:
			colRef = c.Col
		case *sql.In:
			colRef = c.Col
		default:
			return nil, fmt.Errorf("plan: unsupported condition %T", cond)
		}
		col, err := resolve(colRef)
		if err != nil {
			return nil, err
		}
		p, err := pred.FromCondition(cond)
		if err != nil {
			return nil, err
		}
		if p, err = coercePred(p, col.Kind); err != nil {
			return nil, fmt.Errorf("plan: predicate on %s: %w", col, err)
		}
		q.Preds = append(q.Preds, Pred{Col: col, P: p})
	}
	q.NumParams = sql.CountParams(sel)
	q.predLabels = make([]string, len(q.Preds))
	for i := range q.Preds {
		q.predLabels[i] = q.Preds[i].String()
	}
	q.projLabels = make([]string, len(q.Projs))
	for i := range q.Projs {
		q.projLabels[i] = q.Projs[i].String()
	}
	return q, nil
}

// bindPostOps binds the result shape of a query with aggregates,
// GROUP BY, HAVING, ORDER BY or DISTINCT: the physical projections the
// pipeline must retrieve (deduplicated), the output columns computed
// from them, the aggregate accumulators, and the ordering keys.
func (q *Query) bindPostOps(sel *sql.Select, resolve func(sql.ColRef) (Col, error)) error {
	// addProj returns the physical column's index, appending it once.
	addProj := func(c Col) int {
		for i := range q.Projs {
			if q.Projs[i] == c {
				return i
			}
		}
		q.Projs = append(q.Projs, c)
		return len(q.Projs) - 1
	}
	// addAgg returns the accumulator index for (func, arg), appending it
	// once — SELECT SUM(x), SUM(x) or HAVING over a selected aggregate
	// share one accumulator.
	addAgg := func(f sql.AggFunc, proj int, kind value.Kind) int {
		for i := range q.Aggs {
			if q.Aggs[i].Func == f && q.Aggs[i].Proj == proj {
				return i
			}
		}
		q.Aggs = append(q.Aggs, AggExpr{Func: f, Proj: proj, Kind: kind})
		return len(q.Aggs) - 1
	}
	// bindAgg resolves one aggregate call to an accumulator index.
	bindAgg := func(f sql.AggFunc, star bool, ref sql.ColRef) (int, error) {
		if star {
			return addAgg(f, -1, value.Int), nil
		}
		c, err := resolve(ref)
		if err != nil {
			return 0, err
		}
		kind, err := aggResultKind(f, c.Kind)
		if err != nil {
			return 0, fmt.Errorf("plan: %s(%s): %w", f, c, err)
		}
		return addAgg(f, addProj(c), kind), nil
	}

	q.Distinct = sel.Distinct
	q.Grouped = len(sel.GroupBy) > 0

	// Select items.
	for _, item := range sel.Items {
		switch {
		case item.Star:
			if len(sel.GroupBy) > 0 || len(sel.Having) > 0 {
				return fmt.Errorf("plan: SELECT * cannot be combined with GROUP BY or HAVING")
			}
			for _, name := range q.Tables {
				t, _ := q.Schema.Table(name)
				for _, c := range t.Columns {
					col := Col{Table: t.Name, Column: c.Name, Kind: c.Type.Kind, Hidden: c.Hidden}
					q.Outputs = append(q.Outputs, Output{AggIdx: -1, Proj: addProj(col), Label: col.String(), Kind: col.Kind})
				}
			}
		case item.Agg != sql.AggNone:
			ai, err := bindAgg(item.Agg, item.AggStar, item.Col)
			if err != nil {
				return err
			}
			a := q.Aggs[ai]
			q.Outputs = append(q.Outputs, Output{AggIdx: ai, Proj: -1, Label: a.Label(q.Projs), Kind: a.Kind})
		default:
			c, err := resolve(item.Col)
			if err != nil {
				return err
			}
			q.Outputs = append(q.Outputs, Output{AggIdx: -1, Proj: addProj(c), Label: c.String(), Kind: c.Kind})
		}
	}
	q.VisibleOuts = len(q.Outputs)

	// GROUP BY columns (they need not be selected; duplicates collapse).
	for _, ref := range sel.GroupBy {
		c, err := resolve(ref)
		if err != nil {
			return err
		}
		pi := addProj(c)
		dup := false
		for _, g := range q.GroupBy {
			if g == pi {
				dup = true
			}
		}
		if !dup {
			q.GroupBy = append(q.GroupBy, pi)
		}
	}

	// HAVING conjuncts (their aggregates need not be selected).
	for _, h := range sel.Having {
		ai, err := bindAgg(h.Agg, h.Star, h.Col)
		if err != nil {
			return err
		}
		v := h.Val
		if !v.IsParam() {
			if v, err = coerceOrdered(v, q.Aggs[ai].Kind); err != nil {
				return fmt.Errorf("plan: HAVING %s: %w", q.Aggs[ai].Label(q.Projs), err)
			}
		}
		q.Having = append(q.Having, HavingPred{AggIdx: ai, Op: h.Op, Val: v})
	}
	if len(q.Having) > 0 && !q.Aggregated() {
		return fmt.Errorf("plan: HAVING requires GROUP BY or an aggregated select list")
	}

	// Every plain output of an aggregated query must be a grouping
	// column, and a global aggregate (no GROUP BY) admits no plain
	// columns at all.
	if q.Aggregated() {
		for _, o := range q.Outputs {
			if o.AggIdx >= 0 {
				continue
			}
			if !q.Grouped {
				return fmt.Errorf("plan: column %s must appear in an aggregate (no GROUP BY)", o.Label)
			}
			if !q.isGroupCol(o.Proj) {
				return fmt.Errorf("plan: column %s must appear in GROUP BY or an aggregate", o.Label)
			}
		}
	}

	// ORDER BY keys: output ordinals, selected expressions, or hidden
	// extra outputs appended past VisibleOuts.
	for _, o := range sel.OrderBy {
		out := -1
		switch {
		case o.Ordinal > 0:
			if o.Ordinal > q.VisibleOuts {
				return fmt.Errorf("plan: ORDER BY ordinal %d out of range 1..%d", o.Ordinal, q.VisibleOuts)
			}
			out = o.Ordinal - 1
		case o.Agg != sql.AggNone:
			if !q.Aggregated() {
				return fmt.Errorf("plan: ORDER BY %s(...) requires GROUP BY or an aggregated select list", o.Agg)
			}
			ai, err := bindAgg(o.Agg, o.Star, o.Col)
			if err != nil {
				return err
			}
			out = q.findOutput(ai, -1)
			if out < 0 {
				a := q.Aggs[ai]
				q.Outputs = append(q.Outputs, Output{AggIdx: ai, Proj: -1, Label: a.Label(q.Projs), Kind: a.Kind})
				out = len(q.Outputs) - 1
			}
		default:
			c, err := resolve(o.Col)
			if err != nil {
				return err
			}
			pi := addProj(c)
			if q.Aggregated() && !q.isGroupCol(pi) {
				return fmt.Errorf("plan: ORDER BY column %s must appear in GROUP BY or an aggregate", c)
			}
			out = q.findOutput(-1, pi)
			if out < 0 {
				q.Outputs = append(q.Outputs, Output{AggIdx: -1, Proj: pi, Label: c.String(), Kind: c.Kind})
				out = len(q.Outputs) - 1
			}
		}
		q.OrderBy = append(q.OrderBy, OrderKey{Out: out, Desc: o.Desc})
	}
	if q.Distinct {
		for _, k := range q.OrderBy {
			if k.Out >= q.VisibleOuts {
				return fmt.Errorf("plan: ORDER BY expressions must appear in the select list when DISTINCT is used")
			}
		}
	}

	if len(q.Outputs) == 0 {
		return fmt.Errorf("plan: empty projection list")
	}
	q.outLabels = make([]string, q.VisibleOuts)
	for i := range q.outLabels {
		q.outLabels[i] = q.Outputs[i].Label
	}
	return nil
}

// findOutput returns the first output matching (aggIdx, proj), -1 if none.
func (q *Query) findOutput(aggIdx, proj int) int {
	for i, o := range q.Outputs {
		if o.AggIdx == aggIdx && (aggIdx >= 0 || o.Proj == proj) {
			return i
		}
	}
	return -1
}

// isGroupCol reports whether Projs[pi] is a grouping column.
func (q *Query) isGroupCol(pi int) bool {
	for _, g := range q.GroupBy {
		if g == pi {
			return true
		}
	}
	return false
}

// aggResultKind returns the result kind of func over an argument kind.
func aggResultKind(f sql.AggFunc, arg value.Kind) (value.Kind, error) {
	switch f {
	case sql.AggCount:
		return value.Int, nil
	case sql.AggSum, sql.AggAvg:
		if arg != value.Int && arg != value.Float {
			return 0, fmt.Errorf("argument must be numeric, got %s", arg)
		}
		if f == sql.AggAvg {
			return value.Float, nil
		}
		return arg, nil
	case sql.AggMin, sql.AggMax:
		return arg, nil
	}
	return 0, fmt.Errorf("unknown aggregate %v", f)
}

// coerceOrdered prepares a literal for an ordered comparison against
// values of kind k: exact kind and widening numeric pairs pass through
// (value.Compare widens), date strings parse, anything else is an error.
func coerceOrdered(v value.Value, k value.Kind) (value.Value, error) {
	if v.Kind() == k {
		return v, nil
	}
	numeric := func(kk value.Kind) bool { return kk == value.Int || kk == value.Float }
	if numeric(v.Kind()) && numeric(k) {
		return v, nil
	}
	if v.Kind() == value.String && k == value.Date {
		return value.ParseDate(v.Str())
	}
	return value.Value{}, fmt.Errorf("cannot compare %s literal against %s", v.Kind(), k)
}

// coercePred coerces the predicate's literals to the column kind, so
// date strings written in the paper's formats compare correctly.
func coercePred(p pred.P, kind value.Kind) (pred.P, error) {
	var err error
	switch p.Form {
	case pred.FormCompare:
		p.Val, err = value.Coerce(p.Val, kind)
	case pred.FormBetween:
		if p.Lo, err = value.Coerce(p.Lo, kind); err == nil {
			p.Hi, err = value.Coerce(p.Hi, kind)
		}
	case pred.FormIn:
		set := make([]value.Value, len(p.Set))
		for i, v := range p.Set {
			if set[i], err = value.Coerce(v, kind); err != nil {
				break
			}
		}
		p.Set = set
	}
	return p, err
}

// validateJoin checks a join predicate lies on a foreign-key edge between
// two FROM tables (either side may be the referencing table).
func validateJoin(sch *schema.Schema, resolve func(sql.ColRef) (Col, error), j *sql.Join) error {
	l, err := resolve(j.Left)
	if err != nil {
		return err
	}
	r, err := resolve(j.Right)
	if err != nil {
		return err
	}
	if isFKEdge(sch, l, r) || isFKEdge(sch, r, l) {
		return nil
	}
	return fmt.Errorf("plan: join %s = %s does not follow a foreign-key edge of the tree schema", l, r)
}

// isFKEdge reports whether fkSide.Column is a foreign key referencing
// pkSide's primary key.
func isFKEdge(sch *schema.Schema, fkSide, pkSide Col) bool {
	t, ok := sch.Table(fkSide.Table)
	if !ok {
		return false
	}
	c, ok := t.Column(fkSide.Column)
	if !ok || !c.IsForeignKey() {
		return false
	}
	if !strings.EqualFold(c.RefTable, pkSide.Table) {
		return false
	}
	return strings.EqualFold(c.RefColumn, pkSide.Column)
}

// TablesWithVisibleProjection returns the set of tables from which the
// query projects at least one visible column.
func (q *Query) TablesWithVisibleProjection() map[string]bool {
	out := map[string]bool{}
	for _, c := range q.Projs {
		if !c.Hidden {
			out[c.Table] = true
		}
	}
	return out
}

// VisiblePreds returns the indexes into Preds of visible predicates.
func (q *Query) VisiblePreds() []int {
	var out []int
	for i, p := range q.Preds {
		if !p.Hidden() {
			out = append(out, i)
		}
	}
	return out
}

// HiddenPreds returns the indexes into Preds of hidden predicates.
func (q *Query) HiddenPreds() []int {
	var out []int
	for i, p := range q.Preds {
		if p.Hidden() {
			out = append(out, i)
		}
	}
	return out
}
