// Package sql is GhostDB's SQL front end: a lexer and recursive-descent
// parser for the dialect the paper uses — CREATE TABLE with the extra
// HIDDEN keyword on sensitive columns, INSERT for loading, and
// select-project-join queries with conjunctive predicates. The paper's
// /*VISIBLE*/ and /*HIDDEN*/ annotations are accepted as comments and
// ignored: visibility is a property of the schema, not the query text
// ("no changes to the SQL query text", Section 1).
package sql

import (
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/value"
)

// Statement is a parsed SQL statement: *CreateTable, *Insert, *Select,
// *Delete, *Update, *Checkpoint or *Explain.
type Statement interface {
	stmt()
	String() string
}

// TypeName is a column type as written in DDL.
type TypeName struct {
	Kind value.Kind
	Size int // CHAR(n) width, 0 if unsized
}

func (t TypeName) String() string {
	if t.Kind == value.String && t.Size > 0 {
		return fmt.Sprintf("CHAR(%d)", t.Size)
	}
	return t.Kind.String()
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       TypeName
	Hidden     bool
	PrimaryKey bool
	RefTable   string
	RefColumn  string
}

func (c ColumnDef) String() string {
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteByte(' ')
	b.WriteString(c.Type.String())
	if c.PrimaryKey {
		b.WriteString(" PRIMARY KEY")
	}
	if c.RefTable != "" {
		fmt.Fprintf(&b, " REFERENCES %s", c.RefTable)
		if c.RefColumn != "" {
			fmt.Fprintf(&b, "(%s)", c.RefColumn)
		}
	}
	if c.Hidden {
		b.WriteString(" HIDDEN")
	}
	return b.String()
}

// CreateTable is a CREATE TABLE statement.
type CreateTable struct {
	Table   string
	Columns []ColumnDef
}

func (*CreateTable) stmt() {}

func (c *CreateTable) String() string {
	cols := make([]string, len(c.Columns))
	for i, col := range c.Columns {
		cols[i] = col.String()
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", c.Table, strings.Join(cols, ", "))
}

// Insert is an INSERT INTO ... VALUES statement (possibly multi-row).
type Insert struct {
	Table string
	Rows  [][]value.Value
}

func (*Insert) stmt() {}

func (i *Insert) String() string {
	var rows []string
	for _, r := range i.Rows {
		vals := make([]string, len(r))
		for j, v := range r {
			vals[j] = v.SQL()
		}
		rows = append(rows, "("+strings.Join(vals, ", ")+")")
	}
	return fmt.Sprintf("INSERT INTO %s VALUES %s", i.Table, strings.Join(rows, ", "))
}

// BindParams returns a copy of the INSERT with every '?' placeholder
// replaced by the corresponding argument (by ordinal across the whole
// script). Rows without placeholders are shared, not copied; without
// args the INSERT itself is returned.
func (i *Insert) BindParams(args []value.Value) (*Insert, error) {
	if len(args) == 0 {
		return i, nil
	}
	out := &Insert{Table: i.Table, Rows: make([][]value.Value, len(i.Rows))}
	for r, row := range i.Rows {
		bound := row
		for c, v := range row {
			if !v.IsParam() {
				continue
			}
			ord := v.ParamOrdinal()
			if ord >= len(args) {
				return nil, fmt.Errorf("sql: placeholder %d has no argument (%d supplied)", ord+1, len(args))
			}
			if &bound[0] == &row[0] {
				bound = append([]value.Value(nil), row...)
			}
			bound[c] = args[ord]
		}
		out.Rows[r] = bound
	}
	return out, nil
}

// CountParams reports the number of '?' placeholders across the
// statements. Placeholder ordinals are assigned left to right by the
// parser, so the count is also one past the highest ordinal.
func CountParams(stmts ...Statement) int {
	n := 0
	count := func(v value.Value) {
		if v.IsParam() {
			n++
		}
	}
	countConds := func(conds []Condition) {
		for _, c := range conds {
			switch c := c.(type) {
			case *Compare:
				count(c.Val)
			case *Between:
				count(c.Lo)
				count(c.Hi)
			case *In:
				for _, v := range c.Vals {
					count(v)
				}
			}
		}
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *Insert:
			for _, row := range s.Rows {
				for _, v := range row {
					count(v)
				}
			}
		case *Select:
			countConds(s.Where)
			// HAVING literals follow WHERE in text order, so their
			// ordinals continue the sequence.
			for _, h := range s.Having {
				count(h.Val)
			}
		case *Delete:
			countConds(s.Where)
		case *Update:
			// SET literals precede WHERE in text order.
			for _, a := range s.Sets {
				count(a.Val)
			}
			countConds(s.Where)
		}
	}
	return n
}

// ColRef names a column, optionally qualified by a table name or alias.
type ColRef struct {
	Qualifier string // "" when unqualified
	Column    string
}

func (c ColRef) String() string {
	if c.Qualifier == "" {
		return c.Column
	}
	return c.Qualifier + "." + c.Column
}

// TableRef is one FROM-list entry with an optional alias.
type TableRef struct {
	Table string
	Alias string // "" when none
}

func (t TableRef) String() string {
	if t.Alias == "" {
		return t.Table
	}
	return t.Table + " " + t.Alias
}

// AggFunc is an aggregate function applied to a projection item.
type AggFunc int

// The aggregate functions. AggNone marks a plain column item.
const (
	AggNone AggFunc = iota
	AggCount
	AggSum
	AggMin
	AggMax
	AggAvg
)

func (a AggFunc) String() string {
	switch a {
	case AggNone:
		return ""
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	}
	return fmt.Sprintf("AGG(%d)", int(a))
}

// aggFuncOf maps a function name to its AggFunc.
func aggFuncOf(name string) (AggFunc, bool) {
	switch strings.ToUpper(name) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	case "AVG":
		return AggAvg, true
	}
	return AggNone, false
}

// SelectItem is a projection item: a column reference, *, or an
// aggregate call COUNT(*) / AGG(column).
type SelectItem struct {
	Star    bool
	Col     ColRef
	Agg     AggFunc // AggNone for a plain column
	AggStar bool    // COUNT(*)
}

func (s SelectItem) String() string {
	if s.Agg != AggNone {
		if s.AggStar {
			return s.Agg.String() + "(*)"
		}
		return s.Agg.String() + "(" + s.Col.String() + ")"
	}
	if s.Star {
		return "*"
	}
	return s.Col.String()
}

// HavingCond is one conjunct of a HAVING clause: an aggregate compared
// against a literal (or a '?' placeholder).
type HavingCond struct {
	Agg  AggFunc
	Star bool   // COUNT(*)
	Col  ColRef // aggregate argument when !Star
	Op   CompareOp
	Val  value.Value
}

func (h HavingCond) String() string {
	arg := "*"
	if !h.Star {
		arg = h.Col.String()
	}
	return fmt.Sprintf("%s(%s) %s %s", h.Agg, arg, h.Op, h.Val.SQL())
}

// OrderItem is one ORDER BY key: an output ordinal (1-based), a column
// reference, or an aggregate expression; ASC by default.
type OrderItem struct {
	Ordinal int     // 1-based select-list position; 0 when Col/Agg is used
	Agg     AggFunc // AggNone for a plain column or ordinal
	Star    bool    // COUNT(*)
	Col     ColRef
	Desc    bool
}

func (o OrderItem) String() string {
	var b strings.Builder
	switch {
	case o.Ordinal > 0:
		fmt.Fprintf(&b, "%d", o.Ordinal)
	case o.Agg != AggNone:
		if o.Star {
			b.WriteString(o.Agg.String() + "(*)")
		} else {
			b.WriteString(o.Agg.String() + "(" + o.Col.String() + ")")
		}
	default:
		b.WriteString(o.Col.String())
	}
	if o.Desc {
		b.WriteString(" DESC")
	}
	return b.String()
}

// CompareOp is a comparison operator.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (o CompareOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Negate returns the complementary operator (used by NOT pushdown).
func (o CompareOp) Negate() CompareOp {
	switch o {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	}
	return o
}

// Condition is one conjunct of a WHERE clause: *Compare, *Between, *In or
// *Join.
type Condition interface {
	cond()
	String() string
}

// Compare is column <op> literal.
type Compare struct {
	Col ColRef
	Op  CompareOp
	Val value.Value
}

func (*Compare) cond() {}

func (c *Compare) String() string {
	return fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Val.SQL())
}

// Between is column BETWEEN lo AND hi (inclusive).
type Between struct {
	Col    ColRef
	Lo, Hi value.Value
}

func (*Between) cond() {}

func (b *Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", b.Col, b.Lo.SQL(), b.Hi.SQL())
}

// In is column IN (v1, v2, ...).
type In struct {
	Col  ColRef
	Vals []value.Value
}

func (*In) cond() {}

func (i *In) String() string {
	vals := make([]string, len(i.Vals))
	for j, v := range i.Vals {
		vals[j] = v.SQL()
	}
	return fmt.Sprintf("%s IN (%s)", i.Col, strings.Join(vals, ", "))
}

// Join is an equijoin predicate between two columns.
type Join struct {
	Left, Right ColRef
}

func (*Join) cond() {}

func (j *Join) String() string {
	return fmt.Sprintf("%s = %s", j.Left, j.Right)
}

// Select is a query: projection list (plain columns and aggregates),
// FROM tables, conjunctive WHERE, optional GROUP BY / HAVING / ORDER BY
// / DISTINCT, and an optional LIMIT (present when HasLimit; LIMIT 0 is
// the standard zero-row probe). Without ORDER BY, results are ordered by
// the query root's identifier (aggregate results by first group
// appearance in that order), so LIMIT is deterministic.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    []Condition
	GroupBy  []ColRef
	Having   []HavingCond
	OrderBy  []OrderItem
	Limit    int
	HasLimit bool
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	items := make([]string, len(s.Items))
	for i, it := range s.Items {
		items[i] = it.String()
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM ")
	froms := make([]string, len(s.From))
	for i, f := range s.From {
		froms[i] = f.String()
	}
	b.WriteString(strings.Join(froms, ", "))
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		conds := make([]string, len(s.Where))
		for i, c := range s.Where {
			conds[i] = c.String()
		}
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		cols := make([]string, len(s.GroupBy))
		for i, c := range s.GroupBy {
			cols[i] = c.String()
		}
		b.WriteString(strings.Join(cols, ", "))
	}
	if len(s.Having) > 0 {
		b.WriteString(" HAVING ")
		conds := make([]string, len(s.Having))
		for i, h := range s.Having {
			conds[i] = h.String()
		}
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		keys := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			keys[i] = o.String()
		}
		b.WriteString(strings.Join(keys, ", "))
	}
	if s.HasLimit {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// whereString renders a conjunctive WHERE clause (shared by the DML
// statements), or "" when there are no conditions.
func whereString(conds []Condition) string {
	if len(conds) == 0 {
		return ""
	}
	parts := make([]string, len(conds))
	for i, c := range conds {
		parts[i] = c.String()
	}
	return " WHERE " + strings.Join(parts, " AND ")
}

// Delete is a DELETE FROM ... [WHERE ...] statement over one table.
// Deletion is virtual until the next CHECKPOINT: the engine tombstones
// the matching identifiers, and rows whose foreign-key chain passes
// through a tombstoned row disappear with them (a cascade over the tree
// schema).
type Delete struct {
	Table string
	Where []Condition
}

func (*Delete) stmt() {}

func (d *Delete) String() string {
	return "DELETE FROM " + d.Table + whereString(d.Where)
}

// SetClause is one column assignment of an UPDATE.
type SetClause struct {
	Col ColRef
	Val value.Value // literal or '?' placeholder
}

func (a SetClause) String() string { return a.Col.String() + " = " + a.Val.SQL() }

// Update is an UPDATE ... SET ... [WHERE ...] statement over one table.
// The updated image lives in the RAM delta until the next CHECKPOINT;
// the base column files stay physically untouched (Bertossi & Li's
// virtual updates).
type Update struct {
	Table string
	Sets  []SetClause
	Where []Condition
}

func (*Update) stmt() {}

func (u *Update) String() string {
	sets := make([]string, len(u.Sets))
	for i, a := range u.Sets {
		sets[i] = a.String()
	}
	return "UPDATE " + u.Table + " SET " + strings.Join(sets, ", ") + whereString(u.Where)
}

// Checkpoint is the CHECKPOINT statement: merge the RAM delta and the
// tombstone sets into fresh flash column segments, rebuild the device
// index structures, and release the delta's RAM grant.
type Checkpoint struct{}

func (*Checkpoint) stmt() {}

func (*Checkpoint) String() string { return "CHECKPOINT" }

// Explain is the EXPLAIN [ANALYZE] <select> statement: render the
// optimizer's plan for the query, and — with ANALYZE — execute it and
// report per-operator estimated vs actual cardinalities and timings.
type Explain struct {
	Analyze bool
	Stmt    *Select
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}
