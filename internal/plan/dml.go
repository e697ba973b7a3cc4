package plan

// DML binding: DELETE and UPDATE statements resolve against one catalog
// table, with the same literal coercion, '?' placeholder handling and
// compile-once / bind-many discipline as SELECT shapes. A bound DML
// carries conjunctive predicates over its own table only — cross-table
// conditions are a query concern, not a mutation concern — and, for
// UPDATE, the SET assignments with their target column indexes resolved.

import (
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// DMLOp distinguishes the bound mutation kinds.
type DMLOp int

// The mutation kinds.
const (
	OpDelete DMLOp = iota
	OpUpdate
)

func (o DMLOp) String() string {
	if o == OpDelete {
		return "DELETE"
	}
	return "UPDATE"
}

// SetExpr is one bound UPDATE assignment: the target column (by catalog
// index into Table.Columns) and the value, possibly a '?' placeholder
// before BindParams.
type SetExpr struct {
	Col    Col
	ColIdx int
	Val    value.Value
}

// DML is a bound DELETE or UPDATE shape. A DML with NumParams > 0 must
// pass through BindParams before execution.
type DML struct {
	SQL       string
	Op        DMLOp
	Schema    *schema.Schema
	Table     *schema.Table
	Sets      []SetExpr // UPDATE only
	Preds     []Pred    // conjuncts over Table's columns
	NumParams int
}

// BindDML resolves a parsed DELETE or UPDATE against the schema.
func BindDML(sch *schema.Schema, stmt sql.Statement) (*DML, error) {
	var (
		tableName string
		where     []sql.Condition
		sets      []sql.SetClause
		op        DMLOp
	)
	switch s := stmt.(type) {
	case *sql.Delete:
		tableName, where, op = s.Table, s.Where, OpDelete
	case *sql.Update:
		tableName, where, sets, op = s.Table, s.Where, s.Sets, OpUpdate
	default:
		return nil, fmt.Errorf("plan: BindDML expects DELETE or UPDATE, got %T", stmt)
	}
	t, ok := sch.Table(tableName)
	if !ok {
		return nil, fmt.Errorf("plan: unknown table %s", tableName)
	}
	d := &DML{SQL: stmt.String(), Op: op, Schema: sch, Table: t}

	resolve := func(ref sql.ColRef) (Col, int, error) {
		if ref.Qualifier != "" && !strings.EqualFold(ref.Qualifier, t.Name) {
			return Col{}, 0, fmt.Errorf("plan: %s may only reference %s, got %s", op, t.Name, ref)
		}
		c, ok := t.Column(ref.Column)
		if !ok {
			return Col{}, 0, fmt.Errorf("plan: no column %s.%s", t.Name, ref.Column)
		}
		return Col{Table: t.Name, Column: c.Name, Kind: c.Type.Kind, Hidden: c.Hidden}, t.ColumnIndex(c.Name), nil
	}

	for _, a := range sets {
		col, idx, err := resolve(a.Col)
		if err != nil {
			return nil, err
		}
		sc := t.Columns[idx]
		if sc.PrimaryKey {
			return nil, fmt.Errorf("plan: cannot UPDATE primary key %s (GhostDB identifiers are positional)", col)
		}
		v := a.Val
		if !v.IsParam() {
			var err error
			if v, err = value.Coerce(v, col.Kind); err != nil {
				return nil, fmt.Errorf("plan: SET %s: %w", col, err)
			}
		}
		for _, prev := range d.Sets {
			if prev.ColIdx == idx {
				return nil, fmt.Errorf("plan: column %s assigned twice", col)
			}
		}
		d.Sets = append(d.Sets, SetExpr{Col: col, ColIdx: idx, Val: v})
	}

	for _, cond := range where {
		if _, isJoin := cond.(*sql.Join); isJoin {
			return nil, fmt.Errorf("plan: %s WHERE may not contain join predicates", op)
		}
		p, err := bindCond(cond, func(ref sql.ColRef) (Col, error) {
			col, _, err := resolve(ref)
			return col, err
		})
		if err != nil {
			return nil, err
		}
		d.Preds = append(d.Preds, p)
	}
	d.NumParams = sql.CountParams(stmt)
	return d, nil
}

// BindParams substitutes the shape's '?' placeholders (SET values first,
// then WHERE literals, matching text order) and coerces them to their
// column kinds, returning a fully bound DML. params are the whole
// script's arguments: the parser numbers placeholders across the script,
// so each ordinal is range-checked here and the caller checks the
// script's count. A shape without parameters is returned unchanged.
func (d *DML) BindParams(params []value.Value) (*DML, error) {
	if d.NumParams == 0 {
		return d, nil
	}
	for i, v := range params {
		if v.IsParam() {
			return nil, fmt.Errorf("plan: argument %d is itself an unbound parameter", i+1)
		}
	}
	out := *d
	out.NumParams = 0
	out.Sets = make([]SetExpr, len(d.Sets))
	for i, a := range d.Sets {
		if a.Val.IsParam() {
			ord := a.Val.ParamOrdinal()
			if ord < 0 || ord >= len(params) {
				return nil, fmt.Errorf("plan: SET placeholder %d out of range", ord+1)
			}
			v, err := value.Coerce(params[ord], a.Col.Kind)
			if err != nil {
				return nil, fmt.Errorf("plan: SET %s: %w", a.Col, err)
			}
			a.Val = v
		}
		out.Sets[i] = a
	}
	var err error
	if out.Preds, err = bindPreds(d.Preds, params); err != nil {
		return nil, err
	}
	return &out, nil
}
