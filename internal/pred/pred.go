// Package pred defines bound selection predicates — the runtime form of a
// WHERE conjunct after the engine resolves its column — and the three
// readings every consumer takes of one:
//
//   - Holds applies a comparison operator to a three-way compare: Eval
//     on a row (the untrusted PC's visible selections, the device's
//     hidden post-filters, the test oracle) and HAVING on a group;
//   - MapLiterals maps a predicate's literals, keeping its shape: the
//     binder substitutes '?' arguments and coerces to the column kind;
//   - Spans lists the stretches of the value order a predicate selects:
//     a climbing index walks its dictionary by them (a point as a
//     lookup, a range as a range scan) and a visible column maps them
//     onto its sort order.
//
// The rule: only this package spells out what a form or an operator
// means. A consumer reads a predicate through these three, so the two
// sides of the trust boundary cannot read one differently. (Shard
// routing is the exception: it reasons over the integer key space with
// rules of its own.)
package pred

import (
	"fmt"
	"slices"
	"strings"

	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Form distinguishes predicate shapes.
type Form int

// Predicate forms.
const (
	FormCompare Form = iota // column <op> literal
	FormBetween             // column BETWEEN lo AND hi
	FormIn                  // column IN (set)
)

// P is a bound predicate over a single column's value.
type P struct {
	Form Form
	Op   sql.CompareOp // FormCompare only
	Val  value.Value   // FormCompare
	Lo   value.Value   // FormBetween
	Hi   value.Value   // FormBetween
	Set  []value.Value // FormIn
}

// Compare builds a comparison predicate.
func Compare(op sql.CompareOp, v value.Value) P {
	return P{Form: FormCompare, Op: op, Val: v}
}

// Between builds an inclusive range predicate.
func Between(lo, hi value.Value) P {
	return P{Form: FormBetween, Lo: lo, Hi: hi}
}

// In builds a set-membership predicate.
func In(vals []value.Value) P {
	return P{Form: FormIn, Set: vals}
}

// Holds reports whether a op b holds, given c = value.Compare(a, b).
func Holds(op sql.CompareOp, c int) (bool, error) {
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
	return false, fmt.Errorf("pred: unknown operator %v", op)
}

// Eval applies the predicate to v.
func (p P) Eval(v value.Value) (bool, error) {
	switch p.Form {
	case FormCompare:
		c, err := value.Compare(v, p.Val)
		if err != nil {
			return false, err
		}
		return Holds(p.Op, c)
	case FormBetween:
		lo, err := value.Compare(v, p.Lo)
		if err != nil {
			return false, err
		}
		if lo < 0 {
			return false, nil
		}
		hi, err := value.Compare(v, p.Hi)
		if err != nil {
			return false, err
		}
		return hi <= 0, nil
	case FormIn:
		for _, s := range p.Set {
			c, err := value.Compare(v, s)
			if err != nil {
				return false, err
			}
			if c == 0 {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("pred: unknown form %d", p.Form)
	}
}

// MapLiterals returns p with every literal replaced by f's answer for it,
// in the order they are written; an IN list is copied, never rewritten in
// place, and keeps only the first of the answers that compare equal (a
// '?' placeholder equals nothing), so every reading of the bound list
// sees each value once. It stops at f's first error.
func (p P) MapLiterals(f func(value.Value) (value.Value, error)) (P, error) {
	var err error
	switch p.Form {
	case FormCompare:
		p.Val, err = f(p.Val)
	case FormBetween:
		if p.Lo, err = f(p.Lo); err == nil {
			p.Hi, err = f(p.Hi)
		}
	case FormIn:
		set := make([]value.Value, 0, len(p.Set))
		for _, v := range p.Set {
			var m value.Value
			if m, err = f(v); err != nil {
				break
			}
			if !slices.ContainsFunc(set, func(u value.Value) bool { c, err := value.Compare(u, m); return err == nil && c == 0 }) {
				set = append(set, m)
			}
		}
		p.Set = set
	}
	return p, err
}

// Span is one stretch of the value order a predicate selects: the values
// from Lo to Hi, each end selected itself when its Incl flag is set, and
// no end at all on a side whose No flag is set. A point is the span from
// a value to itself, both ends included, with Point set: an index looks
// it up rather than scanning a range.
type Span struct {
	Point          bool
	Lo, Hi         value.Value
	NoLo, NoHi     bool
	LoIncl, HiIncl bool
}

func point(v value.Value) Span {
	return Span{Point: true, Lo: v, Hi: v, LoIncl: true, HiIncl: true}
}

// Spans calls yield with the spans p selects, in order: a point for =
// and for each IN element in list order, one range for <, <=, >, >= and
// BETWEEN, and two for <> (below the literal, then above it). A value
// satisfies p exactly when it lies in one of them under value.Compare.
// Spans returns yield's first error, or an error for a form or operator
// it does not know.
func (p P) Spans(yield func(Span) error) error {
	switch p.Form {
	case FormCompare:
		v := p.Val
		switch p.Op {
		case sql.OpEq:
			return yield(point(v))
		case sql.OpNe:
			if err := yield(Span{NoLo: true, Hi: v}); err != nil {
				return err
			}
			return yield(Span{Lo: v, NoHi: true})
		case sql.OpLt:
			return yield(Span{NoLo: true, Hi: v})
		case sql.OpLe:
			return yield(Span{NoLo: true, Hi: v, HiIncl: true})
		case sql.OpGt:
			return yield(Span{Lo: v, NoHi: true})
		case sql.OpGe:
			return yield(Span{Lo: v, LoIncl: true, NoHi: true})
		}
		return fmt.Errorf("pred: unknown operator %v", p.Op)
	case FormBetween:
		return yield(Span{Lo: p.Lo, Hi: p.Hi, LoIncl: true, HiIncl: true})
	case FormIn:
		for _, v := range p.Set {
			if err := yield(point(v)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("pred: unknown form %d", p.Form)
}

// Selectivity kinds for the optimizer: equality predicates are usually
// sharper than ranges.
func (p P) IsEquality() bool {
	return p.Form == FormCompare && p.Op == sql.OpEq
}

// String renders the predicate without its column (the caller prefixes it).
func (p P) String() string {
	switch p.Form {
	case FormCompare:
		return fmt.Sprintf("%s %s", p.Op, p.Val.SQL())
	case FormBetween:
		return fmt.Sprintf("BETWEEN %s AND %s", p.Lo.SQL(), p.Hi.SQL())
	case FormIn:
		parts := make([]string, len(p.Set))
		for i, v := range p.Set {
			parts[i] = v.SQL()
		}
		return "IN (" + strings.Join(parts, ", ") + ")"
	default:
		return "?"
	}
}

// FromCondition converts a parsed condition (which must not be a join)
// into the column it names and its predicate.
func FromCondition(c sql.Condition) (sql.ColRef, P, error) {
	switch c := c.(type) {
	case *sql.Compare:
		return c.Col, Compare(c.Op, c.Val), nil
	case *sql.Between:
		return c.Col, Between(c.Lo, c.Hi), nil
	case *sql.In:
		return c.Col, In(c.Vals), nil
	default:
		return sql.ColRef{}, P{}, fmt.Errorf("pred: %T is not a selection", c)
	}
}
