// Package value defines the typed scalar values GhostDB stores and compares:
// integers, strings, dates and floats. Values are small immutable structs
// and carry their own binary codec for flash storage and wire transfer.
//
// A Value is 32 bytes: the kind, one 64-bit payload word shared by every
// fixed-width kind (a Float keeps its IEEE bits there) and the string
// header. Every result row and delta row image in the system is a []Value,
// so the size is pinned by a test; the columns a rebuild takes are Columns,
// which hold the payload unboxed.
//
// == is an equivalence that agrees with Compare: for two values of the same
// kind, a == b exactly when Compare(a, b) == 0, which is what lets a Value
// key a map or be deduplicated by sorting. Floats are what make that a rule
// and not a given: every Float is built by NewFloat, which stores −0 as +0
// and every NaN as the one quiet NaN math.NaN() returns, and Compare orders
// floats as cmp.Compare does: NaN before every number and equal to itself.
package value

import (
	"cmp"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported kinds. Invalid is the zero Kind; a zero Value is Invalid.
const (
	Invalid Kind = iota
	Int          // 64-bit signed integer
	Float        // 64-bit IEEE float
	String       // UTF-8 string (CHAR/VARCHAR)
	Date         // calendar date, stored as days since 1970-01-01
	Bool         // boolean
	Param        // unbound query parameter ('?' placeholder), payload is its ordinal
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Invalid:
		return "INVALID"
	case Int:
		return "INTEGER"
	case Float:
		return "FLOAT"
	case String:
		return "CHAR"
	case Date:
		return "DATE"
	case Bool:
		return "BOOLEAN"
	case Param:
		return "PARAM"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Value is a typed scalar. The zero Value has Kind Invalid. Values are
// comparable with == (see the package comment for the contract), so they
// can key maps; use Compare for SQL ordering semantics.
type Value struct {
	kind Kind
	i    int64 // Int payload, Date days, Bool 0/1, Float IEEE bits, Param ordinal
	s    string
}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: Int, i: v} }

// canonNaN is the one NaN a Value holds: the bits of math.NaN().
const canonNaN = 0x7FF8000000000001

// NewFloat returns a float value; −0 is stored as +0 and any NaN as the
// canonical quiet NaN, so == on the result compares floats as Compare does.
func NewFloat(v float64) Value {
	switch {
	case v != v:
		return Value{kind: Float, i: canonNaN}
	case v == 0:
		return Value{kind: Float}
	}
	return Value{kind: Float, i: int64(math.Float64bits(v))}
}

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: String, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: Bool, i: i}
}

// NewDateDays returns a date value from a days-since-epoch count.
func NewDateDays(days int64) Value { return Value{kind: Date, i: days} }

// NewParam returns an unbound parameter placeholder with the given
// 0-based ordinal. Parameters never reach storage or comparison: they
// are substituted by real values when a compiled query is bound.
func NewParam(ordinal int) Value { return Value{kind: Param, i: int64(ordinal)} }

// IsParam reports whether the value is an unbound parameter.
func (v Value) IsParam() bool { return v.kind == Param }

// ParamOrdinal returns the placeholder's 0-based ordinal. It panics if
// the kind is not Param.
func (v Value) ParamOrdinal() int {
	if v.kind != Param {
		panic("value: ParamOrdinal() on " + v.kind.String())
	}
	return int(v.i)
}

// NewDate returns a date value for the given civil year, month and day.
func NewDate(year, month, day int) Value {
	return Value{kind: Date, i: daysFromCivil(year, month, day)}
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value carries a kind.
func (v Value) IsValid() bool { return v.kind != Invalid }

// Int returns the integer payload. It panics if the kind is not Int.
func (v Value) Int() int64 {
	if v.kind != Int {
		panic("value: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the float payload. It panics if the kind is not Float.
func (v Value) Float() float64 {
	if v.kind != Float {
		panic("value: Float() on " + v.kind.String())
	}
	return math.Float64frombits(uint64(v.i)) // not v.float(): the call tips Float over the inlining budget
}

// float decodes the Float payload; the caller has checked the kind.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Str returns the string payload. It panics if the kind is not String.
func (v Value) Str() string {
	if v.kind != String {
		panic("value: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the kind is not Bool.
func (v Value) Bool() bool {
	if v.kind != Bool {
		panic("value: Bool() on " + v.kind.String())
	}
	return v.i != 0
}

// DateDays returns the days-since-epoch payload. It panics if the kind is
// not Date.
func (v Value) DateDays() int64 {
	if v.kind != Date {
		panic("value: DateDays() on " + v.kind.String())
	}
	return v.i
}

// Word returns the 64-bit payload of a fixed-width value as stored: an
// Int, a Date's day count, a Bool's 0/1, a Float's IEEE bits. A loop over
// a column that has checked the kind once (index build, column files)
// reads it instead of a per-kind accessor. It panics on any other kind.
func (v Value) Word() int64 {
	switch v.kind {
	case Int, Date, Bool, Float:
		return v.i
	}
	panic("value: Word() on " + v.kind.String())
}

// FromWord is the inverse of Word: the value of fixed-width kind k whose
// stored payload is w. A column store that keeps words and kinds apart
// from the 32-byte struct rebuilds its values with it; w must be a word a
// value of that kind returned (a Float's bits are not canonicalised
// again). It panics on any other kind.
func FromWord(k Kind, w int64) Value {
	switch k {
	case Int, Date, Bool, Float:
		return Value{kind: k, i: w}
	}
	panic("value: FromWord() on " + k.String())
}

// String renders the value for display: dates as YYYY-MM-DD, strings
// unquoted, numbers in decimal.
func (v Value) String() string {
	switch v.kind {
	case Invalid:
		return "NULL"
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Float:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case String:
		return v.s
	case Date:
		y, m, d := civilFromDays(v.i)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	case Bool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case Param:
		return "?"
	}
	return "?"
}

// SQL renders the value as a SQL literal (strings quoted with internal
// quotes doubled, dates quoted ISO, floats in plain decimal so the text
// re-lexes, parameters as their bare placeholder — which makes a
// statement's canonical text a parameter-independent shape).
func (v Value) SQL() string {
	switch v.kind {
	case String:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case Date:
		return "'" + v.String() + "'"
	case Float:
		s := strconv.FormatFloat(v.float(), 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // keep the literal a FLOAT on re-parse
		}
		return s
	default:
		return v.String()
	}
}

// ErrIncomparable is returned by Compare when two kinds cannot be ordered
// against each other even after coercion.
var ErrIncomparable = errors.New("value: incomparable kinds")

// Compare orders a against b: -1, 0 or +1. Numeric kinds compare after
// widening; a String compares against a Date by parsing the string as a
// date (how the SQL front end passes date literals). Other cross-kind
// comparisons return ErrIncomparable.
func Compare(a, b Value) (int, error) {
	if a.kind == b.kind {
		switch a.kind {
		case Int, Date, Bool:
			return cmpI64(a.i, b.i), nil
		case Float:
			return cmp.Compare(a.float(), b.float()), nil
		case String:
			switch {
			case a.s < b.s:
				return -1, nil
			case a.s > b.s:
				return 1, nil
			default:
				return 0, nil
			}
		default:
			return 0, ErrIncomparable
		}
	}
	// Coercions.
	switch {
	case a.kind == Int && b.kind == Float:
		return cmp.Compare(float64(a.i), b.float()), nil
	case a.kind == Float && b.kind == Int:
		return cmp.Compare(a.float(), float64(b.i)), nil
	case a.kind == String && b.kind == Date:
		ad, err := ParseDate(a.s)
		if err != nil {
			return 0, err
		}
		return cmpI64(ad.i, b.i), nil
	case a.kind == Date && b.kind == String:
		bd, err := ParseDate(b.s)
		if err != nil {
			return 0, err
		}
		return cmpI64(a.i, bd.i), nil
	}
	return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, a.kind, b.kind)
}

// Coerce converts v to kind k when a lossless conversion exists, e.g. a
// string date literal to a Date. It returns the value unchanged when
// already of kind k. Unbound parameters pass through untouched: they are
// coerced once real values are bound.
func Coerce(v Value, k Kind) (Value, error) {
	if v.kind == k || v.kind == Param {
		return v, nil
	}
	switch {
	case v.kind == String && k == Date:
		return ParseDate(v.s)
	case v.kind == Int && k == Float:
		return NewFloat(float64(v.i)), nil
	case v.kind == Int && k == Date:
		return NewDateDays(v.i), nil
	}
	return Value{}, fmt.Errorf("value: cannot coerce %s to %s", v.kind, k)
}

// Hash64 returns a 64-bit FNV-1a hash of the value's canonical encoding,
// used by Bloom filters and the baseline hash join.
func (v Value) Hash64() uint64 {
	h := fnv.New64a()
	var buf [10]byte
	buf[0] = byte(v.kind)
	switch v.kind {
	case String:
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	case Float:
		bits := uint64(v.i)
		if bits == canonNaN {
			bits = 0 // NaN has always hashed as zero bits
		}
		putU64(buf[1:9], bits)
		h.Write(buf[:9])
	default:
		putU64(buf[1:9], uint64(v.i))
		h.Write(buf[:9])
	}
	return h.Sum64()
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
