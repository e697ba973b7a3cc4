package pred

import (
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

func TestCompareOps(t *testing.T) {
	cases := []struct {
		op   sql.CompareOp
		v    int64
		want map[int64]bool
	}{
		{sql.OpEq, 5, map[int64]bool{4: false, 5: true, 6: false}},
		{sql.OpNe, 5, map[int64]bool{4: true, 5: false, 6: true}},
		{sql.OpLt, 5, map[int64]bool{4: true, 5: false, 6: false}},
		{sql.OpLe, 5, map[int64]bool{4: true, 5: true, 6: false}},
		{sql.OpGt, 5, map[int64]bool{4: false, 5: false, 6: true}},
		{sql.OpGe, 5, map[int64]bool{4: false, 5: true, 6: true}},
	}
	for _, c := range cases {
		p := Compare(c.op, value.NewInt(c.v))
		for in, want := range c.want {
			got, err := p.Eval(value.NewInt(in))
			if err != nil || got != want {
				t.Errorf("%v %d on %d = %v, %v; want %v", c.op, c.v, in, got, err, want)
			}
		}
	}
}

func TestBetween(t *testing.T) {
	p := Between(value.NewInt(10), value.NewInt(20))
	for in, want := range map[int64]bool{9: false, 10: true, 15: true, 20: true, 21: false} {
		got, err := p.Eval(value.NewInt(in))
		if err != nil || got != want {
			t.Errorf("between 10..20 on %d = %v, %v", in, got, err)
		}
	}
}

func TestIn(t *testing.T) {
	p := In([]value.Value{value.NewString("a"), value.NewString("c")})
	for in, want := range map[string]bool{"a": true, "b": false, "c": true} {
		got, err := p.Eval(value.NewString(in))
		if err != nil || got != want {
			t.Errorf("IN on %q = %v, %v", in, got, err)
		}
	}
}

func TestDateCoercionInEval(t *testing.T) {
	p := Compare(sql.OpGt, value.NewString("05-11-2006"))
	got, err := p.Eval(value.NewDate(2006, 12, 1))
	if err != nil || !got {
		t.Errorf("date > paper literal = %v, %v", got, err)
	}
	got, err = p.Eval(value.NewDate(2006, 10, 1))
	if err != nil || got {
		t.Errorf("earlier date = %v, %v", got, err)
	}
}

func TestEvalErrors(t *testing.T) {
	p := Compare(sql.OpEq, value.NewString("x"))
	if _, err := p.Eval(value.NewInt(1)); err == nil {
		t.Error("incomparable kinds accepted")
	}
	bad := P{Form: Form(99)}
	if _, err := bad.Eval(value.NewInt(1)); err == nil {
		t.Error("unknown form accepted")
	}
}

func TestIsEquality(t *testing.T) {
	if !Compare(sql.OpEq, value.NewInt(1)).IsEquality() {
		t.Error("= not equality")
	}
	if Compare(sql.OpGt, value.NewInt(1)).IsEquality() {
		t.Error("> is equality")
	}
	if Between(value.NewInt(1), value.NewInt(2)).IsEquality() {
		t.Error("between is equality")
	}
}

func TestString(t *testing.T) {
	if got := Compare(sql.OpGe, value.NewInt(7)).String(); got != ">= 7" {
		t.Errorf("compare String = %q", got)
	}
	if got := Between(value.NewInt(1), value.NewInt(2)).String(); got != "BETWEEN 1 AND 2" {
		t.Errorf("between String = %q", got)
	}
	got := In([]value.Value{value.NewString("a")}).String()
	if !strings.Contains(got, "IN ('a')") {
		t.Errorf("in String = %q", got)
	}
}

func TestFromCondition(t *testing.T) {
	sel, err := sql.ParseSelect("SELECT * FROM T WHERE a = 1 AND b BETWEEN 2 AND 3 AND c IN (4) AND d = e")
	if err != nil {
		t.Fatal(err)
	}
	forms := []Form{FormCompare, FormBetween, FormIn}
	for i, want := range forms {
		col, p, err := FromCondition(sel.Where[i])
		if err != nil || p.Form != want || col.Column != string(rune('a'+i)) {
			t.Errorf("cond %d: column %s, form %v, err %v", i, col, p.Form, err)
		}
	}
	if _, _, err := FromCondition(sel.Where[3]); err == nil {
		t.Error("join condition accepted as selection")
	}
}

// inSpan reports whether v lies in s under value.Compare.
func inSpan(s Span, v value.Value) (bool, error) {
	if !s.NoLo {
		c, err := value.Compare(v, s.Lo)
		if err != nil || c < 0 || (c == 0 && !s.LoIncl) {
			return false, err
		}
	}
	if !s.NoHi {
		c, err := value.Compare(v, s.Hi)
		if err != nil || c > 0 || (c == 0 && !s.HiIncl) {
			return false, err
		}
	}
	return true, nil
}

// fuzzValue makes a value of one of five kinds from a byte and a small
// integer: few distinct values, so probes often meet the literals.
func fuzzValue(kind byte, x int8) value.Value {
	switch kind % 5 {
	case 0:
		return value.NewInt(int64(x % 8))
	case 1:
		return value.NewFloat(float64(x%16) / 2)
	case 2:
		return value.NewString(string(rune('a' + (x%8+8)%8)))
	case 3:
		return value.NewDateDays(int64(x % 8))
	default:
		return value.NewBool(x%2 == 0)
	}
}

// FuzzSpans holds the spans to Eval: for every form and operator, a probe
// satisfies the predicate exactly when it lies in one of its spans, and
// fails to compare exactly when Eval does. A point spans one value from
// itself to itself.
func FuzzSpans(f *testing.F) {
	for op := range uint8(6) { // the probe at, below and above the literal
		for _, probe := range []byte{3, 2, 4} {
			f.Add(uint8(0), op, []byte{0, probe, 0, 3})
		}
	}
	f.Add(uint8(1), uint8(0), []byte{1, 2, 1, 6, 0, 3})
	f.Add(uint8(2), uint8(0), []byte{2, 1, 2, 5, 2, 1, 2, 1})
	f.Add(uint8(2), uint8(0), []byte{3, 1})
	f.Fuzz(func(t *testing.T, form, op uint8, lits []byte) {
		if len(lits) < 2 {
			return
		}
		probe := fuzzValue(lits[0], int8(lits[1]))
		var vals []value.Value
		for i := 2; i+1 < len(lits) && len(vals) < 8; i += 2 {
			vals = append(vals, fuzzValue(lits[i], int8(lits[i+1])))
		}
		var p P
		switch form % 3 {
		case 0:
			if len(vals) < 1 {
				return
			}
			p = Compare(sql.CompareOp(int(op)%6), vals[0])
		case 1:
			if len(vals) < 2 {
				return
			}
			p = Between(vals[0], vals[1])
		default:
			p = In(vals)
		}
		want, wantErr := p.Eval(probe)
		got := false
		var gotErr error
		err := p.Spans(func(s Span) error {
			if s.Point && (!s.LoIncl || !s.HiIncl || s.NoLo || s.NoHi || s.Lo != s.Hi) {
				t.Fatalf("%s: point span %+v is not one value", p, s)
			}
			if got || gotErr != nil {
				return nil
			}
			got, gotErr = inSpan(s, probe)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: Spans: %v", p, err)
		}
		if (gotErr != nil) != (wantErr != nil) || (wantErr == nil && got != want) {
			t.Fatalf("%s on %v: spans say %v, %v; Eval says %v, %v", p, probe, got, gotErr, want, wantErr)
		}
	})
}

func TestSpansUnknown(t *testing.T) {
	yield := func(Span) error { return nil }
	if err := (P{Form: Form(99)}).Spans(yield); err == nil {
		t.Error("unknown form spanned")
	}
	if err := Compare(sql.CompareOp(99), value.NewInt(1)).Spans(yield); err == nil {
		t.Error("unknown operator spanned")
	}
}
