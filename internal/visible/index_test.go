package visible

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// refSelect is the reference every access path must match: one Eval per
// row, in ID order, first error wins.
func refSelect(vals []value.Value, p pred.P) ([]uint32, error) {
	var want []uint32
	for i, v := range vals {
		ok, err := p.Eval(v)
		if err != nil {
			return nil, fmt.Errorf("visible: T.x: %w", err)
		}
		if ok {
			want = append(want, uint32(i+1))
		}
	}
	return want, nil
}

// Column and literal kinds of a selectCase.
const (
	kInt = iota
	kFloat
	kString
	kDate
	kBool
	kOther // column: whole floats, NaN every fifth byte; literal: NULL
	kinds
)

// Predicate forms of a selectCase; 0..5 are the comparison operators.
const (
	fBetween = 6 + iota
	fInXYX
	fInX
	fInNone
	forms
)

var compareOps = [...]sql.CompareOp{sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe}

var words = [...]string{"", "Antibiotic", "Statin", "Vaccine", "a", "b", "zz", "2005-08-14"}

// The Float literal and column byte that decode to NaN, and the column
// byte for -0.
const (
	nan     = 99
	negZero = 98
)

// selectCase is one differential input, decoded from small integers so
// that testing/quick and the fuzzer land on duplicates, literals at and
// beyond both ends of the domain, and kind mismatches within a few tries.
type selectCase struct {
	col     []byte // one row each; ignored but for its length when dense
	colKind uint8
	dense   bool // the column is a primary key, 1..len(col)
	litKind uint8
	form    uint8
	x, y    int64 // the literals
}

func (c selectCase) column() ([]value.Value, value.Kind) {
	vals := make([]value.Value, len(c.col))
	if c.dense {
		for i := range vals {
			vals[i] = value.NewInt(int64(i + 1))
		}
		return vals, value.Int
	}
	declared := [...]value.Kind{value.Int, value.Float, value.String, value.Date, value.Bool, value.Float}[c.colKind%kinds]
	for i, b := range c.col {
		switch c.colKind % kinds {
		case kInt:
			vals[i] = value.NewInt(int64(b%16) - 4)
		case kFloat:
			vals[i] = value.NewFloat(float64(b%16)/2 - 2)
			switch b {
			case nan:
				vals[i] = value.NewFloat(math.NaN())
			case negZero:
				vals[i] = value.NewFloat(math.Copysign(0, -1))
			}
		case kString:
			vals[i] = value.NewString(words[b%8])
		case kDate:
			vals[i] = value.NewDateDays(13000 + int64(b%16))
		case kBool:
			vals[i] = value.NewBool(b&1 == 1)
		case kOther:
			vals[i] = value.NewFloat(float64(b % 16))
			if b%5 == 0 {
				vals[i] = value.NewFloat(math.NaN())
			}
		}
	}
	return vals, declared
}

func (c selectCase) literal(x int64) value.Value {
	switch c.litKind % kinds {
	case kInt:
		return value.NewInt(x)
	case kFloat:
		if x == nan {
			return value.NewFloat(math.NaN())
		}
		return value.NewFloat(float64(x) / 2)
	case kString:
		if x%3 == 0 { // a date as the SQL front end passes it
			return value.NewString(value.NewDateDays(13000 + x%32).String())
		}
		return value.NewString(words[uint64(x)%8])
	case kDate:
		return value.NewDateDays(13000 + x)
	case kBool:
		return value.NewBool(x&1 == 1)
	}
	return value.Value{}
}

func (c selectCase) pred() pred.P {
	x, y := c.literal(c.x), c.literal(c.y)
	switch f := c.form % forms; f {
	case fBetween:
		return pred.Between(x, y)
	case fInXYX:
		return pred.In([]value.Value{x, y, x})
	case fInX:
		return pred.In([]value.Value{x})
	case fInNone:
		return pred.In(nil)
	default:
		return pred.Compare(compareOps[f], x)
	}
}

func (c selectCase) table(t testing.TB) *Table {
	vals, kind := c.column()
	tb, err := NewStore().CreateTable("T", len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if c.dense {
		err = tb.AddKeyColumn("x")
	} else {
		err = tb.AddColumn("x", columnOf(kind, vals))
	}
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// check runs the case on a fresh table, cold (the call that builds the
// index) and warm, against the reference, and reports the path taken.
func (c selectCase) check(t testing.TB) (indexed bool) {
	t.Helper()
	vals, _ := c.column()
	p := c.pred()
	want, wantErr := refSelect(vals, p)
	tb := c.table(t)
	for _, call := range []string{"cold", "warm"} {
		got, ix, err := tb.SelectPath("x", p)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%+v %s: x %s: error %v, reference %v", c, call, p, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v %s: x %s over %v = %v, reference %v", c, call, p, vals, got, want)
		}
		indexed = ix
	}
	return indexed
}

// selectSeeds are the cases the issue names, each with the path that
// must serve it; the fuzzer starts from them.
var selectSeeds = []struct {
	name    string
	c       selectCase
	indexed bool
}{
	{"int duplicates =", selectCase{col: []byte{3, 9, 3, 3, 0, 9, 15, 3}, colKind: kInt, litKind: kInt, form: 0, x: -1}, true},
	{"int duplicates <>", selectCase{col: []byte{3, 9, 3, 3, 0, 9, 15, 3}, colKind: kInt, litKind: kInt, form: 1, x: 5}, true},
	{"int below the domain <", selectCase{col: []byte{3, 9, 3}, colKind: kInt, litKind: kInt, form: 2, x: -100}, true},
	{"int above the domain <=", selectCase{col: []byte{3, 9, 3}, colKind: kInt, litKind: kInt, form: 3, x: 100}, true},
	{"float column, int literal >", selectCase{col: []byte{1, 8, 8, 2, 15}, colKind: kFloat, litKind: kInt, form: 4, x: 2}, true},
	{"string >=", selectCase{col: []byte{1, 2, 3, 1, 0, 6}, colKind: kString, litKind: kString, form: 5, x: 2}, true},
	{"date column, date string literal", selectCase{col: []byte{0, 5, 9, 5}, colKind: kDate, litKind: kString, form: 3, x: 6}, true},
	{"float -0 = 0", selectCase{col: []byte{4, negZero, 3, negZero, 4}, colKind: kFloat, litKind: kFloat, form: 0, x: 0}, true},
	{"float negatives <", selectCase{col: []byte{0, 15, 1, negZero, 2}, colKind: kFloat, litKind: kFloat, form: 2, x: -1}, true},
	{"int both signs >", selectCase{col: []byte{0, 15, 4, 3, 5}, colKind: kInt, litKind: kInt, form: 4, x: -1}, true},
	{"bool =", selectCase{col: []byte{0, 1, 1, 0, 1}, colKind: kBool, litKind: kBool, form: 0, x: 1}, true},
	{"between", selectCase{col: []byte{3, 9, 3, 3, 0, 9, 15, 3}, colKind: kInt, litKind: kInt, form: fBetween, x: -1, y: 5}, true},
	{"between lo > hi", selectCase{col: []byte{3, 9, 3}, colKind: kInt, litKind: kInt, form: fBetween, x: 5, y: -1}, true},
	{"in duplicates and absent", selectCase{col: []byte{3, 9, 3, 0, 15}, colKind: kInt, litKind: kInt, form: fInXYX, x: -1, y: 77}, true},
	{"in one", selectCase{col: []byte{3, 9, 3, 0, 15}, colKind: kInt, litKind: kInt, form: fInX, x: 5}, true},
	{"in empty", selectCase{col: []byte{3, 9, 3}, colKind: kInt, litKind: kInt, form: fInNone}, true},
	{"empty table", selectCase{colKind: kString, litKind: kString, form: 0, x: 1}, true},
	{"one row hit", selectCase{col: []byte{7}, colKind: kInt, litKind: kInt, form: 0, x: 3}, true},
	{"one row miss", selectCase{col: []byte{7}, colKind: kInt, litKind: kInt, form: 0, x: 4}, true},
	{"key point", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: 0, x: 4}, true},
	{"key point outside", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: 0, x: 10}, true},
	{"key <>", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: 1, x: 4}, true},
	{"key range", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: fBetween, x: -3, y: 6}, true},
	{"key in", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: fInXYX, x: 8, y: 2}, true},
	{"key extremes <", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: 2, x: math.MinInt64}, true},
	{"key extremes <=", selectCase{col: make([]byte, 9), dense: true, litKind: kInt, form: 3, x: math.MaxInt64}, true},
	{"empty key table", selectCase{dense: true, litKind: kInt, form: 0, x: 1}, true},

	{"int column, float literal", selectCase{col: []byte{3, 9, 3}, colKind: kInt, litKind: kFloat, form: 3, x: 3}, false},
	{"key column, float literal", selectCase{col: make([]byte, 9), dense: true, litKind: kFloat, form: 2, x: 7}, false},
	{"date column, non-date string", selectCase{col: []byte{0, 5}, colKind: kDate, litKind: kString, form: 0, x: 1}, false},
	{"date column, int literal", selectCase{col: []byte{0, 5}, colKind: kDate, litKind: kInt, form: 0, x: 13005}, false},
	{"string column, date literal", selectCase{col: []byte{7, 7}, colKind: kString, litKind: kDate, form: 0, x: 0}, false},
	{"incomparable kinds", selectCase{col: []byte{1, 2}, colKind: kString, litKind: kInt, form: 0, x: 1}, false},
	{"null literal", selectCase{col: []byte{1, 2}, colKind: kInt, litKind: kOther, form: 0}, false},
	{"in, incomparable kinds", selectCase{col: []byte{1, 1}, colKind: kBool, litKind: kInt, form: fInXYX, x: 1, y: 2}, false},
	{"float column with NaN", selectCase{col: []byte{1, nan, 8}, colKind: kFloat, litKind: kFloat, form: 2, x: 2}, false},
	{"NaN literal", selectCase{col: []byte{1, 4, 8}, colKind: kFloat, litKind: kFloat, form: 0, x: nan}, false},
	{"NaN among whole floats", selectCase{col: []byte{1, 5, 8}, colKind: kOther, litKind: kInt, form: 0, x: 1}, false},
}

// TestQuickSelectMatchesScan is the index-vs-scan differential: the named
// cases, with the path each must take, then random columns of every kind
// under every predicate form.
func TestQuickSelectMatchesScan(t *testing.T) {
	for _, s := range selectSeeds {
		if got := s.c.check(t); got != s.indexed {
			t.Errorf("%s: served by the index = %v, want %v", s.name, got, s.indexed)
		}
	}
	f := func(col []byte, colKind, litKind, form uint8, dense bool, x, y int8) bool {
		// Literals within and a little beyond the columns' domains.
		c := selectCase{col: col, colKind: colKind, dense: dense, litKind: litKind, form: form, x: int64(x % 12), y: int64(y % 12)}
		if c.litKind%kinds == kDate || c.dense {
			c.x, c.y = c.x+6, c.y+6
		}
		c.check(t)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func FuzzSelectIndexVsScan(f *testing.F) {
	for _, s := range selectSeeds {
		f.Add(s.c.col, s.c.colKind, s.c.dense, s.c.litKind, s.c.form, s.c.x, s.c.y)
	}
	f.Fuzz(func(t *testing.T, col []byte, colKind uint8, dense bool, litKind, form uint8, x, y int64) {
		selectCase{col: col, colKind: colKind, dense: dense, litKind: litKind, form: form, x: x, y: y}.check(t)
	})
}

// benchRows is the benchmark workloads' fact-table size.
const benchRows = 50_000

// benchTable has a key, a foreign-key-like column (five rows a value) and
// a uniform column over 0..999, so a cutoff is a selectivity in 0.1%.
func benchTable(tb testing.TB) *Table {
	fk, uni := make([]value.Value, benchRows), make([]value.Value, benchRows)
	for i := range fk {
		fk[i] = value.NewInt(int64(i*7919%(benchRows/5)) + 1)
		uni[i] = value.NewInt(int64(i * 7919 % 1000))
	}
	t, err := NewStore().CreateTable("T", benchRows)
	if err != nil {
		tb.Fatal(err)
	}
	if err := t.AddKeyColumn("key"); err != nil {
		tb.Fatal(err)
	}
	if err := t.AddColumn("fk", columnOf(value.Int, fk)); err != nil {
		tb.Fatal(err)
	}
	if err := t.AddColumn("uni", columnOf(value.Int, uni)); err != nil {
		tb.Fatal(err)
	}
	return t
}

// TestSelectAllocs is the cost floor: a point lookup on a key, and an
// equality on an indexed column, allocate the result and nothing else.
func TestSelectAllocs(t *testing.T) {
	tb := benchTable(t)
	for _, c := range []struct {
		col string
		p   pred.P
	}{
		{"key", pred.Compare(sql.OpEq, value.NewInt(31_337))},
		{"fk", pred.Compare(sql.OpEq, value.NewInt(4_242))},
	} {
		var ids []uint32
		var err error
		allocs := testing.AllocsPerRun(100, func() { ids, err = tb.Select(c.col, c.p) })
		if err != nil || len(ids) == 0 {
			t.Fatalf("%s: %v, %v", c.col, ids, err)
		}
		if allocs > 1 {
			t.Errorf("Select(%s %s) allocates %.0f times, want the result slice only", c.col, c.p, allocs)
		}
	}
}

// TestSelectColdColumnConcurrent has 16 goroutines ask the first-ever
// predicate of one column at once: one of them builds the index, all of
// them get the reference answer. Run with -race.
func TestSelectColdColumnConcurrent(t *testing.T) {
	tb := benchTable(t)
	p := pred.Between(value.NewInt(100), value.NewInt(104))
	col, _ := tb.Column("uni")
	cells := make([]value.Value, col.n)
	for i := range cells {
		cells[i] = col.at(i)
	}
	want, err := refSelect(cells, p)
	if err != nil || len(want) == 0 {
		t.Fatalf("reference: %d ids, %v", len(want), err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, indexed, err := tb.SelectPath("uni", p)
			if err != nil || !indexed || !reflect.DeepEqual(got, want) {
				t.Errorf("%d ids (indexed %v, %v), reference has %d", len(got), indexed, err, len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
}

var benchSink []uint32

// BenchmarkVisibleSelect prices both access paths on one column: warm
// (index built), cold (a fresh column each call, build included) and the
// scan, so the number of calls after which an index has paid for itself
// can be read off.
func BenchmarkVisibleSelect(b *testing.B) {
	t := benchTable(b)
	for _, c := range []struct {
		name, col string
		p         pred.P
	}{
		{"pk_point", "key", pred.Compare(sql.OpEq, value.NewInt(31_337))},
		{"eq", "fk", pred.Compare(sql.OpEq, value.NewInt(4_242))},
		{"range_1pct", "uni", pred.Compare(sql.OpLt, value.NewInt(10))},
		{"range_10pct", "uni", pred.Compare(sql.OpLt, value.NewInt(100))},
		{"range_70pct", "uni", pred.Compare(sql.OpLt, value.NewInt(700))},
	} {
		col, _ := t.Column(c.col)
		b.Run(c.name+"/warm", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink, _ = col.lookup(c.p)
			}
		})
		b.Run(c.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				fresh := &Column{Name: col.Name, Kind: col.Kind, n: col.n, data: col.data, dense: col.dense}
				benchSink, _ = fresh.lookup(c.p)
			}
		})
		b.Run(c.name+"/scan", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchSink, _ = col.scan(c.p)
			}
		})
	}
}
