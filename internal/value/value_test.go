package value

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Invalid: "INVALID", Int: "INTEGER", Float: "FLOAT",
		String: "CHAR", Date: "DATE", Bool: "BOOLEAN",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "KIND(99)" {
		t.Errorf("unknown kind rendered as %q", got)
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(-42); v.Kind() != Int || v.Int() != -42 {
		t.Errorf("NewInt round trip failed: %v", v)
	}
	if v := NewFloat(2.5); v.Kind() != Float || v.Float() != 2.5 {
		t.Errorf("NewFloat round trip failed: %v", v)
	}
	if v := NewString("x"); v.Kind() != String || v.Str() != "x" {
		t.Errorf("NewString round trip failed: %v", v)
	}
	if v := NewBool(true); v.Kind() != Bool || !v.Bool() {
		t.Errorf("NewBool round trip failed: %v", v)
	}
	if v := NewDate(2006, 11, 5); v.Kind() != Date {
		t.Errorf("NewDate kind = %v", v.Kind())
	}
	var zero Value
	if zero.IsValid() {
		t.Error("zero Value must be invalid")
	}
	if !NewInt(0).IsValid() {
		t.Error("NewInt(0) must be valid")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { NewString("a").Int() },
		func() { NewInt(1).Str() },
		func() { NewInt(1).Float() },
		func() { NewInt(1).Bool() },
		func() { NewInt(1).DateDays() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDateRoundTrip(t *testing.T) {
	dates := [][3]int{
		{1970, 1, 1}, {2006, 11, 5}, {2007, 9, 23}, {2000, 2, 29},
		{1999, 12, 31}, {2024, 2, 29}, {1900, 3, 1}, {2100, 1, 1},
	}
	for _, d := range dates {
		v := NewDate(d[0], d[1], d[2])
		y, m, dd := v.Civil()
		if y != d[0] || m != d[1] || dd != d[2] {
			t.Errorf("round trip %v -> (%d,%d,%d)", d, y, m, dd)
		}
	}
	if NewDate(1970, 1, 1).DateDays() != 0 {
		t.Error("epoch must be day 0")
	}
	if NewDate(1970, 1, 2).DateDays() != 1 {
		t.Error("1970-01-02 must be day 1")
	}
	if NewDate(1969, 12, 31).DateDays() != -1 {
		t.Error("1969-12-31 must be day -1")
	}
}

func TestDateOrderingIsDense(t *testing.T) {
	// Walking a calendar month by day increments the day count by one.
	prev := NewDate(2006, 12, 31).DateDays()
	for d := 1; d <= 31; d++ {
		cur := NewDate(2007, 1, d).DateDays()
		if cur != prev+1 {
			t.Fatalf("2007-01-%02d: days %d, want %d", d, cur, prev+1)
		}
		prev = cur
	}
}

func TestParseDate(t *testing.T) {
	iso, err := ParseDate("2006-11-05")
	if err != nil {
		t.Fatalf("ParseDate ISO: %v", err)
	}
	paper, err := ParseDate("05-11-2006")
	if err != nil {
		t.Fatalf("ParseDate paper format: %v", err)
	}
	if iso != paper {
		t.Errorf("ISO %v != paper %v", iso, paper)
	}
	if iso.String() != "2006-11-05" {
		t.Errorf("String() = %q", iso.String())
	}
	slash, err := ParseDate("2006/11/05")
	if err != nil || slash != iso {
		t.Errorf("slash separators: %v, %v", slash, err)
	}
	for _, bad := range []string{"", "2006-11", "a-b-c", "2006-13-05", "2006-00-05", "05-11-0"} {
		if _, err := ParseDate(bad); err == nil {
			t.Errorf("ParseDate(%q) should fail", bad)
		}
	}
}

func TestCompareSameKind(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewString("abc"), NewString("abd"), -1},
		{NewString("b"), NewString("b"), 0},
		{NewFloat(1.5), NewFloat(2.5), -1},
		{NewDate(2006, 11, 5), NewDate(2007, 1, 1), -1},
		{NewBool(false), NewBool(true), -1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v, %v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
}

func TestCompareCoercions(t *testing.T) {
	if got, err := Compare(NewInt(2), NewFloat(2.5)); err != nil || got != -1 {
		t.Errorf("Int vs Float: %d, %v", got, err)
	}
	if got, err := Compare(NewFloat(3.0), NewInt(2)); err != nil || got != 1 {
		t.Errorf("Float vs Int: %d, %v", got, err)
	}
	if got, err := Compare(NewString("2006-11-05"), NewDate(2006, 11, 6)); err != nil || got != -1 {
		t.Errorf("String vs Date: %d, %v", got, err)
	}
	if got, err := Compare(NewDate(2006, 11, 7), NewString("05-11-2006")); err != nil || got != 1 {
		t.Errorf("Date vs String(paper): %d, %v", got, err)
	}
	if _, err := Compare(NewInt(1), NewString("x")); err == nil {
		t.Error("Int vs String must be incomparable")
	}
	if _, err := Compare(NewString("notadate"), NewDate(2000, 1, 1)); err == nil {
		t.Error("bad date literal must error")
	}
}

func TestCoerce(t *testing.T) {
	d, err := Coerce(NewString("2006-11-05"), Date)
	if err != nil || d != NewDate(2006, 11, 5) {
		t.Errorf("Coerce string->date: %v, %v", d, err)
	}
	f, err := Coerce(NewInt(3), Float)
	if err != nil || f.Float() != 3.0 {
		t.Errorf("Coerce int->float: %v, %v", f, err)
	}
	same, err := Coerce(NewInt(3), Int)
	if err != nil || same != NewInt(3) {
		t.Errorf("Coerce identity: %v, %v", same, err)
	}
	if _, err := Coerce(NewString("x"), Int); err == nil {
		t.Error("string->int coercion must fail")
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Value{}, "NULL"},
		{NewInt(-7), "-7"},
		{NewFloat(0.5), "0.5"},
		{NewString("hi"), "hi"},
		{NewDate(2007, 9, 23), "2007-09-23"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
	if got := NewString("hi").SQL(); got != "'hi'" {
		t.Errorf("SQL string literal = %q", got)
	}
	if got := NewDate(2006, 11, 5).SQL(); got != "'2006-11-05'" {
		t.Errorf("SQL date literal = %q", got)
	}
	if got := NewInt(5).SQL(); got != "5" {
		t.Errorf("SQL int literal = %q", got)
	}
}

func TestHash64Distinguishes(t *testing.T) {
	vals := []Value{
		NewInt(1), NewInt(2), NewString("1"), NewString("2"),
		NewDate(1970, 1, 2), NewBool(true), NewFloat(1.0),
	}
	seen := map[uint64]Value{}
	for _, v := range vals {
		h := v.Hash64()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
	if NewInt(7).Hash64() != NewInt(7).Hash64() {
		t.Error("hash must be deterministic")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	vals := []Value{
		{}, NewInt(0), NewInt(-1), NewInt(1 << 40), NewFloat(3.14159),
		NewFloat(math.Inf(1)), NewString(""), NewString("hello world"),
		NewDate(2006, 11, 5), NewBool(true), NewBool(false),
	}
	var buf []byte
	for _, v := range vals {
		if got := v.EncodedSize(); got != len(v.Append(nil)) {
			t.Errorf("EncodedSize(%v) = %d, want %d", v, got, len(v.Append(nil)))
		}
		buf = v.Append(buf)
	}
	for _, want := range vals {
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != want {
			t.Errorf("decoded %v, want %v", got, want)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes after decode", len(buf))
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := [][]byte{
		nil,
		{byte(Float), 1, 2},     // short float
		{byte(String), 200},     // corrupt length varint (non-terminated)
		{byte(String), 10, 'a'}, // short string payload
		{77},                    // unknown kind
		{byte(Int)},             // missing varint payload
	}
	for i, b := range bad {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("case %d: Decode(% x) should fail", i, b)
		}
	}
}

func TestQuickIntRoundTrip(t *testing.T) {
	f := func(i int64) bool {
		v := NewInt(i)
		got, n, err := Decode(v.Append(nil))
		return err == nil && got == v && n == v.EncodedSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		v := NewString(s)
		got, n, err := Decode(v.Append(nil))
		return err == nil && got == v && n == v.EncodedSize()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDateRoundTrip(t *testing.T) {
	f := func(days int32) bool {
		v := NewDateDays(int64(days))
		y, m, d := v.Civil()
		return NewDate(y, m, d) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := NewInt(a), NewInt(b)
		c1, _ := Compare(x, y)
		c2, _ := Compare(y, x)
		return c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSQLRendersRelexableLiterals(t *testing.T) {
	// Quotes double, so the canonical text re-lexes.
	if got := NewString("it's").SQL(); got != "'it''s'" {
		t.Errorf("SQL(it's) = %s", got)
	}
	// Floats render in plain decimal (no exponent) and keep a '.', so
	// they re-parse as FLOAT, not INTEGER.
	if got := NewFloat(1e6).SQL(); got != "1000000.0" {
		t.Errorf("SQL(1e6) = %s", got)
	}
	if got := NewFloat(1.5).SQL(); got != "1.5" {
		t.Errorf("SQL(1.5) = %s", got)
	}
}

// TestEqualityAgreesWithCompare is the == contract of the package comment:
// for same-kind values, a == b exactly when Compare(a, b) == 0, and Compare
// is a total order (antisymmetric, transitive) — over a seeded corpus with
// the values that used to break it: NaN, ±0, ±Inf, the int64 extremes, empty
// and equal-prefix strings.
func TestEqualityAgreesWithCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	byKind := map[Kind][]Value{
		Int:    {NewInt(0), NewInt(-1), NewInt(math.MinInt64), NewInt(math.MaxInt64)},
		Date:   {NewDateDays(0), NewDateDays(-1), NewDate(2007, 9, 23), NewDateDays(math.MaxInt32)},
		Bool:   {NewBool(false), NewBool(true)},
		Float:  {NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()), NewFloat(-math.NaN()), NewFloat(math.Float64frombits(0x7FF0000000000123)), NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.SmallestNonzeroFloat64), NewFloat(-math.SmallestNonzeroFloat64)},
		String: {NewString(""), NewString("a"), NewString("ab"), NewString("abc"), NewString("abd"), NewString("b")},
	}
	for i := 0; i < 40; i++ {
		byKind[Int] = append(byKind[Int], NewInt(rng.Int63n(9)-4), NewInt(int64(rng.Uint64())))
		byKind[Date] = append(byKind[Date], NewDateDays(rng.Int63n(9)+13000))
		byKind[Float] = append(byKind[Float], NewFloat(float64(rng.Intn(9)-4)/2), NewFloat(math.Float64frombits(rng.Uint64())))
		byKind[String] = append(byKind[String], NewString(strings.Repeat("ab", rng.Intn(4))+string(rune('a'+rng.Intn(3)))))
	}
	for kind, vals := range byKind {
		for _, a := range vals {
			for _, b := range vals {
				ab, err := Compare(a, b)
				if err != nil {
					t.Fatalf("%s: Compare(%v, %v): %v", kind, a, b, err)
				}
				if (a == b) != (ab == 0) {
					t.Errorf("%s: %v == %v is %v but Compare says %d", kind, a, b, a == b, ab)
				}
				if ba, _ := Compare(b, a); ba != -ab {
					t.Errorf("%s: Compare(%v, %v) = %d but reversed %d", kind, a, b, ab, ba)
				}
				if a == b && a.Hash64() != b.Hash64() {
					t.Errorf("%s: equal values %v hash apart", kind, a)
				}
				for _, c := range vals {
					bc, _ := Compare(b, c)
					ac, _ := Compare(a, c)
					if ab <= 0 && bc <= 0 && ac > 0 {
						t.Errorf("%s: not transitive over %v, %v, %v", kind, a, b, c)
					}
				}
			}
		}
	}
}

// TestFloatCanonical pins what NewFloat stores: one zero, one NaN (the
// bits of math.NaN(), so a NaN that was already canonical encodes as it
// always did), every other float untouched — also on the way in from
// flash or the wire.
func TestFloatCanonical(t *testing.T) {
	negZero, payloadNaN := math.Copysign(0, -1), math.Float64frombits(0xFFF8000000000042)
	if NewFloat(negZero) != NewFloat(0) || math.Signbit(NewFloat(negZero).Float()) {
		t.Error("−0 must be stored as +0")
	}
	if NewFloat(payloadNaN) != NewFloat(math.NaN()) {
		t.Error("every NaN must be stored as the canonical one")
	}
	if got := math.Float64bits(NewFloat(payloadNaN).Float()); got != math.Float64bits(math.NaN()) {
		t.Errorf("canonical NaN is %#x, want the bits of math.NaN()", got)
	}
	for _, f := range []float64{negZero, payloadNaN} {
		enc := binary.LittleEndian.AppendUint64([]byte{byte(Float)}, math.Float64bits(f))
		v, _, err := Decode(enc)
		if err != nil || v != NewFloat(f) {
			t.Errorf("Decode of raw %#x = %v, %v; want the canonical value", math.Float64bits(f), v, err)
		}
	}
	if c, _ := Compare(NewFloat(math.NaN()), NewFloat(math.Inf(-1))); c != -1 {
		t.Errorf("NaN must order before −Inf, Compare = %d", c)
	}
	if c, _ := Compare(NewInt(1), NewFloat(math.NaN())); c != 1 {
		t.Errorf("an Int must order after NaN, Compare = %d", c)
	}
}
