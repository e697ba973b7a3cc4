package value

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"unsafe"
)

// goldenCorpus is the fixed set of values whose encoding, hash and
// rendering are pinned in testdata/encoding_golden.txt. −0 and NaNs with a
// payload are left out: NewFloat canonicalises them on purpose (see
// TestFloatCanonical); math.NaN() itself is in, and is the canonical NaN.
func goldenCorpus() []Value {
	return []Value{
		{},
		NewInt(0), NewInt(1), NewInt(-1), NewInt(63), NewInt(64), NewInt(-65), NewInt(300),
		NewInt(math.MaxInt32), NewInt(math.MinInt32), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(1), NewFloat(-1), NewFloat(2.5), NewFloat(-1e-300), NewFloat(1e300),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(math.MaxFloat64),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
		NewString(""), NewString("a"), NewString("ab"), NewString("abc"), NewString("Sclerosis"),
		NewString("O'Brien"), NewString("naïve ✓"), NewString(strings.Repeat("x", 200)),
		NewDate(1970, 1, 1), NewDate(2007, 9, 23), NewDate(1899, 12, 31), NewDateDays(-1), NewDateDays(1 << 20),
		NewBool(false), NewBool(true),
	}
}

func goldenLine(v Value) string {
	return fmt.Sprintf("%d %x %016x %q %q", v.Kind(), v.Append(nil), v.Hash64(), v.String(), v.SQL())
}

// TestEncodingPinned replays testdata/encoding_golden.txt, written at
// 2d3e060 while Value still carried a separate float64 field: the flash /
// wire encoding, Hash64 (Bloom filters hash with it), String and SQL of
// every corpus value are what they were, and Decode inverts Append.
// Never regenerate the file to make a failure go away.
func TestEncodingPinned(t *testing.T) {
	f, err := os.Open("testdata/encoding_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	corpus := goldenCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("golden holds %d values, corpus %d", len(want), len(corpus))
	}
	for i, v := range corpus {
		if got := goldenLine(v); got != want[i] {
			t.Errorf("value %d drifted from 2d3e060:\n got  %s\n want %s", i, got, want[i])
		}
		enc := v.Append(nil)
		if len(enc) != v.EncodedSize() {
			t.Errorf("value %d: EncodedSize %d, Append wrote %d", i, v.EncodedSize(), len(enc))
		}
		back, n, err := Decode(enc)
		if err != nil || n != len(enc) || back != v {
			t.Errorf("value %d: Decode(Append(%v)) = %v, %d, %v", i, v, back, n, err)
		}
	}
}

// TestValueSize pins the struct at four words: kind, one payload word
// shared by every fixed-width kind, and the string header.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(value.Value{}) = %d, want 32", got)
	}
}
