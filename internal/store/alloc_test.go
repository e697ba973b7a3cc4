package store

import (
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/testenv"
	"github.com/ghostdb/ghostdb/internal/value"
)

// TestColumnValueAllocationFloor pins what fetching one hidden value costs
// the host: nothing for a fixed-width kind, the decoded string and nothing
// else for a string that fits the stack read buffer, nothing at all for a
// string the scan's interner has seen.
func TestColumnValueAllocationFloor(t *testing.T) {
	testenv.SkipFloorUnderRace(t)
	s := newTestStore(t)
	const rows = 64
	if _, err := s.CreateTable("T", rows); err != nil {
		t.Fatal(err)
	}
	ints, short, long := make([]value.Value, rows), make([]value.Value, rows), make([]value.Value, rows)
	for i := range ints {
		ints[i] = value.NewInt(int64(i))
		short[i] = value.NewString(strings.Repeat("s", 1+i%120)) // encoded: at most 122 bytes
		long[i] = value.NewString(strings.Repeat("l", 200))
	}
	col := func(name string, kind value.Kind, vals []value.Value) Column {
		c, err := s.AddColumn("T", name, columnOf(kind, vals))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var in value.Interner
	cases := []struct {
		name string
		col  Column
		in   *value.Interner
		want float64
	}{
		{"fixed-width", col("I", value.Int, ints), nil, 0},
		{"string <= 128 B", col("S", value.String, short), nil, 1},
		{"string > 128 B", col("L", value.String, long), nil, 2}, // the read buffer, then the string
		{"interned string", col("S2", value.String, short), &in, 0},
	}
	for _, c := range cases {
		row := 0
		fetch := func() {
			var v value.Value
			var err error
			if vc, ok := c.col.(*VarColumn); ok {
				v, err = vc.ValueInterned(row%rows, c.in)
			} else {
				v, err = c.col.Value(row % rows)
			}
			if err != nil || v.Kind() != c.col.Kind() {
				t.Fatalf("%s: row %d: %v %v", c.name, row, v, err)
			}
			row++
		}
		for i := 0; i < rows; i++ {
			fetch() // every page cached, every distinct string interned
		}
		if got := testing.AllocsPerRun(4*rows, fetch); got > c.want {
			t.Errorf("%s: %.2f objects per fetch, want at most %.0f", c.name, got, c.want)
		}
	}
}
