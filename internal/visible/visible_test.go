package visible

import (
	"reflect"
	"testing"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	s := NewStore()
	tb, err := s.CreateTable("Medicine", 5)
	if err != nil {
		t.Fatal(err)
	}
	types := []value.Value{
		value.NewString("Antibiotic"), value.NewString("Vaccine"),
		value.NewString("Antibiotic"), value.NewString("Statin"),
		value.NewString("Antibiotic"),
	}
	if err := tb.AddColumn("Type", columnOf(value.String, types)); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestCreateTableValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateTable("T", 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("t", 3); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if _, err := s.CreateTable("U", -1); err == nil {
		t.Error("negative rows accepted")
	}
	if tb, ok := s.Table("T"); !ok || tb.Rows() != 3 {
		t.Error("lookup failed")
	}
	if len(s.Tables()) != 1 {
		t.Errorf("Tables() = %v", s.Tables())
	}
}

func TestAddColumnValidation(t *testing.T) {
	s := NewStore()
	tb, _ := s.CreateTable("T", 2)
	two := []value.Value{value.NewInt(1), value.NewInt(2)}
	if err := tb.AddColumn("x", columnOf(value.Int, two)); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddColumn("X", columnOf(value.Int, two)); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := tb.AddColumn("y", columnOf(value.Int, two[:1])); err == nil {
		t.Error("wrong cardinality accepted")
	}
}

func TestSelect(t *testing.T) {
	tb := newTable(t)
	ids, err := tb.Select("Type", pred.Compare(sql.OpEq, value.NewString("Antibiotic")))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []uint32{1, 3, 5}) {
		t.Errorf("Select = %v", ids)
	}
	ids, err = tb.Select("type", pred.Compare(sql.OpNe, value.NewString("Antibiotic")))
	if err != nil || !reflect.DeepEqual(ids, []uint32{2, 4}) {
		t.Errorf("Select <> = %v, %v", ids, err)
	}
	if _, err := tb.Select("Ghost", pred.Compare(sql.OpEq, value.NewInt(1))); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := tb.Select("Type", pred.Compare(sql.OpEq, value.NewInt(1))); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestValue(t *testing.T) {
	tb := newTable(t)
	v, err := tb.Value("Type", 2)
	if err != nil || v.Str() != "Vaccine" {
		t.Errorf("Value(2) = %v, %v", v, err)
	}
	if _, err := tb.Value("Type", 0); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := tb.Value("Type", 6); err == nil {
		t.Error("id past end accepted")
	}
	if _, err := tb.Value("Nope", 1); err == nil {
		t.Error("unknown column accepted")
	}
	c, ok := tb.Column("TYPE")
	if !ok || c.Kind != value.String {
		t.Error("Column lookup failed")
	}
}

func TestProjectSorted(t *testing.T) {
	tb := newTable(t)
	kvs, err := tb.ProjectSorted("Type", []uint32{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 3 || kvs[0].ID != 1 || kvs[2].Val.Str() != "Antibiotic" {
		t.Errorf("ProjectSorted = %v", kvs)
	}
	all, err := tb.ProjectSorted("Type", nil)
	if err != nil || len(all) != 5 {
		t.Errorf("nil filter = %d kvs, %v", len(all), err)
	}
	if _, err := tb.ProjectSorted("Type", []uint32{3, 1}); err == nil {
		t.Error("unsorted IDs accepted")
	}
	if _, err := tb.ProjectSorted("Type", []uint32{9}); err == nil {
		t.Error("out-of-range ID accepted")
	}
	if _, err := tb.ProjectSorted("Ghost", nil); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{[]uint32{1, 2, 3}, []uint32{2, 3, 4}, []uint32{2, 3}},
		{[]uint32{1}, []uint32{2}, nil},
		{nil, []uint32{1}, nil},
		{[]uint32{5, 9}, []uint32{5, 9}, []uint32{5, 9}},
	}
	for _, c := range cases {
		if got := IntersectSorted(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("IntersectSorted(%v, %v) = %v", c.a, c.b, got)
		}
	}
}

// columnOf packs vals, each of kind k, into a column.
func columnOf(k value.Kind, vals []value.Value) value.Column {
	c := value.MakeColumn(k, len(vals))
	for _, v := range vals {
		c.Append(v)
	}
	return c
}
