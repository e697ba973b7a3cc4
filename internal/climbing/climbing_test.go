package climbing

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// fixture: the Figure 3 tree with the same tiny data as the skt tests.
//
//	Visit (4): DocID=[1,2,1,2] PatID=[1,2,3,1]  Purpose=[Checkup,Sclerosis,Sclerosis,Flu]
//	Prescription (6): VisID=[1,1,2,3,4,4]
//
// Inverted edges:
//
//	Visit->Doctor:  doc1 -> vis{1,3}, doc2 -> vis{2,4}
//	Pre->Visit:     vis1 -> pre{1,2}, vis2 -> pre{3}, vis3 -> pre{4}, vis4 -> pre{5,6}
type fixture struct {
	st  *store.Store
	sch *schema.Schema
	inv map[string][][]uint32
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	dev, err := device.New(device.SmartUSB2007(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.New()
	pk := func(n string) schema.Column {
		return schema.Column{Name: n, Type: schema.Type{Kind: value.Int}, PrimaryKey: true}
	}
	fk := func(n, ref string) schema.Column {
		return schema.Column{Name: n, Type: schema.Type{Kind: value.Int}, RefTable: ref}
	}
	mk := func(name string, cols ...schema.Column) {
		tb, err := schema.NewTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	mk("Doctor", pk("DocID"), schema.Column{Name: "Country", Type: schema.Type{Kind: value.String}})
	mk("Patient", pk("PatID"))
	mk("Medicine", pk("MedID"))
	mk("Visit", pk("VisID"), fk("DocID", "Doctor"), fk("PatID", "Patient"),
		schema.Column{Name: "Purpose", Type: schema.Type{Kind: value.String}, Hidden: true})
	mk("Prescription", pk("PreID"), fk("MedID", "Medicine"), fk("VisID", "Visit"))
	if err := sch.Freeze(); err != nil {
		t.Fatal(err)
	}
	return &fixture{
		st:  st,
		sch: sch,
		inv: map[string][][]uint32{
			"Visit->Doctor":          {{1, 3}, {2, 4}},
			"Visit->Patient":         {{1, 4}, {2}, {3}},
			"Prescription->Visit":    {{1, 2}, {3}, {4}, {5, 6}},
			"Prescription->Medicine": {{1, 3, 5}, {2, 4, 6}},
		},
	}
}

func (f *fixture) inverted(parent, child string) ([][]uint32, error) {
	iv, ok := f.inv[parent+"->"+child]
	if !ok {
		return nil, fmt.Errorf("no inverted edge %s->%s", parent, child)
	}
	return iv, nil
}

func strv(s string) value.Value { return value.NewString(s) }

func TestBuildAndLookupEqOnVisitPurpose(t *testing.T) {
	f := newFixture(t)
	vals := []value.Value{strv("Checkup"), strv("Sclerosis"), strv("Sclerosis"), strv("Flu")}
	ix, err := Build(f.st, f.sch, "Visit", "Purpose", columnOf(value.String, vals), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Levels; !reflect.DeepEqual(got, []string{"Visit", "Prescription"}) {
		t.Fatalf("Levels = %v", got)
	}
	if ix.DistinctValues() != 3 {
		t.Errorf("DistinctValues = %d", ix.DistinctValues())
	}
	if ix.LevelOf("prescription") != 1 || ix.LevelOf("Doctor") != -1 {
		t.Error("LevelOf wrong")
	}
	if ix.Bytes() <= 0 || ix.Kind() != value.String || ix.Dense() {
		t.Error("metadata wrong")
	}

	e, ok, err := ix.LookupEq(strv("Sclerosis"))
	if err != nil || !ok {
		t.Fatalf("LookupEq: %v %v", ok, err)
	}
	visIDs, err := ix.ReadList(e.Lists[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(visIDs, []uint32{2, 3}) {
		t.Errorf("VisID list = %v", visIDs)
	}
	// Climb: vis2 -> pre{3}, vis3 -> pre{4}.
	preIDs, err := ix.ReadList(e.Lists[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preIDs, []uint32{3, 4}) {
		t.Errorf("PreID list = %v", preIDs)
	}
	if e.Lists[0].Count != 2 || e.Lists[1].Count != 2 {
		t.Errorf("counts = %v", e.Lists)
	}

	if _, ok, err := ix.LookupEq(strv("Oncology")); err != nil || ok {
		t.Errorf("missing value: ok=%v err=%v", ok, err)
	}
}

func TestLookupOnLeafClimbsTwoLevels(t *testing.T) {
	f := newFixture(t)
	vals := []value.Value{strv("France"), strv("Spain")}
	ix, err := Build(f.st, f.sch, "Doctor", "Country", columnOf(value.String, vals), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix.Levels, []string{"Doctor", "Visit", "Prescription"}) {
		t.Fatalf("Levels = %v", ix.Levels)
	}
	e, ok, err := ix.LookupEq(strv("Spain"))
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Spain -> doc{2} -> vis{2,4} -> pre{3,5,6}.
	for lvl, want := range [][]uint32{{2}, {2, 4}, {3, 5, 6}} {
		got, err := ix.ReadList(e.Lists[lvl])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("level %d = %v, want %v", lvl, got, want)
		}
	}
}

func TestDenseTranslatorIndex(t *testing.T) {
	f := newFixture(t)
	// Climbing index on Visit.VisID: the key translator used by
	// pre-filtering ("transforming these lists into lists of PreID
	// thanks to the climbing index on Vis.VisID").
	vals := []value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4)}
	ix, err := Build(f.st, f.sch, "Visit", "VisID", columnOf(value.Int, vals), true, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if !ix.Dense() {
		t.Fatal("not dense")
	}
	e, ok, err := ix.LookupEq(value.NewInt(4))
	if err != nil || !ok {
		t.Fatal(err)
	}
	pre, err := ix.ReadList(e.Lists[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre, []uint32{5, 6}) {
		t.Errorf("vis4 -> pre %v", pre)
	}
	// Out of range IDs simply miss.
	if _, ok, _ := ix.LookupEq(value.NewInt(0)); ok {
		t.Error("ID 0 found")
	}
	if _, ok, _ := ix.LookupEq(value.NewInt(5)); ok {
		t.Error("ID 5 found")
	}
	// A key is looked up by an integer.
	if _, _, err := ix.LookupEq(value.NewFloat(4)); err == nil {
		t.Error("float lookup on the dense key accepted")
	}
}

func TestRangeQueries(t *testing.T) {
	f := newFixture(t)
	// Index over Prescription.Quantity values (root table: single level).
	vals := []value.Value{
		value.NewInt(10), value.NewInt(20), value.NewInt(30),
		value.NewInt(20), value.NewInt(40), value.NewInt(10),
	}
	ix, err := Build(f.st, f.sch, "Prescription", "Quantity", columnOf(value.Int, vals), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix.Levels, []string{"Prescription"}) {
		t.Fatalf("root index levels = %v", ix.Levels)
	}

	collect := func(lo, hi *Bound) []int64 {
		t.Helper()
		it, err := ix.Range(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for {
			e, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return out
			}
			out = append(out, e.Value.Int())
		}
	}

	if got := collect(nil, nil); !reflect.DeepEqual(got, []int64{10, 20, 30, 40}) {
		t.Errorf("full scan = %v", got)
	}
	if got := collect(&Bound{V: value.NewInt(20), Inclusive: true}, nil); !reflect.DeepEqual(got, []int64{20, 30, 40}) {
		t.Errorf(">=20 = %v", got)
	}
	if got := collect(&Bound{V: value.NewInt(20), Inclusive: false}, nil); !reflect.DeepEqual(got, []int64{30, 40}) {
		t.Errorf(">20 = %v", got)
	}
	if got := collect(nil, &Bound{V: value.NewInt(30), Inclusive: true}); !reflect.DeepEqual(got, []int64{10, 20, 30}) {
		t.Errorf("<=30 = %v", got)
	}
	if got := collect(nil, &Bound{V: value.NewInt(30), Inclusive: false}); !reflect.DeepEqual(got, []int64{10, 20}) {
		t.Errorf("<30 = %v", got)
	}
	if got := collect(&Bound{V: value.NewInt(15), Inclusive: true}, &Bound{V: value.NewInt(35), Inclusive: true}); !reflect.DeepEqual(got, []int64{20, 30}) {
		t.Errorf("between = %v", got)
	}
	if got := collect(&Bound{V: value.NewInt(50), Inclusive: true}, nil); got != nil {
		t.Errorf("empty range = %v", got)
	}

	n, err := ix.CountRange(&Bound{V: value.NewInt(10), Inclusive: true}, &Bound{V: value.NewInt(20), Inclusive: true}, 0)
	if err != nil || n != 4 {
		t.Errorf("CountRange = %d, %v; want 4", n, err)
	}
	if _, err := ix.CountRange(nil, nil, 5); err == nil {
		t.Error("bad level accepted")
	}
}

func TestDateColumnWithStringLiterals(t *testing.T) {
	f := newFixture(t)
	vals := []value.Value{
		value.NewDate(2006, 1, 10), value.NewDate(2006, 11, 20),
		value.NewDate(2007, 2, 1), value.NewDate(2006, 11, 20),
	}
	ix, err := Build(f.st, f.sch, "Visit", "Date", columnOf(value.Date, vals), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	// Query literal arrives as a string; Coerce handles it.
	e, ok, err := ix.LookupEq(value.NewString("2006-11-20"))
	if err != nil || !ok {
		t.Fatalf("string literal lookup: %v %v", ok, err)
	}
	ids, _ := ix.ReadList(e.Lists[0])
	if !reflect.DeepEqual(ids, []uint32{2, 4}) {
		t.Errorf("ids = %v", ids)
	}
	it, err := ix.Range(&Bound{V: value.NewString("05-11-2006"), Inclusive: false}, nil)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		count++
	}
	if count != 2 { // 2006-11-20 and 2007-02-01
		t.Errorf("Date > 05-11-2006 matched %d distinct dates, want 2", count)
	}
}

func TestBuildErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := Build(f.st, f.sch, "Ghost", "X", columnOf(value.Int, nil), false, f.inverted); err == nil {
		t.Error("unknown table accepted")
	}
	badInv := func(parent, child string) ([][]uint32, error) { return nil, fmt.Errorf("boom") }
	if _, err := Build(f.st, f.sch, "Visit", "Purpose", columnOf(value.String,
		[]value.Value{strv("a"), strv("b"), strv("c"), strv("d")}), false, badInv); err == nil {
		t.Error("broken inverted lookup accepted")
	}
}

func TestLookupKindMismatch(t *testing.T) {
	f := newFixture(t)
	ix, err := Build(f.st, f.sch, "Prescription", "Quantity", columnOf(value.Int,
		[]value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3),
			value.NewInt(4), value.NewInt(5), value.NewInt(6)}), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.LookupEq(strv("nope")); err == nil {
		t.Error("string lookup on INTEGER index accepted")
	}
	if _, err := ix.Range(&Bound{V: strv("x"), Inclusive: true}, nil); err == nil {
		t.Error("string range on INTEGER index accepted")
	}
}

func TestEntryBounds(t *testing.T) {
	f := newFixture(t)
	ix, err := Build(f.st, f.sch, "Prescription", "Quantity", columnOf(value.Int,
		[]value.Value{value.NewInt(1), value.NewInt(1), value.NewInt(1),
			value.NewInt(1), value.NewInt(1), value.NewInt(1)}), false, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.entry(-1, nil); err == nil {
		t.Error("negative entry accepted")
	}
	if _, err := ix.entry(1, nil); err == nil {
		t.Error("entry past end accepted")
	}
	e, err := ix.entry(0, nil)
	if err != nil || e.Lists[0].Count != 6 {
		t.Errorf("entry(0) = %+v, %v", e, err)
	}
}

func TestSingletonListsStream(t *testing.T) {
	f := newFixture(t)
	ix, err := Build(f.st, f.sch, "Visit", "VisID", columnOf(value.Int,
		[]value.Value{value.NewInt(1), value.NewInt(2), value.NewInt(3), value.NewInt(4)}),
		true, f.inverted)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 4; id++ {
		e, ok, err := ix.LookupEq(value.NewInt(int64(id)))
		if err != nil || !ok {
			t.Fatal(err)
		}
		own, err := ix.ReadList(e.Lists[0])
		if err != nil || len(own) != 1 || own[0] != id {
			t.Errorf("own list of %d = %v, %v", id, own, err)
		}
		d := ix.OpenList(e.Lists[1])
		prev := uint32(0)
		for {
			got, ok, err := d.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if got <= prev {
				t.Errorf("list not strictly sorted: %d after %d", got, prev)
			}
			prev = got
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
