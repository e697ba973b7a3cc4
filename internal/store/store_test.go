package store

import (
	"reflect"
	"testing"
	"testing/quick"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/value"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	dev, err := device.New(device.SmartUSB2007(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewChargesCacheRAM(t *testing.T) {
	dev, err := device.New(device.SmartUSB2007(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := dev.RAM.Used()
	s, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	wantCache := int64(dev.Profile.CacheFrames * dev.Profile.Flash.PageSize)
	if dev.RAM.Used()-before != wantCache {
		t.Errorf("cache charged %d bytes, want %d", dev.RAM.Used()-before, wantCache)
	}
	if s.Cache() == nil || s.Device() != dev {
		t.Error("accessors broken")
	}

	// A profile whose cache cannot fit must fail cleanly.
	p := device.SmartUSB2007()
	p.RAMBudget = p.Flash.PageSize * p.CacheFrames // validation already rejects this
	if err := p.Validate(); err == nil {
		t.Error("profile with cache-sized RAM accepted")
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.CreateTable("Visit", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("visit", 5); err == nil {
		t.Error("case-insensitive duplicate accepted")
	}
	if _, err := s.CreateTable("Neg", -1); err == nil {
		t.Error("negative rows accepted")
	}
	td, ok := s.Table("VISIT")
	if !ok || td.Rows() != 10 {
		t.Errorf("Table lookup: %v %v", td, ok)
	}
	if _, ok := s.Table("ghost"); ok {
		t.Error("phantom table")
	}
}

func TestFixedColumnRoundTrip(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.CreateTable("T", 5); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		kind value.Kind
		vals []value.Value
	}{
		{"ints", value.Int, []value.Value{
			value.NewInt(0), value.NewInt(-5), value.NewInt(1 << 40),
			value.NewInt(42), value.NewInt(-1 << 40)}},
		{"dates", value.Date, []value.Value{
			value.NewDate(1970, 1, 1), value.NewDate(2006, 11, 5),
			value.NewDate(2007, 9, 23), value.NewDate(1969, 12, 31),
			value.NewDate(2100, 6, 15)}},
		{"floats", value.Float, []value.Value{
			value.NewFloat(0), value.NewFloat(-2.5), value.NewFloat(3.14),
			value.NewFloat(1e300), value.NewFloat(-1e-300)}},
		{"bools", value.Bool, []value.Value{
			value.NewBool(true), value.NewBool(false), value.NewBool(true),
			value.NewBool(true), value.NewBool(false)}},
	}
	for _, c := range cases {
		col, err := s.AddColumn("T", c.name, columnOf(c.kind, c.vals))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if col.Kind() != c.kind || col.Len() != 5 {
			t.Errorf("%s: kind/len wrong", c.name)
		}
		if col.Bytes() <= 0 {
			t.Errorf("%s: zero footprint", c.name)
		}
		for i, want := range c.vals {
			got, err := col.Value(i)
			if err != nil {
				t.Fatalf("%s[%d]: %v", c.name, i, err)
			}
			if got != want {
				t.Errorf("%s[%d] = %v, want %v", c.name, i, got, want)
			}
		}
		if _, err := col.Value(5); err == nil {
			t.Errorf("%s: out-of-range read accepted", c.name)
		}
		if _, err := col.Value(-1); err == nil {
			t.Errorf("%s: negative read accepted", c.name)
		}
	}
}

// TestDecodeColumnRoundTrip holds the image decoder recovery uses to the
// column files AddColumn writes, kind by kind, and to their extents.
func TestDecodeColumnRoundTrip(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.CreateTable("T", 3); err != nil {
		t.Fatal(err)
	}
	cols := []value.Column{
		columnOf(value.Int, []value.Value{value.NewInt(-7), value.NewInt(0), value.NewInt(1 << 40)}),
		columnOf(value.Date, []value.Value{value.NewDate(1969, 12, 31), value.NewDate(2006, 11, 5), value.NewDateDays(0)}),
		columnOf(value.Float, []value.Value{value.NewFloat(-2.5), value.NewFloat(0), value.NewFloat(1e300)}),
		columnOf(value.Bool, []value.Value{value.NewBool(true), value.NewBool(false), value.NewBool(true)}),
		columnOf(value.String, []value.Value{value.NewString(""), value.NewString("Sclerosis"), value.NewString("x")}),
	}
	for i, want := range cols {
		col, err := s.AddColumn("T", itoa(i), want)
		if err != nil {
			t.Fatal(err)
		}
		var off, data flash.Extent
		switch col := col.(type) {
		case *FixedColumn:
			off = col.Extent()
		case *VarColumn:
			off, data = col.Extents()
		}
		img, err := s.Device().Flash.Image()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeColumn(img, want.Kind, 3, off, data)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, %v; want %+v", want.Kind, got, err, want)
		}
		if _, err := DecodeColumn(img, want.Kind, 1<<20, off, data); err == nil {
			t.Errorf("%s: extent short of the rows accepted", want.Kind)
		}
	}
}

func TestVarColumnRoundTrip(t *testing.T) {
	s := newTestStore(t)
	vals := []value.Value{
		value.NewString("Sclerosis"),
		value.NewString(""),
		value.NewString("a much longer purpose string that spans bytes"),
		value.NewString("Checkup"),
	}
	if _, err := s.CreateTable("Visit", len(vals)); err != nil {
		t.Fatal(err)
	}
	col, err := s.AddColumn("Visit", "Purpose", columnOf(value.String, vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got, err := col.Value(i)
		if err != nil || got != want {
			t.Errorf("[%d] = %v, %v; want %v", i, got, err, want)
		}
	}
	if _, err := col.Value(len(vals)); err == nil {
		t.Error("out-of-range read accepted")
	}
}

func TestAddColumnValidation(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.CreateTable("T", 2); err != nil {
		t.Fatal(err)
	}
	vals2 := []value.Value{value.NewInt(1), value.NewInt(2)}
	if _, err := s.AddColumn("Ghost", "c", columnOf(value.Int, vals2)); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := s.AddColumn("T", "c", columnOf(value.Int, vals2[:1])); err == nil {
		t.Error("row count mismatch accepted")
	}
	if _, err := s.AddColumn("T", "c", columnOf(value.Int, vals2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddColumn("T", "C", columnOf(value.Int, vals2)); err == nil {
		t.Error("case-insensitive duplicate column accepted")
	}
	td, _ := s.Table("T")
	if _, ok := td.Column("c"); !ok {
		t.Error("column lookup failed")
	}
	if len(td.ColumnNames()) != 1 {
		t.Errorf("ColumnNames = %v", td.ColumnNames())
	}
}

func TestIDColumn(t *testing.T) {
	s := newTestStore(t)
	ids := []uint32{5, 1, 7, 7, 1 << 30}
	col, err := s.BuildIDColumn(ids)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != len(ids) || col.Bytes() != int64(4*len(ids)) {
		t.Errorf("len=%d bytes=%d", col.Len(), col.Bytes())
	}
	for i, want := range ids {
		got, err := col.Get(i)
		if err != nil || got != want {
			t.Errorf("Get(%d) = %d, %v", i, got, err)
		}
	}
	if _, err := col.Get(len(ids)); err == nil {
		t.Error("out-of-range Get accepted")
	}
	if col.Extent().Len != int64(4*len(ids)) {
		t.Errorf("extent %+v", col.Extent())
	}
}

func TestSortedAccessHitsCache(t *testing.T) {
	s := newTestStore(t)
	n := 4096 // 16 KB of IDs = 8 pages
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	col, err := s.BuildIDColumn(ids)
	if err != nil {
		t.Fatal(err)
	}
	s.Cache().ResetStats()
	for i := 0; i < n; i++ {
		if _, err := col.Get(i); err != nil {
			t.Fatal(err)
		}
	}
	// A sequential scan should miss once per page, not once per element.
	pages := int64(n*4) / int64(s.Device().Profile.Flash.PageSize)
	if misses := s.Cache().Misses(); misses != pages {
		t.Errorf("sequential scan missed %d times, want %d", misses, pages)
	}
}

func TestFootprintGrows(t *testing.T) {
	s := newTestStore(t)
	before := s.FootprintBytes()
	if _, err := s.CreateTable("T", 1000); err != nil {
		t.Fatal(err)
	}
	vals := make([]value.Value, 1000)
	for i := range vals {
		vals[i] = value.NewInt(int64(i))
	}
	if _, err := s.AddColumn("T", "c", columnOf(value.Int, vals)); err != nil {
		t.Fatal(err)
	}
	if s.FootprintBytes() <= before {
		t.Error("footprint did not grow")
	}
}

func TestQuickFixedIntColumn(t *testing.T) {
	s := newTestStore(t)
	counter := 0
	f := func(raw []int64) bool {
		counter++
		vals := make([]value.Value, len(raw))
		for i, x := range raw {
			vals[i] = value.NewInt(x)
		}
		name := "t" + itoa(counter)
		if _, err := s.CreateTable(name, len(vals)); err != nil {
			return false
		}
		col, err := s.AddColumn(name, "c", columnOf(value.Int, vals))
		if err != nil {
			return false
		}
		for i, want := range vals {
			got, err := col.Value(i)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

// columnOf packs vals, each of kind k, into a column.
func columnOf(k value.Kind, vals []value.Value) value.Column {
	c := value.MakeColumn(k, len(vals))
	for _, v := range vals {
		c.Append(v)
	}
	return c
}
