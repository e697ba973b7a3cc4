package delta

import (
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/value"
)

func testTable(t *testing.T) *schema.Table {
	t.Helper()
	tbl, err := schema.NewTable("T", []schema.Column{
		{Name: "ID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true},
		{Name: "Vis", Type: schema.Type{Kind: value.String}},
		{Name: "Hid", Type: schema.Type{Kind: value.String}, Hidden: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func row(id int64, vis, hid string) []value.Value {
	return []value.Value{value.NewInt(id), value.NewString(vis), value.NewString(hid)}
}

func TestDeltaLifecycle(t *testing.T) {
	arena := ram.NewArena("device", 1<<20)
	s := NewStore(arena)
	tbl := testTable(t)
	d := s.Ensure(tbl, 10)

	if d.NextID() != 11 || d.Dirty() || s.Entries() != 0 {
		t.Fatalf("fresh delta: next=%d dirty=%v entries=%d", d.NextID(), d.Dirty(), s.Entries())
	}

	// Insert continues the dense sequence.
	id, err := d.InsertAll([][]value.Value{row(11, "v", "h")})
	if err != nil || id != 11 || d.NextID() != 12 {
		t.Fatalf("insert: id=%d err=%v", id, err)
	}
	// Override shadows a base row.
	if err := d.ApplyAll([]uint32{3}, [][]value.Value{row(3, "v2", "h2")}); err != nil {
		t.Fatal(err)
	}
	if !d.Shadowed(3) || d.Shadowed(4) || d.Shadowed(11) {
		t.Fatal("shadowing wrong: base override must shadow, inserts must not")
	}
	// Delete tombstones (and drops any image).
	if err := d.DeleteAll([]uint32{5}); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteAll([]uint32{5}); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := d.DeleteAll([]uint32{11}); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Row(11); ok {
		t.Fatal("deleted insert still has an image")
	}
	if d.NextID() != 12 {
		t.Fatal("identifiers must never be reused")
	}

	if got := d.ShadowedBaseIDs(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("ShadowedBaseIDs = %v", got)
	}
	if got := d.DeltaIDs(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("DeltaIDs = %v", got)
	}
	if got := d.TombstonedIDs(); len(got) != 2 || got[0] != 5 || got[1] != 11 {
		t.Fatalf("TombstonedIDs = %v", got)
	}
	if s.Entries() != 3 { // one image + two tombstones
		t.Fatalf("entries = %d", s.Entries())
	}

	// The hidden share is charged to the arena under a delta label.
	if d.DeviceBytes() <= 0 || d.HostBytes() <= 0 {
		t.Fatalf("byte accounting: device=%d host=%d", d.DeviceBytes(), d.HostBytes())
	}
	found := false
	for _, u := range arena.Snapshot() {
		if strings.HasPrefix(u.Label, "delta:") {
			found = true
			if u.Bytes != d.DeviceBytes() {
				t.Fatalf("grant %d bytes, accounted %d", u.Bytes, d.DeviceBytes())
			}
		}
	}
	if !found {
		t.Fatal("no delta grant in the arena")
	}

	// ReleaseAll returns every byte.
	s.ReleaseAll()
	if arena.Used() != 0 {
		t.Fatalf("arena still holds %d bytes after release", arena.Used())
	}
	if s.Dirty() {
		t.Fatal("store dirty after release")
	}
}

func TestDeltaBudgetExhaustion(t *testing.T) {
	arena := ram.NewArena("device", 64) // tiny: a couple of rows at most
	s := NewStore(arena)
	d := s.Ensure(testTable(t), 2)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		_, err = d.InsertAll([][]value.Value{row(int64(3+i), "visible", "hidden-value-of-some-length")})
	}
	if err == nil {
		t.Fatal("unbounded delta never hit the RAM budget")
	}
	if !strings.Contains(err.Error(), "CHECKPOINT") {
		t.Fatalf("budget error %q should point at CHECKPOINT", err)
	}
}

func TestApplyChargesGrowth(t *testing.T) {
	arena := ram.NewArena("device", 1<<20)
	s := NewStore(arena)
	d := s.Ensure(testTable(t), 4)
	if err := d.ApplyAll([]uint32{1}, [][]value.Value{row(1, "v", "small")}); err != nil {
		t.Fatal(err)
	}
	before := d.DeviceBytes()
	// Re-updating the resident image with a larger hidden value must
	// grow the arena charge; shrinking keeps it (no refunds until
	// CHECKPOINT).
	if err := d.ApplyAll([]uint32{1}, [][]value.Value{row(1, "v", strings.Repeat("x", 300))}); err != nil {
		t.Fatal(err)
	}
	grown := d.DeviceBytes()
	if grown <= before+200 {
		t.Fatalf("device bytes %d -> %d; growth not charged", before, grown)
	}
	if arena.Used() != grown {
		t.Fatalf("arena %d, accounted %d", arena.Used(), grown)
	}
	if err := d.ApplyAll([]uint32{1}, [][]value.Value{row(1, "v", "tiny")}); err != nil {
		t.Fatal(err)
	}
	if d.DeviceBytes() != grown {
		t.Fatalf("shrinking image refunded bytes: %d -> %d", grown, d.DeviceBytes())
	}
	// A bounded arena rejects growth it cannot hold.
	tight := NewStore(ram.NewArena("device", 48))
	dt := tight.Ensure(testTable(t), 4)
	if err := dt.ApplyAll([]uint32{1}, [][]value.Value{row(1, "v", "ok")}); err != nil {
		t.Fatal(err)
	}
	if err := dt.ApplyAll([]uint32{1}, [][]value.Value{row(1, "v", strings.Repeat("x", 400))}); err == nil {
		t.Fatal("oversized re-update accepted")
	}
}

func TestInsertAllAtomic(t *testing.T) {
	arena := ram.NewArena("device", 80)
	s := NewStore(arena)
	d := s.Ensure(testTable(t), 0)
	rows := [][]value.Value{
		row(1, "a", "h1"),
		row(2, "b", strings.Repeat("x", 200)), // blows the budget
	}
	if _, err := d.InsertAll(rows); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if d.Rows() != 0 || d.NextID() != 1 {
		t.Fatalf("partial apply: rows=%d next=%d", d.Rows(), d.NextID())
	}
	if _, err := d.InsertAll([][]value.Value{row(1, "a", "h1")}); err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 1 || d.NextID() != 2 {
		t.Fatalf("after retry: rows=%d next=%d", d.Rows(), d.NextID())
	}
}
