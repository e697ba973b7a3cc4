package ram

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocWithinBudget(t *testing.T) {
	a := NewArena("device", 100)
	g1, err := a.Alloc(40, "bloom")
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	g2, err := a.Alloc(60, "cache")
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if a.Used() != 100 || a.Available() != 0 {
		t.Errorf("Used=%d Available=%d", a.Used(), a.Available())
	}
	if _, err := a.Alloc(1, "extra"); !errors.Is(err, ErrBudget) {
		t.Errorf("over-budget alloc: %v, want ErrBudget", err)
	}
	g1.Free()
	if a.Used() != 60 {
		t.Errorf("after free Used=%d", a.Used())
	}
	g1.Free() // double free must be a no-op
	if a.Used() != 60 {
		t.Errorf("after double free Used=%d", a.Used())
	}
	g2.Free()
	if a.Used() != 0 {
		t.Errorf("final Used=%d", a.Used())
	}
	if a.High() != 100 {
		t.Errorf("High=%d, want 100", a.High())
	}
}

func TestUnlimitedArena(t *testing.T) {
	a := NewArena("pc", 0)
	g, err := a.Alloc(1<<30, "huge")
	if err != nil {
		t.Fatalf("unlimited arena refused alloc: %v", err)
	}
	if a.Available() <= 0 {
		t.Errorf("Available=%d", a.Available())
	}
	g.Free()
}

func TestResize(t *testing.T) {
	a := NewArena("device", 100)
	g, err := a.Alloc(10, "buf")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Resize(90); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if a.Used() != 90 {
		t.Errorf("Used=%d after grow", a.Used())
	}
	if err := g.Resize(200); !errors.Is(err, ErrBudget) {
		t.Errorf("over-budget resize: %v", err)
	}
	if g.Size() != 90 {
		t.Errorf("failed resize changed size to %d", g.Size())
	}
	if err := g.Resize(5); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if a.Used() != 5 {
		t.Errorf("Used=%d after shrink", a.Used())
	}
	if err := g.Resize(-1); err == nil {
		t.Error("negative resize must fail")
	}
	g.Free()
	if err := g.Resize(10); err == nil {
		t.Error("resize after free must fail")
	}
}

func TestNegativeAlloc(t *testing.T) {
	a := NewArena("device", 100)
	if _, err := a.Alloc(-1, "bad"); err == nil {
		t.Error("negative alloc must fail")
	}
}

func TestResetHigh(t *testing.T) {
	a := NewArena("device", 1000)
	g, _ := a.Alloc(500, "x")
	g.Free()
	if a.High() != 500 {
		t.Fatalf("High=%d", a.High())
	}
	a.ResetHigh()
	if a.High() != 0 {
		t.Errorf("High after reset=%d", a.High())
	}
	g2, _ := a.Alloc(100, "y")
	defer g2.Free()
	if a.High() != 100 {
		t.Errorf("High=%d after new alloc", a.High())
	}
}

func TestSnapshot(t *testing.T) {
	a := NewArena("device", 0)
	g1, _ := a.Alloc(10, "cache")
	g2, _ := a.Alloc(30, "bloom")
	g3, _ := a.Alloc(5, "cache")
	defer g1.Free()
	defer g2.Free()
	defer g3.Free()
	snap := a.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot entries = %d, want 2", len(snap))
	}
	if snap[0].Label != "bloom" || snap[0].Bytes != 30 {
		t.Errorf("snap[0] = %+v", snap[0])
	}
	if snap[1].Label != "cache" || snap[1].Bytes != 15 {
		t.Errorf("snap[1] = %+v", snap[1])
	}
}

func TestMustAllocPanicsOverBudget(t *testing.T) {
	a := NewArena("device", 10)
	defer func() {
		if recover() == nil {
			t.Error("MustAlloc over budget must panic")
		}
	}()
	a.MustAlloc(11, "boom")
}

func TestQuickAccountingBalances(t *testing.T) {
	// Allocate a random set of sizes, free them all, arena must return to 0
	// and the high-water mark must equal the running peak.
	f := func(sizes []uint16) bool {
		a := NewArena("q", 0)
		var grants []*Grant
		var cur, peak int64
		for _, s := range sizes {
			g, err := a.Alloc(int(s), "g")
			if err != nil {
				return false
			}
			grants = append(grants, g)
			cur += int64(s)
			if cur > peak {
				peak = cur
			}
		}
		if a.High() != peak {
			return false
		}
		for _, g := range grants {
			g.Free()
		}
		return a.Used() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAllocIntoByValueGrant: a grant held by value in its owner accounts
// exactly as one held by pointer, fails with the same text, and frees once.
func TestAllocIntoByValueGrant(t *testing.T) {
	a := NewArena("dev", 100)
	var zero Grant
	zero.Free() // a stream that never opened
	if a.Used() != 0 {
		t.Fatalf("freeing a zero grant moved the arena: used=%d", a.Used())
	}

	var owner struct{ g Grant }
	if err := a.AllocInto(&owner.g, 60, "list-stream"); err != nil {
		t.Fatal(err)
	}
	if a.Used() != 60 || a.High() != 60 || owner.g.Size() != 60 {
		t.Fatalf("used=%d high=%d size=%d", a.Used(), a.High(), owner.g.Size())
	}
	if snap := a.Snapshot(); len(snap) != 1 || snap[0] != (Usage{"list-stream", 60}) {
		t.Fatalf("snapshot = %v", snap)
	}

	var second Grant
	errInto := a.AllocInto(&second, 50, "run-stream")
	_, errPtr := a.Alloc(50, "run-stream")
	if !errors.Is(errInto, ErrBudget) || errInto.Error() != errPtr.Error() {
		t.Fatalf("AllocInto: %v\nAlloc:     %v", errInto, errPtr)
	}
	second.Free() // the failed reservation left it zero
	if a.Used() != 60 {
		t.Fatalf("used=%d after a failed AllocInto", a.Used())
	}

	owner.g.Free()
	owner.g.Free()
	if a.Used() != 0 || len(a.Snapshot()) != 0 {
		t.Fatalf("used=%d snapshot=%v after Free", a.Used(), a.Snapshot())
	}
	if err := a.AllocInto(&owner.g, 10, "list-stream"); err != nil { // a freed grant is reusable storage
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AllocInto over a live grant went through: its bytes would never be freed")
		}
	}()
	_ = a.AllocInto(&owner.g, 10, "list-stream")
}
