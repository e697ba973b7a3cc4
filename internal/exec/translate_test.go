package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// translateFixture builds a two-level schema (Child <- Parent) with a
// dense translator index on Child's key: child c is referenced by parents
// {3c-2, 3c-1, 3c} — each child maps to three parents.
func translateFixture(t *testing.T, children int) (*Env, *climbing.Index) {
	t.Helper()
	e := newEnv(t)
	return e, translateFixtureOn(t, e, children)
}

// translateFixtureOn builds translateFixture's index on an existing device.
func translateFixtureOn(t testing.TB, e *Env, children int) *climbing.Index {
	t.Helper()
	st, err := store.New(e.Dev)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.New()
	child, err := schema.NewTable("Child", []schema.Column{
		{Name: "CID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(child); err != nil {
		t.Fatal(err)
	}
	parent, err := schema.NewTable("Parent", []schema.Column{
		{Name: "PID", Type: schema.Type{Kind: value.Int}, PrimaryKey: true},
		{Name: "CID", Type: schema.Type{Kind: value.Int}, RefTable: "Child"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.AddTable(parent); err != nil {
		t.Fatal(err)
	}
	if err := sch.Freeze(); err != nil {
		t.Fatal(err)
	}
	inv := func(p, c string) ([][]uint32, error) {
		if p != "Parent" || c != "Child" {
			return nil, fmt.Errorf("unexpected edge %s<-%s", p, c)
		}
		out := make([][]uint32, children)
		for i := range out {
			base := uint32(3 * i)
			out[i] = []uint32{base + 1, base + 2, base + 3}
		}
		return out, nil
	}
	vals := make([]value.Value, children)
	for i := range vals {
		vals[i] = value.NewInt(int64(i + 1))
	}
	ix, err := climbing.Build(st, sch, "Child", "CID", columnOf(value.Int, vals), true, inv)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func expectedParents(childIDs []uint32) []uint32 {
	var out []uint32
	for _, c := range childIDs {
		base := (c - 1) * 3
		out = append(out, base+1, base+2, base+3)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestTranslateSmallInput(t *testing.T) {
	e, ix := translateFixture(t, 100)
	in := []uint32{2, 50, 99}
	it, err := e.TranslateBatch(&sliceBatch{ids: in}, ix, 1, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, expectedParents(in)) {
		t.Errorf("translate = %v", got)
	}
}

func TestTranslateSpillsLargeInput(t *testing.T) {
	e, ix := translateFixture(t, 2000)
	in := make([]uint32, 0, 1000)
	for c := uint32(1); c <= 2000; c += 2 {
		in = append(in, c)
	}
	progsBefore := e.Dev.Flash.Stats().PagesProgrammed
	// fanin 4 forces hundreds of batch spills plus recursive merging.
	it, err := e.TranslateBatch(&sliceBatch{ids: in}, ix, 1, 4, op())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, expectedParents(in)) {
		t.Fatalf("translate returned %d ids, want %d", len(got), len(expectedParents(in)))
	}
	if e.Dev.Flash.Stats().PagesProgrammed == progsBefore {
		t.Error("large translate should have spilled to scratch")
	}
	if e.Dev.RAM.Used() >= e.Dev.RAM.Budget() {
		t.Error("arena left exhausted")
	}
}

func TestTranslateMissingAndEmptyInputs(t *testing.T) {
	e, ix := translateFixture(t, 10)
	// IDs outside the dictionary are skipped, not errors.
	it, err := e.TranslateBatch(&sliceBatch{ids: []uint32{0, 5, 11, 100}}, ix, 1, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []uint32{13, 14, 15}) {
		t.Errorf("translate = %v", got)
	}
	// Empty input yields an empty stream.
	it, err = e.TranslateBatch(EmptyBatch(), ix, 1, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := CollectBatch(it); got != nil {
		t.Errorf("empty translate = %v", got)
	}
}

func TestTranslateOwnLevelIsIdentity(t *testing.T) {
	e, ix := translateFixture(t, 20)
	in := []uint32{3, 7, 19}
	it, err := e.TranslateBatch(&sliceBatch{ids: in}, ix, 0, 8, op())
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatch(it)
	if err != nil || !reflect.DeepEqual(got, in) {
		t.Errorf("own-level translate = %v, %v", got, err)
	}
}
