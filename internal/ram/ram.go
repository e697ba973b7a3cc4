// Package ram enforces the smart USB device's defining constraint: a tiny
// RAM budget (tens of kilobytes, per Figure 2 of the GhostDB paper).
//
// Go's garbage-collected runtime cannot dedicate a physical 64 KB heap to
// the simulated device, so the budget is enforced logically: every operator
// buffer, Bloom filter, page-cache frame and merge heap is acquired through
// an Arena, and an allocation that would exceed the budget fails with
// ErrBudget. Query operators react exactly as the real device would — by
// spilling to flash, running multi-pass algorithms, or shrinking a Bloom
// filter (raising its false-positive rate). The arena also records the
// high-water mark, which is the "RAM consumption" metric the demo GUI
// displays per plan and per operator.
package ram

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrBudget is returned when an allocation would exceed the arena budget.
var ErrBudget = errors.New("ram: budget exceeded")

// Arena is a logical allocator with a hard byte budget. The zero value is
// unusable; create arenas with NewArena. Arena is safe for concurrent use.
type Arena struct {
	name   string
	budget int64

	mu      sync.Mutex
	used    int64
	high    int64
	byLabel map[string]int64
}

// NewArena returns an arena named name with the given budget in bytes.
// A budget <= 0 means unlimited (used for the untrusted PC side and for
// the initial secure-setting bulk load).
func NewArena(name string, budget int) *Arena {
	return &Arena{name: name, budget: int64(budget), byLabel: map[string]int64{}}
}

// Budget reports the configured budget; 0 or negative means unlimited.
func (a *Arena) Budget() int64 { return a.budget }

// Used reports the bytes currently allocated.
func (a *Arena) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// High reports the high-water mark since creation or the last ResetHigh.
func (a *Arena) High() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.high
}

// Available reports how many bytes can still be allocated. For unlimited
// arenas it returns a large positive number.
func (a *Arena) Available() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget <= 0 {
		return 1 << 50
	}
	return a.budget - a.used
}

// ResetHigh sets the high-water mark to the current usage. The engine calls
// it between queries so per-plan RAM numbers don't bleed into each other.
func (a *Arena) ResetHigh() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.high = a.used
}

// Grant is a live allocation. Free it exactly once; Free on an already
// freed (or zero) grant is a no-op so defer-style cleanup is safe.
//
// A Grant is held either through the pointer Alloc returns or by value
// inside its owner (AllocInto), which saves the owner a heap object per
// reservation. The value form has one rule: a live grant must not be
// copied. The arena only counts bytes, so two copies would each free
// them; move the owner, not the grant.
type Grant struct {
	arena *Arena
	n     int64
	label string
	freed bool
}

// Alloc reserves n bytes under the given label (used in reports and error
// messages). It returns ErrBudget if the reservation would exceed the
// budget.
func (a *Arena) Alloc(n int, label string) (*Grant, error) {
	g := new(Grant)
	if err := a.AllocInto(g, n, label); err != nil {
		return nil, err
	}
	return g, nil
}

// AllocInto is Alloc with the grant written into storage the caller owns:
// a field of a stream struct, or a local freed before return. g must be
// zero or freed; on failure it is left as it was.
func (a *Arena) AllocInto(g *Grant, n int, label string) error {
	if n < 0 {
		return fmt.Errorf("ram: negative allocation %d (%s)", n, label)
	}
	if g.arena != nil && !g.freed {
		panic("ram: AllocInto over a live grant (" + g.label + ")")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 && a.used+int64(n) > a.budget {
		return fmt.Errorf("%w: %s needs %d bytes, %d of %d in use (arena %s)",
			ErrBudget, label, n, a.used, a.budget, a.name)
	}
	a.used += int64(n)
	a.byLabel[label] += int64(n)
	if a.used > a.high {
		a.high = a.used
	}
	*g = Grant{arena: a, n: int64(n), label: label}
	return nil
}

// MustAlloc is Alloc for allocations that are statically known to fit
// (e.g. a handful of bytes of operator state). It panics on failure,
// which indicates a misconfigured profile rather than a runtime condition.
func (a *Arena) MustAlloc(n int, label string) *Grant {
	g, err := a.Alloc(n, label)
	if err != nil {
		panic(err)
	}
	return g
}

// Size reports the grant's current size in bytes.
func (g *Grant) Size() int64 {
	if g == nil {
		return 0
	}
	return g.n
}

// Resize grows or shrinks the grant to n bytes, subject to the budget.
// On failure the grant keeps its previous size.
func (g *Grant) Resize(n int) error {
	if n < 0 {
		return fmt.Errorf("ram: negative resize %d (%s)", n, g.label)
	}
	a := g.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if g.freed {
		return fmt.Errorf("ram: resize of freed grant %s", g.label)
	}
	delta := int64(n) - g.n
	if a.budget > 0 && a.used+delta > a.budget {
		return fmt.Errorf("%w: resize %s to %d bytes, %d of %d in use (arena %s)",
			ErrBudget, g.label, n, a.used, a.budget, a.name)
	}
	a.used += delta
	a.byLabel[g.label] += delta
	g.n = int64(n)
	if a.used > a.high {
		a.high = a.used
	}
	return nil
}

// Free releases the grant. Safe to call more than once.
func (g *Grant) Free() {
	if g == nil || g.arena == nil || g.freed {
		return
	}
	a := g.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	g.freed = true
	a.used -= g.n
	a.byLabel[g.label] -= g.n
	if a.byLabel[g.label] <= 0 {
		delete(a.byLabel, g.label)
	}
}

// Usage describes one label's live allocation.
type Usage struct {
	Label string
	Bytes int64
}

// Snapshot returns the live allocations grouped by label, sorted by
// descending size then label for stable output.
func (a *Arena) Snapshot() []Usage {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Usage, 0, len(a.byLabel))
	for l, b := range a.byLabel {
		out = append(out, Usage{Label: l, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Label < out[j].Label
	})
	return out
}
