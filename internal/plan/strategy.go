package plan

import (
	"fmt"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/sim"
)

// Strategy selects how one predicate is evaluated.
type Strategy uint8

// Strategies. Visible predicates choose between VisPre, VisPost and —
// when the device carries a climbing index on the visible column, as
// Figure 4's Doctor.Country index illustrates — VisDevice, which
// evaluates the predicate entirely inside the device with zero bus
// traffic. Hidden predicates choose between HidIndex and HidPost (the
// latter is the late-materialization ablation: fetch the attribute per
// candidate row).
const (
	StratAuto Strategy = iota
	StratVisPre
	StratVisPost
	StratVisDevice
	StratHidIndex
	StratHidPost
)

func (s Strategy) String() string {
	switch s {
	case StratAuto:
		return "auto"
	case StratVisPre:
		return "pre-filter"
	case StratVisPost:
		return "post-filter"
	case StratVisDevice:
		return "device-index"
	case StratHidIndex:
		return "climbing-index"
	case StratHidPost:
		return "hidden-post"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Spec is one concrete plan: a strategy per predicate (aligned with
// Query.Preds) plus the cross-filtering switch.
type Spec struct {
	Label       string
	Strategies  []Strategy
	CrossFilter bool
}

// Clone returns a deep copy.
func (s Spec) Clone() Spec {
	out := s
	out.Strategies = append([]Strategy(nil), s.Strategies...)
	return out
}

// Describe renders the spec compactly, e.g.
// "P3[Vis.Date:post Med.Type:pre Vis.Purpose:index cross]".
func (s Spec) Describe(q *Query) string {
	var parts []string
	for i, st := range s.Strategies {
		parts = append(parts, fmt.Sprintf("%s:%s", q.Preds[i].Col, short(st)))
	}
	if s.CrossFilter {
		parts = append(parts, "cross")
	}
	return fmt.Sprintf("%s[%s]", s.Label, strings.Join(parts, " "))
}

func short(s Strategy) string {
	switch s {
	case StratVisPre:
		return "pre"
	case StratVisPost:
		return "post"
	case StratVisDevice:
		return "device"
	case StratHidIndex:
		return "index"
	case StratHidPost:
		return "hpost"
	}
	return "auto"
}

// Validate checks the spec against the query: visible predicates must use
// visible strategies, hidden predicates hidden strategies.
func (s Spec) Validate(q *Query, hasIndex func(table, column string) bool) error {
	if len(s.Strategies) != len(q.Preds) {
		return fmt.Errorf("plan: %d strategies for %d predicates", len(s.Strategies), len(q.Preds))
	}
	for i, st := range s.Strategies {
		p := q.Preds[i]
		switch st {
		case StratVisPre, StratVisPost:
			if p.Hidden() {
				return fmt.Errorf("plan: %s is hidden; %s is not allowed", p.Col, st)
			}
			if st == StratVisPre && p.Col.Table != q.Root.Name && !hasIndex(p.Col.Table, pkColumn(q, p.Col.Table)) {
				return fmt.Errorf("plan: pre-filtering %s needs a climbing index on %s's key", p.Col, p.Col.Table)
			}
		case StratVisDevice:
			if p.Hidden() {
				return fmt.Errorf("plan: %s is hidden; %s is not allowed", p.Col, st)
			}
			if !hasIndex(p.Col.Table, p.Col.Column) {
				return fmt.Errorf("plan: no device climbing index on %s", p.Col)
			}
		case StratHidIndex:
			if !p.Hidden() {
				return fmt.Errorf("plan: %s is visible; %s is not allowed", p.Col, st)
			}
			if !hasIndex(p.Col.Table, p.Col.Column) {
				return fmt.Errorf("plan: no climbing index on %s", p.Col)
			}
		case StratHidPost:
			if !p.Hidden() {
				return fmt.Errorf("plan: %s is visible; %s is not allowed", p.Col, st)
			}
		default:
			return fmt.Errorf("plan: predicate %d has unresolved strategy", i)
		}
	}
	return nil
}

// pkColumn names the primary key column of a table, under which the
// engine registers the table's translator index.
func pkColumn(q *Query, table string) string {
	t, ok := q.Schema.Table(table)
	if !ok {
		return ""
	}
	return t.PrimaryKey().Name
}

// Enumerate produces every concrete plan for the query: each visible
// predicate tries pre- and post-filtering; hidden predicates use their
// climbing index when available (falling back to hidden-post), and the
// whole plan is tried with and without cross-filtering when it has any
// pre-filtered predicate on a non-root table or any hidden predicate
// below the root. Plans are labeled P1, P2, ...
func Enumerate(q *Query, hasIndex func(table, column string) bool) []Spec {
	base := make([]Strategy, len(q.Preds))
	var visible []int
	for i, p := range q.Preds {
		if p.Hidden() {
			if hasIndex(p.Col.Table, p.Col.Column) {
				base[i] = StratHidIndex
			} else {
				base[i] = StratHidPost
			}
		} else {
			visible = append(visible, i)
		}
	}
	// Per visible predicate: the feasible strategy options. Post always
	// works; pre needs the table's key translator (or the root table);
	// device-index needs a climbing index on the visible column itself.
	options := make([][]Strategy, len(visible))
	for bit, predIdx := range visible {
		p := q.Preds[predIdx]
		opts := []Strategy{StratVisPost}
		if p.Col.Table == q.Root.Name || hasIndex(p.Col.Table, pkColumn(q, p.Col.Table)) {
			opts = append(opts, StratVisPre)
		}
		if hasIndex(p.Col.Table, p.Col.Column) {
			opts = append(opts, StratVisDevice)
		}
		options[bit] = opts
	}

	var specs []Spec
	var walk func(bit int, strat []Strategy)
	walk = func(bit int, strat []Strategy) {
		if bit == len(visible) {
			crossOptions := []bool{false}
			if crossUseful(q, strat) {
				crossOptions = []bool{false, true}
			}
			for _, cross := range crossOptions {
				specs = append(specs, Spec{
					Label:       fmt.Sprintf("P%d", len(specs)+1),
					Strategies:  append([]Strategy(nil), strat...),
					CrossFilter: cross,
				})
			}
			return
		}
		for _, opt := range options[bit] {
			strat[visible[bit]] = opt
			walk(bit+1, strat)
		}
	}
	walk(0, append([]Strategy(nil), base...))
	return specs
}

// crossUseful reports whether cross-filtering can change the plan: it
// needs at least two pre-integrated contributions that can meet below the
// root — either on the same non-root table, or on two tables where one
// lies on the other's climbing path (the intersection then happens at the
// shallower table before the final translation).
func crossUseful(q *Query, strat []Strategy) bool {
	var tables []string
	for i, st := range strat {
		if st == StratVisPre || st == StratHidIndex || st == StratVisDevice {
			t := q.Preds[i].Col.Table
			if t != q.Root.Name {
				tables = append(tables, t)
			}
		}
	}
	for i, a := range tables {
		for _, b := range tables[i+1:] {
			if strings.EqualFold(a, b) || q.Schema.IsAncestor(a, b) || q.Schema.IsAncestor(b, a) {
				return true
			}
		}
	}
	return false
}

// CostInputs feeds the cost model with the statistics GhostDB actually
// has at optimization time: exact visible counts (the PC computes them
// for free), exact hidden index counts (dictionary statistics), table
// cardinalities and the hardware profile.
type CostInputs struct {
	// Per predicate (aligned with Query.Preds): matching rows in the
	// predicate's own table. Exact for visible predicates and for
	// indexed hidden predicates; -1 when unknown (hidden-post), which
	// the model treats as half the table.
	Counts []int
	// TableRows maps table name to cardinality.
	TableRows map[string]int
	// Device profile and bus profile in effect.
	Profile device.Profile
	Bus     bus.Profile
	// AvgValueBytes estimates one projected value on the wire.
	AvgValueBytes int
}

// Estimate predicts the simulated execution time of the spec. The model
// counts the dominant terms of the device cost model: bus transfers,
// climbing-index list reads, translation heap work and spill passes, SKT
// lookups, per-candidate Bloom probing (CPU-heavy on a 50 MHz core),
// sorts and verification/projection merges. It exists to rank plans, not
// to predict absolute times.
func Estimate(q *Query, spec Spec, in CostInputs) time.Duration {
	p := in.Profile
	pageRead := p.Flash.ReadFixed + time.Duration(p.Flash.PageSize)*p.Flash.ReadPerByte
	pageProg := p.Flash.ProgFixed + time.Duration(p.Flash.PageSize)*p.Flash.ProgPerByte
	cpu := func(cycles float64) time.Duration {
		return time.Duration(cycles / p.CPUHz * float64(time.Second))
	}
	busBytes := func(n int) time.Duration {
		msgs := (n + p.BusChunkBytes - 1) / p.BusChunkBytes
		if msgs < 1 {
			msgs = 1
		}
		return time.Duration(msgs)*in.Bus.MsgLatency +
			time.Duration(float64(n)/in.Bus.BytesPerSec*float64(time.Second))
	}
	// candidates reach the SKT scan, survivors pass the post probes (bloom
	// fpr folded into verification).
	c := newCards(q, in)
	candidates, survivors := c.walk(spec)

	// Per-tuple cycle costs, mirroring the executor's charges.
	const (
		heapCycles  = 2 * sim.CyclesHeapOp // push+pop through a merge heap
		decodeCycle = sim.CyclesDecode
	)
	bloomK := 7.0 // SizeForFPR at 1% yields k=7

	var total time.Duration
	postVerifyTables := map[string]bool{}
	bloomProbes := 0.0 // filters probed per candidate

	fanin := float64(p.RAMBudget) / 2 / float64(p.Flash.PageSize)
	if fanin < 2 {
		fanin = 2
	}

	for i, st := range spec.Strategies {
		pr := q.Preds[i]
		n, rc := c.count(i), c.rootCount(i)
		switch st {
		case StratVisPre:
			total += busBytes(4 * n) // ID list on the wire
			if pr.Col.Table != q.Root.Name {
				effIn, effOut := float64(n), float64(rc)
				if spec.CrossFilter {
					// Cross-filtering intersects at the predicate's own
					// level first; approximate the reduction with the
					// combined selectivity of same-table contributions.
					red := 1.0
					for j, st2 := range spec.Strategies {
						if j != i && st2 == StratHidIndex && q.Preds[j].Col.Table == pr.Col.Table {
							red *= float64(c.count(j)) / float64(max(in.TableRows[pr.Col.Table], 1))
						}
					}
					effIn *= red
					effOut *= red
				}
				// Dense dictionary probe + posting-list page fill per
				// input ID, then heap work per output ID.
				total += time.Duration(effIn) * pageRead
				total += cpu(effIn*decodeCycle + effOut*heapCycles)
				// Spill passes of the translated list.
				passes := 0.0
				for remaining := effIn; remaining > fanin; remaining /= fanin {
					passes++
				}
				perPass := float64(effOut*4)/float64(p.Flash.PageSize)*float64(pageProg+pageRead) +
					float64(cpu(effOut*heapCycles))
				total += time.Duration(passes * perPass)
			}
		case StratVisPost:
			total += busBytes(4 * n)                           // IDs to hash into the filter
			total += cpu(float64(n) * bloomK * sim.CyclesHash) // build
			postVerifyTables[pr.Col.Table] = true
			bloomProbes++
		case StratHidIndex, StratVisDevice:
			// Stream the root-level list and push it through the merge
			// (a device-indexed visible predicate costs the same and
			// ships nothing).
			listBytes := float64(rc * 3) // delta-varint average
			total += time.Duration(listBytes/float64(p.Flash.PageSize)*float64(pageRead)) + pageRead
			total += cpu(float64(rc) * (decodeCycle + heapCycles))
		case StratHidPost:
			// Attribute fetch per surviving candidate, costed below.
		}
	}

	memberTables := float64(len(q.Tables) - 1)
	if memberTables < 0 {
		memberTables = 0
	}
	// SKT lookups: sorted access, page-amortized per member column.
	entriesPerPage := float64(p.Flash.PageSize / 4)
	sktPages := (candidates/entriesPerPage + 1) * (memberTables + 1)
	total += time.Duration(sktPages) * pageRead
	total += cpu(candidates * memberTables * sim.CyclesCompare)

	// Per-candidate Bloom probing is the post-filter's big CPU bill.
	total += cpu(candidates * bloomProbes * bloomK * sim.CyclesHash)

	// Hidden-post attribute fetches and evaluations.
	for _, st := range spec.Strategies {
		if st == StratHidPost {
			total += time.Duration(candidates/entriesPerPage+1) * pageRead
			total += cpu(candidates * sim.CyclesPredicate)
		}
	}

	// Materialize survivors (Store operator).
	recBytes := 4 * (1 + memberTables)
	storePages := survivors*recBytes/float64(p.Flash.PageSize) + 1
	total += time.Duration(storePages) * (pageProg + pageRead)
	total += cpu(survivors * (1 + memberTables) * sim.CyclesCopyWord)

	// Verification / projection passes: sort + merge + stream per table.
	passTables := map[string]bool{}
	for t := range postVerifyTables {
		passTables[t] = true
	}
	for t := range q.TablesWithVisibleProjection() {
		if t != q.Root.Name {
			passTables[t] = true
		}
	}
	for t := range passTables {
		// External sort of the row file (read+write pass, n log n compares).
		total += time.Duration(storePages * 2 * float64(pageProg+pageRead))
		total += cpu(survivors * 20 * sim.CyclesCompare)
		// The stream from the PC: restricted to the table's visible
		// selection if one exists, else the whole table.
		streamRows := in.TableRows[t]
		for i, st := range spec.Strategies {
			if q.Preds[i].Col.Table == t && (st == StratVisPre || st == StratVisPost) {
				if n := c.count(i); n < streamRows {
					streamRows = n
				}
			}
		}
		total += busBytes(streamRows * (4 + in.AvgValueBytes))
		total += cpu(float64(streamRows) * sim.CyclesCompare)
	}

	// Result delivery to the secure display.
	total += busBytes(int(survivors) * (4 + in.AvgValueBytes) * max(len(q.Projs), 1) / 4)

	return total
}
