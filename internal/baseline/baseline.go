// Package baseline implements the comparison points the paper dismisses
// in Section 4: executing SPJ queries on the smart USB device with "last
// resort join algorithms (like hash joins) as well as ... known indexing
// techniques like join indices" instead of Subtree Key Tables and
// climbing indexes. Running them on the same simulated device makes the
// paper's claim measurable: under tiny RAM and asymmetric flash costs
// they are one to two orders of magnitude slower.
//
// Three algorithms are provided:
//
//   - BNL — block nested loop: no indexes at all; hidden selections scan
//     whole columns; each join membership test re-scans the selection run
//     once per RAM-sized chunk of the outer.
//   - GraceHash — Grace hash join: partitions both sides to scratch flash
//     so each partition's selection set fits RAM; pays the 3-10x write
//     penalty for every partition pass.
//   - JoinIndex — binary join indices: selections use plain value indexes
//     (a climbing index restricted to its own level), but traversal moves
//     one foreign-key edge at a time with a materialized intermediate
//     after every hop — no precomputed transitive lists.
//
// Each returns the matching query-root IDs, which tests compare against
// the real engine. All of them compose the engine's own physical
// operators (internal/exec), so the comparison isolates the index
// structures.
package baseline

import (
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/visible"
)

// Pred is one selection of a baseline query.
type Pred struct {
	Table  string
	Column string
	P      pred.P
	Hidden bool
}

// Query is the baseline workload shape: the query root plus per-table
// selections; joins follow the schema tree implicitly.
type Query struct {
	Root  string
	Preds []Pred
}

// Engine runs baseline algorithms against the same device substrate the
// real engine uses.
type Engine struct {
	Dev  *device.Device
	Env  *exec.Env
	Sch  *schema.Schema
	Hid  *store.Store
	Vis  *visible.Store
	Rows map[string]int
	// Translator returns the dense per-edge join index for a table (the
	// climbing index on its primary key, used one level at a time).
	Translator func(table string) (*climbing.Index, error)
	// ValueIndex returns the plain value index for a hidden column (the
	// climbing index used only at its own level), for JoinIndex runs.
	ValueIndex func(table, column string) (*climbing.Index, bool)
}

// Algorithm selects a baseline join strategy.
type Algorithm int

// The baseline algorithms. Climbing is GhostDB's own structure run under
// the same bare-root-IDs contract, so the other algorithms compare against
// it without result-delivery noise.
const (
	BNL Algorithm = iota
	GraceHash
	JoinIndex
	Climbing
)

func (a Algorithm) String() string {
	switch a {
	case BNL:
		return "block-nested-loop"
	case GraceHash:
		return "grace-hash"
	case JoinIndex:
		return "join-index"
	case Climbing:
		return "skt+climbing"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Run executes the query under the given algorithm, returning the sorted
// matching root IDs and an execution report.
func (e *Engine) Run(q Query, alg Algorithm) ([]uint32, *stats.Report, error) {
	rep := &stats.Report{Query: fmt.Sprintf("baseline %s root=%s", alg, q.Root), PlanLabel: alg.String()}
	e.Dev.RAM.ResetHigh()
	flashStart := e.Dev.Flash.Stats()
	clockStart := e.Dev.Clock.Now()

	ids, err := e.run(q, alg, rep)

	rep.TotalTime = e.Dev.Clock.Span(clockStart)
	rep.RAMHigh = e.Dev.RAM.High()
	rep.Flash = e.Dev.Flash.Stats().Sub(flashStart)
	if ids != nil {
		rep.ResultRows = len(ids)
	}
	if cerr := e.Dev.ResetScratch(); cerr != nil && err == nil {
		err = cerr
	}
	e.Hid.Cache().Invalidate()
	return ids, rep, err
}

func (e *Engine) run(q Query, alg Algorithm, rep *stats.Report) ([]uint32, error) {
	root, ok := e.Sch.Table(q.Root)
	if !ok {
		return nil, fmt.Errorf("baseline: unknown root %s", q.Root)
	}
	if alg == Climbing {
		return e.climbingRun(root.Name, q, rep)
	}
	// Per-table selection runs (sorted ID lists in scratch).
	sel := map[string]*selRun{}
	for _, p := range q.Preds {
		t, ok := e.Sch.Table(p.Table)
		if !ok {
			return nil, fmt.Errorf("baseline: unknown table %s", p.Table)
		}
		if !strings.EqualFold(t.Name, root.Name) && !e.Sch.IsAncestor(root.Name, t.Name) {
			return nil, fmt.Errorf("baseline: %s is not in the subtree of %s", t.Name, root.Name)
		}
		run, err := e.selection(t.Name, p, alg, rep)
		if err != nil {
			return nil, err
		}
		if prev, ok := sel[t.Name]; ok {
			merged, err := e.intersectRuns(prev, run, rep)
			if err != nil {
				return nil, err
			}
			sel[t.Name] = merged
		} else {
			sel[t.Name] = run
		}
	}

	switch alg {
	case JoinIndex:
		return e.joinIndexTraversal(root.Name, sel, rep)
	case BNL, GraceHash:
		return e.topDownJoin(root.Name, sel, alg, rep)
	}
	return nil, fmt.Errorf("baseline: unknown algorithm %v", alg)
}

// selRun is a sorted ID list: either a scratch run or a small host slice
// (visible lists arrive over the bus and are spilled like the engine's).
type selRun struct {
	src exec.IDSource
	n   int
}

// selection materializes one predicate's matching IDs.
func (e *Engine) selection(table string, p Pred, alg Algorithm, rep *stats.Report) (*selRun, error) {
	if !p.Hidden {
		// Delegated to the PC exactly like the engine; the shipped list
		// is spilled to scratch.
		vt, ok := e.Vis.Table(table)
		if !ok {
			return nil, fmt.Errorf("baseline: no visible table %s", table)
		}
		ids, err := vt.Select(p.Column, p.P)
		if err != nil {
			return nil, err
		}
		op := rep.NewOp("ShipIDList", table)
		it, err := exec.SliceSource{IDs: ids}.OpenBatch()
		if err != nil {
			return nil, err
		}
		return e.spill(it, op)
	}
	if alg == JoinIndex && e.ValueIndex != nil {
		// Join-index runs get plain value indexes for selections.
		if ix, ok := e.ValueIndex(table, p.Column); ok {
			return e.indexSelection(ix, p, rep)
		}
	}
	// Last-resort: scan the whole hidden column.
	td, ok := e.Hid.Table(table)
	if !ok {
		return nil, fmt.Errorf("baseline: no hidden table %s", table)
	}
	col, ok := td.Column(p.Column)
	if !ok {
		return nil, fmt.Errorf("baseline: no hidden column %s.%s", table, p.Column)
	}
	op := rep.NewOp("ColumnScan", fmt.Sprintf("%s.%s", table, p.Column))
	grant, err := e.Dev.RAM.Alloc(e.Dev.Profile.Flash.PageSize, "scan-writer")
	if err != nil {
		return nil, err
	}
	defer grant.Free()
	w, err := e.Dev.Scratch.NewWriter()
	if err != nil {
		return nil, err
	}
	n := 0
	var buf [4]byte
	for i := 0; i < col.Len(); i++ {
		v, err := col.Value(i)
		if err != nil {
			return nil, err
		}
		op.AddIn(1)
		match, err := p.P.Eval(v)
		if err != nil {
			return nil, err
		}
		if !match {
			continue
		}
		putU32(buf[:], uint32(i+1))
		if _, err := w.Write(buf[:]); err != nil {
			return nil, err
		}
		n++
	}
	ext, err := w.Close()
	if err != nil {
		return nil, err
	}
	op.AddOut(int64(n))
	return &selRun{src: exec.RunSource{Env: e.Env, Ext: ext, N: n}, n: n}, nil
}

// indexSelection uses a plain value index (own-level lists only).
func (e *Engine) indexSelection(ix *climbing.Index, p Pred, rep *stats.Report) (*selRun, error) {
	op := rep.NewOp("ValueIndex", fmt.Sprintf("%s.%s", p.Table, p.Column))
	var refs []climbing.ListRef
	err := forEntries(ix, p.P, func(ref climbing.ListRef) {
		if ref.Count > 0 {
			refs = append(refs, ref)
		}
	})
	if err != nil {
		return nil, err
	}
	it, err := e.Env.UnionBatch(e.Env.ListSources(ix, refs), e.Env.Fanin(0.5), op)
	if err != nil {
		return nil, err
	}
	return e.spill(it, op)
}

// spill drains (and closes) it into a scratch run.
func (e *Engine) spill(it exec.BatchIter, op *stats.Op) (*selRun, error) {
	run, err := e.Env.SpillBatch(it, op)
	if err != nil {
		return nil, err
	}
	return &selRun{src: run, n: run.Count()}, nil
}

// openAll opens every run, or none: a failed open closes the earlier ones.
func openAll(runs ...*selRun) ([]exec.BatchIter, error) {
	its := make([]exec.BatchIter, 0, len(runs))
	for _, r := range runs {
		it, err := r.src.OpenBatch()
		if err != nil {
			closeAll(its)
			return nil, err
		}
		its = append(its, it)
	}
	return its, nil
}

func closeAll(its []exec.BatchIter) {
	for _, it := range its {
		it.Close()
	}
}

// intersectRuns merges two sorted runs into one.
func (e *Engine) intersectRuns(a, b *selRun, rep *stats.Report) (*selRun, error) {
	its, err := openAll(a, b)
	if err != nil {
		return nil, err
	}
	x, err := e.Env.MergeIntersectBatch(its)
	if err != nil {
		return nil, err
	}
	return e.spill(x, rep.NewOp("Intersect", ""))
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
