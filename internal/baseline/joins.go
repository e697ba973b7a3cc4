package baseline

import (
	"fmt"
	"sort"
	"strings"

	"github.com/ghostdb/ghostdb/internal/climbing"
	"github.com/ghostdb/ghostdb/internal/exec"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/store"
)

// rootCandidates opens the root-level selection, or a full scan.
func (e *Engine) rootCandidates(root string, sel map[string]*selRun) (exec.BatchIter, error) {
	if run, ok := sel[root]; ok {
		return run.src.OpenBatch()
	}
	return &seqIter{max: uint32(e.Rows[root])}, nil
}

// seqIter streams the identifiers 1..max.
type seqIter struct{ next, max uint32 }

func (s *seqIter) Next(dst []uint32) (int, error) {
	n := 0
	for n < len(dst) && s.next < s.max {
		s.next++
		dst[n] = s.next
		n++
	}
	return n, nil
}

func (s *seqIter) Close() {}

// fkColumn fetches the hidden FK column object for parent->child.
func (e *Engine) fkColumn(parent, child string) (store.Column, error) {
	pt, ok := e.Sch.Table(parent)
	if !ok {
		return nil, fmt.Errorf("baseline: unknown table %s", parent)
	}
	for _, fk := range pt.ForeignKeys() {
		if strings.EqualFold(fk.RefTable, child) {
			td, ok := e.Hid.Table(parent)
			if !ok {
				return nil, fmt.Errorf("baseline: no hidden table %s", parent)
			}
			col, ok := td.Column(fk.Name)
			if !ok {
				return nil, fmt.Errorf("baseline: FK %s.%s is not on the device; baselines need hidden foreign keys", parent, fk.Name)
			}
			return col, nil
		}
	}
	return nil, fmt.Errorf("baseline: no FK %s->%s", parent, child)
}

// pathDown returns the tables from `from` down to `to` (inclusive).
func (e *Engine) pathDown(from, to string) ([]string, error) {
	up := e.Sch.PathToRoot(to) // [to, ..., from, ...]
	var rev []string
	for _, t := range up {
		rev = append(rev, t.Name)
		if strings.EqualFold(t.Name, from) {
			// Reverse.
			out := make([]string, len(rev))
			for i, n := range rev {
				out[len(rev)-1-i] = n
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("baseline: %s is not an ancestor of %s", from, to)
}

// topDownJoin is the no-index strategy: for each selected dimension,
// materialize (rootID, dimID) pairs by chasing foreign keys row by row,
// then filter against the selection run with block nested loop or Grace
// hash partitioning.
func (e *Engine) topDownJoin(root string, sel map[string]*selRun, alg Algorithm, rep *stats.Report) ([]uint32, error) {
	cur, err := e.rootCandidates(root, sel)
	if err != nil {
		return nil, err
	}
	// Deterministic target order: by depth then name.
	var targets []string
	for t := range sel {
		if !strings.EqualFold(t, root) {
			targets = append(targets, t)
		}
	}
	sort.Slice(targets, func(i, j int) bool {
		di, dj := e.Sch.Depth(targets[i]), e.Sch.Depth(targets[j])
		if di != dj {
			return di < dj
		}
		return targets[i] < targets[j]
	})

	for _, target := range targets {
		path, err := e.pathDown(root, target)
		if err != nil {
			cur.Close()
			return nil, err
		}
		// Chase FK chains: (rootID, curID) pairs in a scratch row file.
		mapOp := rep.NewOp("FKChase", fmt.Sprintf("%s->%s", root, target))
		phase := e.Dev.Clock.Now()
		cols := make([]store.Column, len(path)-1)
		for i := 0; i+1 < len(path); i++ {
			cols[i], err = e.fkColumn(path[i], path[i+1])
			if err != nil {
				cur.Close()
				return nil, err
			}
		}
		pairs := &fkChaseIter{in: cur, cols: cols, ids: exec.GetIDBatch()}
		pairFile, err := e.Env.MaterializeRowsBatch(pairs, 2, true, mapOp)
		if err != nil {
			return nil, err
		}
		mapOp.AddTime(e.Dev.Clock.Span(phase))

		// Filter the pairs against the selection run.
		var kept *exec.RowFile
		switch alg {
		case BNL:
			kept, err = e.bnlFilter(pairFile, sel[target], rep)
		case GraceHash:
			kept, err = e.graceFilter(pairFile, sel[target], rep)
		default:
			err = fmt.Errorf("baseline: %v is not a top-down algorithm", alg)
		}
		if err != nil {
			return nil, err
		}
		// Reduce to the surviving root IDs (field 0), sorted.
		sorted, err := e.Env.SortRowFile(kept, 0, int(e.Dev.RAM.Available())/2, e.Env.Fanin(0.25), rep.NewOp("Sort", "by root"))
		if err != nil {
			return nil, err
		}
		it, err := sorted.IterBatch()
		if err != nil {
			return nil, err
		}
		cur = &rowFieldIter{in: it, rows: e.Env.NewRowBatch(sorted.Fields())}
	}
	return exec.CollectBatch(cur)
}

// fkChaseIter maps root IDs to (rootID, targetID) rows by fetching the
// FK column at every hop — random flash reads once the chain leaves the
// root's clustered order.
//
// The column fetches go through the hidden store's page cache, whose
// hit/miss pattern depends on their order: each root ID is chased to the
// end of its chain before the next one starts, at every batch length
// (exec/batch.go, rule 2). Only the root IDs are pulled a batch at a time.
type fkChaseIter struct {
	in   exec.BatchIter
	cols []store.Column
	ids  *[]uint32 // pooled root-ID staging buffer
}

func (f *fkChaseIter) Next(b *exec.RowBatch) (int, error) {
	b.Reset(2)
	n, err := f.in.Next((*f.ids)[:b.CapRows()])
	if err != nil {
		return 0, err
	}
	for _, id := range (*f.ids)[:n] {
		cur := id
		for _, col := range f.cols {
			v, err := col.Value(int(cur) - 1)
			if err != nil {
				return 0, err
			}
			cur = uint32(v.Int())
		}
		b.Append(0, id, cur)
	}
	return n, nil
}

func (f *fkChaseIter) Close() {
	f.in.Close()
	exec.PutIDBatch(f.ids)
	f.ids = nil
}

// rowFieldIter projects field 0 of a row stream as an ID stream.
type rowFieldIter struct {
	in   exec.BatchRowIter
	rows *exec.RowBatch // pooled; rows[pos:] are still to be handed out
	pos  int
}

func (r *rowFieldIter) Next(dst []uint32) (int, error) {
	n := 0
	for n < len(dst) {
		if r.pos >= r.rows.Len() {
			k, err := r.in.Next(r.rows)
			if err != nil {
				return n, err
			}
			if k == 0 {
				break
			}
			r.pos = 0
		}
		dst[n] = r.rows.Row(r.pos).IDs[0]
		r.pos++
		n++
	}
	return n, nil
}

func (r *rowFieldIter) Close() {
	r.in.Close()
	exec.PutRowBatch(r.rows)
	r.rows = nil
}

// bnlFilter keeps pairs whose second field appears in the selection run,
// re-scanning the run once per RAM-sized chunk of pairs.
func (e *Engine) bnlFilter(pairs *exec.RowFile, sel *selRun, rep *stats.Report) (*exec.RowFile, error) {
	op := rep.NewOp("BNLFilter", fmt.Sprintf("|sel|=%d", sel.n))
	phase := e.Dev.Clock.Now()
	defer func() { op.AddTime(e.Dev.Clock.Span(phase)) }()

	// Chunk capacity: half the free RAM for the pair buffer, half for
	// the membership map approximation.
	chunkBytes := int(e.Dev.RAM.Available()) / 2
	capPairs := chunkBytes / 16
	if capPairs < 8 {
		capPairs = 8
	}
	grant, err := e.Dev.RAM.Alloc(capPairs*16, "bnl-chunk")
	if err != nil {
		return nil, err
	}
	defer grant.Free()
	op.NoteRAM(int64(capPairs * 16))

	out, err := e.Env.NewRowFileWriter(2)
	if err != nil {
		return nil, err
	}
	in, err := pairs.IterBatch()
	if err != nil {
		out.Abort()
		return nil, err
	}
	defer in.Close()
	rb := e.Env.NewRowBatch(2)
	defer exec.PutRowBatch(rb)
	selIDs := exec.GetIDBatch()
	defer exec.PutIDBatch(selIDs)

	type pair struct {
		seq      uint32
		root, id uint32
	}
	chunk := make([]pair, 0, capPairs)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// Membership: index chunk by target ID.
		byID := map[uint32][]int{}
		for i, p := range chunk {
			byID[p.id] = append(byID[p.id], i)
		}
		keep := make([]bool, len(chunk))
		it, err := sel.src.OpenBatch()
		if err != nil {
			return err
		}
		for {
			n, err := it.Next(*selIDs)
			if err != nil {
				it.Close()
				return err
			}
			if n == 0 {
				break
			}
			for _, selID := range (*selIDs)[:n] {
				for _, i := range byID[selID] {
					keep[i] = true
				}
			}
		}
		it.Close()
		for i, p := range chunk {
			if keep[i] {
				op.AddOut(1)
				if err := out.Write(exec.Row{Seq: p.seq, IDs: []uint32{p.root, p.id}}); err != nil {
					return err
				}
			}
		}
		chunk = chunk[:0]
		return nil
	}
	for {
		k, err := in.Next(rb)
		if err != nil {
			out.Abort()
			return nil, err
		}
		if k == 0 {
			break
		}
		op.AddIn(int64(k))
		for i := 0; i < k; i++ {
			r := rb.Row(i)
			chunk = append(chunk, pair{seq: r.Seq, root: r.IDs[0], id: r.IDs[1]})
			if len(chunk) == capPairs {
				if err := flush(); err != nil {
					out.Abort()
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		out.Abort()
		return nil, err
	}
	return out.Close()
}

// graceFilter partitions pairs and the selection by hash so each
// partition's selection IDs fit in RAM, then filters partition-wise.
func (e *Engine) graceFilter(pairs *exec.RowFile, sel *selRun, rep *stats.Report) (*exec.RowFile, error) {
	op := rep.NewOp("GraceFilter", fmt.Sprintf("|sel|=%d", sel.n))
	phase := e.Dev.Clock.Now()
	defer func() { op.AddTime(e.Dev.Clock.Span(phase)) }()

	ramHalf := int(e.Dev.RAM.Available()) / 2
	parts := sel.n*8/max(ramHalf, 1) + 1
	if parts < 1 {
		parts = 1
	}
	if parts > 64 {
		parts = 64
	}

	rb := e.Env.NewRowBatch(2)
	defer exec.PutRowBatch(rb)
	selIDs := exec.GetIDBatch()
	defer exec.PutIDBatch(selIDs)

	// Partition the pair file (writes!).
	pairParts := make([]*exec.RowFile, parts)
	for p := 0; p < parts; p++ {
		w, err := e.Env.NewRowFileWriter(2)
		if err != nil {
			return nil, err
		}
		err = forEachRow(pairs, rb, func(r exec.Row) error {
			if int(hashID(r.IDs[1]))%parts != p {
				return nil
			}
			return w.Write(r)
		})
		if err != nil {
			w.Abort()
			return nil, err
		}
		pf, err := w.Close()
		if err != nil {
			return nil, err
		}
		pairParts[p] = pf
	}

	out, err := e.Env.NewRowFileWriter(2)
	if err != nil {
		return nil, err
	}
	// Per partition: load the selection subset into RAM, scan the pairs.
	for p := 0; p < parts; p++ {
		set := map[uint32]bool{}
		it, err := sel.src.OpenBatch()
		if err != nil {
			out.Abort()
			return nil, err
		}
		loaded := 0
		for {
			n, err := it.Next(*selIDs)
			if err != nil {
				it.Close()
				out.Abort()
				return nil, err
			}
			if n == 0 {
				break
			}
			for _, id := range (*selIDs)[:n] {
				if int(hashID(id))%parts == p {
					set[id] = true
					loaded++
				}
			}
		}
		it.Close()
		grant, err := e.Dev.RAM.Alloc(loaded*8, "grace-set")
		if err != nil {
			out.Abort()
			return nil, fmt.Errorf("baseline: grace partition overflow: %w", err)
		}
		op.NoteRAM(int64(loaded * 8))
		err = forEachRow(pairParts[p], rb, func(r exec.Row) error {
			op.AddIn(1)
			if !set[r.IDs[1]] {
				return nil
			}
			op.AddOut(1)
			return out.Write(r)
		})
		grant.Free()
		if err != nil {
			out.Abort()
			return nil, err
		}
	}
	return out.Close()
}

// forEachRow scans rf through the batch rb, handing fn one row view at a
// time (valid until fn returns).
func forEachRow(rf *exec.RowFile, rb *exec.RowBatch, fn func(exec.Row) error) error {
	in, err := rf.IterBatch()
	if err != nil {
		return err
	}
	defer in.Close()
	for {
		k, err := in.Next(rb)
		if err != nil || k == 0 {
			return err
		}
		for i := 0; i < k; i++ {
			if err := fn(rb.Row(i)); err != nil {
				return err
			}
		}
	}
}

func hashID(x uint32) uint32 {
	x ^= x >> 16
	x *= 0x7feb352d
	x ^= x >> 15
	x *= 0x846ca68b
	x ^= x >> 16
	return x
}

// joinIndexTraversal climbs one foreign-key edge at a time with a
// materialized run after every hop — binary join indices without the
// climbing index's transitive lists.
func (e *Engine) joinIndexTraversal(root string, sel map[string]*selRun, rep *stats.Report) ([]uint32, error) {
	rootRuns, err := e.traverse(root, sel, rep, false)
	if err != nil {
		return nil, err
	}
	if r, ok := sel[root]; ok {
		rootRuns = append(rootRuns, r)
	}
	its, err := openAll(rootRuns...)
	if err != nil {
		return nil, err
	}
	return e.intersectAtRoot(root, sel, its)
}

// intersectAtRoot returns the intersection of the streams that arrived at
// the root, or every root candidate when none did. It closes its.
func (e *Engine) intersectAtRoot(root string, sel map[string]*selRun, its []exec.BatchIter) ([]uint32, error) {
	if len(its) == 0 {
		it, err := e.rootCandidates(root, sel)
		if err != nil {
			return nil, err
		}
		return exec.CollectBatch(it)
	}
	x, err := e.Env.MergeIntersectBatch(its)
	if err != nil {
		return nil, err
	}
	return exec.CollectBatch(x)
}

// traverse climbs the non-root selections toward the root, intersecting
// at each table and materializing a run after every translation. With
// multiHop false each translation crosses exactly one foreign-key edge
// (binary join indices); with multiHop true the climbing index translates
// directly to the nearest table that has its own selection — skipping
// unoccupied levels. It returns the runs that arrived at the root.
func (e *Engine) traverse(root string, sel map[string]*selRun, rep *stats.Report, multiHop bool) ([]*selRun, error) {
	if e.Translator == nil {
		return nil, fmt.Errorf("baseline: traversal needs translator indexes")
	}
	arrived := map[string][]*selRun{}
	occupied := map[string]bool{}
	var tables []string
	for t := range sel {
		if !strings.EqualFold(t, root) {
			tables = append(tables, t)
			occupied[t] = true
		}
	}
	sort.Slice(tables, func(i, j int) bool {
		di, dj := e.Sch.Depth(tables[i]), e.Sch.Depth(tables[j])
		if di != dj {
			return di > dj // deepest first
		}
		return tables[i] < tables[j]
	})
	processed := map[string]bool{}
	queue := tables
	var rootRuns []*selRun
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if processed[t] {
			continue
		}
		processed[t] = true
		var runs []*selRun
		if r, ok := sel[t]; ok {
			runs = append(runs, r)
		}
		runs = append(runs, arrived[t]...)
		if len(runs) == 0 {
			continue
		}
		combined := runs[0]
		var err error
		for _, r := range runs[1:] {
			combined, err = e.intersectRuns(combined, r, rep)
			if err != nil {
				return nil, err
			}
		}
		// Choose the translation target.
		target := ""
		if multiHop {
			target = root
			for _, anc := range e.Sch.PathToRoot(t)[1:] {
				if strings.EqualFold(anc.Name, root) {
					break
				}
				if occupied[anc.Name] || len(arrived[anc.Name]) > 0 {
					target = anc.Name
					break
				}
			}
		} else {
			parent, _ := e.Sch.Parent(t)
			if parent == nil {
				return nil, fmt.Errorf("baseline: %s has no parent toward %s", t, root)
			}
			target = parent.Name
		}
		tr, err := e.Translator(t)
		if err != nil {
			return nil, err
		}
		level := tr.LevelOf(target)
		if level < 0 {
			return nil, fmt.Errorf("baseline: translator on %s lacks level %s", t, target)
		}
		in, err := combined.src.OpenBatch()
		if err != nil {
			return nil, err
		}
		opName := "JoinIndexHop"
		if multiHop {
			opName = "ClimbTranslate"
		}
		op := rep.NewOp(opName, fmt.Sprintf("%s->%s", t, target))
		phase := e.Dev.Clock.Now()
		translated, err := e.Env.TranslateBatch(in, tr, level, e.Env.Fanin(0.5), op)
		if err != nil {
			return nil, err
		}
		// Materialize after every hop.
		hopRun, err := e.spill(translated, op)
		if err != nil {
			return nil, err
		}
		op.AddTime(e.Dev.Clock.Span(phase))
		if strings.EqualFold(target, root) {
			rootRuns = append(rootRuns, hopRun)
		} else {
			arrived[target] = append(arrived[target], hopRun)
			queue = append(queue, target)
		}
	}
	return rootRuns, nil
}

// climbingRun executes the query with GhostDB's own structures under the
// bare-root-IDs contract, using the engine's full repertoire: an isolated
// deep hidden predicate reads its precomputed root-level list in one step
// (the climbing index's defining advantage); predicates with
// contributions below them intersect per level, cross-filtering style,
// and the climbing index translates the intersection directly to the
// next occupied level — skipping intermediate tables, which per-edge join
// indices cannot do.
func (e *Engine) climbingRun(root string, q Query, rep *stats.Report) ([]uint32, error) {
	if e.ValueIndex == nil {
		return nil, fmt.Errorf("baseline: climbing runs need value indexes")
	}
	// Tables contributing a selection.
	occupied := map[string]bool{}
	for _, p := range q.Preds {
		if !strings.EqualFold(p.Table, root) {
			occupied[p.Table] = true
		}
	}
	hasDescendant := func(table string) bool {
		for t := range occupied {
			if !strings.EqualFold(t, table) && e.Sch.IsAncestor(table, t) {
				return true
			}
		}
		return false
	}

	// The root-level streams stay open across the rest of the run; an
	// error on the way must not leave their page buffers in the arena it
	// shares with db.Query. Closing again after the final intersection has
	// closed them is harmless (exec.BatchIter: Close is idempotent).
	var rootIters []exec.BatchIter
	defer func() { closeAll(rootIters) }()
	sel := map[string]*selRun{}
	addSel := func(table string, run *selRun) error {
		if prev, ok := sel[table]; ok {
			merged, err := e.intersectRuns(prev, run, rep)
			if err != nil {
				return err
			}
			sel[table] = merged
			return nil
		}
		sel[table] = run
		return nil
	}

	for _, p := range q.Preds {
		atRoot := strings.EqualFold(p.Table, root)
		if p.Hidden && !atRoot && !hasDescendant(p.Table) {
			// Isolated deep predicate: the transitive root list wins.
			ix, ok := e.ValueIndex(p.Table, p.Column)
			if !ok {
				return nil, fmt.Errorf("baseline: no climbing index on %s.%s", p.Table, p.Column)
			}
			level := ix.LevelOf(root)
			if level < 0 {
				return nil, fmt.Errorf("baseline: index on %s does not climb to %s", p.Table, root)
			}
			op := rep.NewOp("ClimbingIndex", fmt.Sprintf("%s.%s@%s", p.Table, p.Column, root))
			var refs []climbing.ListRef
			err := forEntriesAt(ix, p.P, level, func(ref climbing.ListRef) {
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
			rootIters = append(rootIters, it)
			continue
		}
		// Everything else participates in the per-level climb: hidden
		// predicates via their own-level index lists, visible ones via
		// the shipped list.
		var run *selRun
		var err error
		if p.Hidden {
			ix, ok := e.ValueIndex(p.Table, p.Column)
			if !ok {
				return nil, fmt.Errorf("baseline: no climbing index on %s.%s", p.Table, p.Column)
			}
			run, err = e.indexSelection(ix, Pred{Table: p.Table, Column: p.Column, P: p.P, Hidden: true}, rep)
		} else {
			run, err = e.selection(p.Table, p, Climbing, rep)
		}
		if err != nil {
			return nil, err
		}
		if err := addSel(p.Table, run); err != nil {
			return nil, err
		}
	}

	rootRuns, err := e.traverse(root, sel, rep, true)
	if err != nil {
		return nil, err
	}
	if r, ok := sel[root]; ok {
		rootRuns = append(rootRuns, r)
	}
	for _, r := range rootRuns {
		it, err := r.src.OpenBatch()
		if err != nil {
			return nil, err
		}
		rootIters = append(rootIters, it)
	}
	return e.intersectAtRoot(root, sel, rootIters)
}

// forEntriesAt visits the list refs at the given level of entries
// matching p.
func forEntriesAt(ix *climbing.Index, p pred.P, level int, fn func(climbing.ListRef)) error {
	return ix.Walk(p, func(e climbing.Entry) error {
		fn(e.Lists[level])
		return nil
	})
}

// forEntries visits the own-level list refs of entries matching p.
func forEntries(ix *climbing.Index, p pred.P, fn func(climbing.ListRef)) error {
	return forEntriesAt(ix, p, 0, fn)
}
