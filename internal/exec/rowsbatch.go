package exec

// The row operators: SKT access fused with the filters, the Store pass,
// row-file scans, Bloom build and the projection merge. A RowBatch owns
// its memory (pooled): rows handed out in a batch stay valid until the
// next call on the same iterator, so downstream consumers never need
// defensive per-row copies.
//
// The join+filter stage is one operator: the cost model interleaves SKT
// lookups and hidden-column fetches per row, and the device's LRU page
// cache makes the simulated flash cost depend on that exact access
// order. Running "join the whole batch, then filter the whole batch"
// would reorder cache probes and change the simulated time with the
// batch length, so the fused operator keeps the per-row order and only
// amortizes dispatch and clock charges.

import (
	"fmt"
	"sync"

	"github.com/ghostdb/ghostdb/internal/bloom"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/skt"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// DefaultRowBatchRows is the number of rows a RowBatch holds.
const DefaultRowBatchRows = 256

// RowBatch is a batch of result tuples stored row-major. The batch owns
// its backing arrays (pooled via GetRowBatch/PutRowBatch); Row views into
// it are valid until the batch is reset or recycled.
type RowBatch struct {
	width   int
	n       int
	capRows int
	seq     []uint32
	ids     []uint32
}

// GetRowBatch returns a pooled batch sized for width ID fields per row,
// holding up to DefaultRowBatchRows rows.
func GetRowBatch(width int) *RowBatch {
	return GetRowBatchCap(width, DefaultRowBatchRows)
}

// GetRowBatchCap returns a pooled batch capped at capRows rows.
func GetRowBatchCap(width, capRows int) *RowBatch {
	if capRows < 1 {
		capRows = 1
	}
	if capRows > DefaultRowBatchRows {
		capRows = DefaultRowBatchRows
	}
	b := rowBatchPool.Get().(*RowBatch)
	b.capRows = capRows
	b.Reset(width)
	return b
}

// NewRowBatch returns a pooled batch at the environment's configured row
// granularity.
func (e *Env) NewRowBatch(width int) *RowBatch {
	return GetRowBatchCap(width, e.rowBatchCap())
}

// PutRowBatch returns a batch to the pool.
func PutRowBatch(b *RowBatch) {
	if b != nil {
		rowBatchPool.Put(b)
	}
}

var rowBatchPool = sync.Pool{
	New: func() any {
		return &RowBatch{
			capRows: DefaultRowBatchRows,
			seq:     make([]uint32, DefaultRowBatchRows),
			ids:     make([]uint32, 4*DefaultRowBatchRows),
		}
	},
}

// Reset empties the batch and sets its row width.
func (b *RowBatch) Reset(width int) {
	b.width = width
	b.n = 0
	if need := DefaultRowBatchRows * width; cap(b.ids) < need {
		b.ids = make([]uint32, need)
	}
	b.ids = b.ids[:cap(b.ids)]
}

// Len reports the number of rows in the batch.
func (b *RowBatch) Len() int { return b.n }

// Width reports the number of ID fields per row.
func (b *RowBatch) Width() int { return b.width }

// CapRows reports how many rows the batch can hold.
func (b *RowBatch) CapRows() int {
	if b.capRows == 0 {
		return DefaultRowBatchRows
	}
	return b.capRows
}

// Row returns a view of row i. The view's IDs alias the batch memory:
// valid until the batch is reset or recycled, no copy needed before that.
func (b *RowBatch) Row(i int) Row {
	return Row{Seq: b.seq[i], IDs: b.ids[i*b.width : (i+1)*b.width]}
}

// slot prepares row slot i for writing and returns its ID fields.
func (b *RowBatch) slot(i int, seq uint32) []uint32 {
	b.seq[i] = seq
	return b.ids[i*b.width : (i+1)*b.width]
}

// Append adds one row — for BatchRowIter implementations outside this
// package. The caller keeps Len below CapRows.
func (b *RowBatch) Append(seq uint32, ids ...uint32) {
	copy(b.slot(b.n, seq), ids)
	b.n++
}

// BatchRowIter streams row batches. Next resets b and fills it with up to
// b.CapRows() rows, returning how many were produced; 0 with a nil error
// means the stream is exhausted.
type BatchRowIter interface {
	Next(b *RowBatch) (int, error)
	Close()
}

// CostedRowFilter is a row predicate whose CPU cost is charged by the
// caller, once per batch: Cycles is the per-evaluation charge and Eval
// must not advance the simulated clock itself (flash accesses inside Eval
// still charge normally, preserving the page-cache access order).
type CostedRowFilter struct {
	Cycles int64
	Eval   func(Row) (bool, error)
}

// BloomProbeCosted filters rows by probing the member ID at field against
// a Bloom filter — the post-filtering probe of Figure 5 — with the hash
// cost charged per batch.
func (e *Env) BloomProbeCosted(f *bloom.Filter, field int) CostedRowFilter {
	return CostedRowFilter{
		Cycles: int64(sim.CyclesHash) * int64(f.K()),
		Eval: func(r Row) (bool, error) {
			return f.Contains(bloom.Hash32(r.IDs[field])), nil
		},
	}
}

// HiddenPredCosted evaluates a predicate against a hidden column value
// fetched from the device store for the row's member at field — the
// fallback for hidden predicates without a usable climbing index, and
// the "hidden post-filtering" ablation strategy — with the predicate
// cost charged per batch. The fetch itself goes through the page cache
// in row order.
func (e *Env) HiddenPredCosted(col store.Column, field int, p pred.P) CostedRowFilter {
	return CostedRowFilter{
		Cycles: sim.CyclesPredicate,
		Eval: func(r Row) (bool, error) {
			v, err := col.Value(int(r.IDs[field]) - 1)
			if err != nil {
				return false, err
			}
			return p.Eval(v)
		},
	}
}

// JoinFilterSpec configures the fused join+filter stage.
type JoinFilterSpec struct {
	// SKT resolves member-table IDs; nil streams bare root rows
	// (single-table queries).
	SKT *skt.SKT
	// Tables lists the member tables for IDs[1:]; IDs[0] is the root.
	Tables []string
	// Filters are applied in order, short-circuiting on the first miss.
	Filters []CostedRowFilter
	// JoinOp and FilterOp receive the AccessSKT and Filter counters.
	// FilterOp is only updated when Filters is non-empty (no filter
	// stage, no Filter counters).
	JoinOp   *stats.Op
	FilterOp *stats.Op
}

// JoinFilterBatch turns a sorted batch stream of query-root IDs into
// batches of filtered rows carrying the joined member-table IDs, via
// single-step SKT lookups (Section 4: "reaching any other table in the
// path ... in a single step"). Per-row order of SKT lookups and filter
// fetches is preserved; counters and clock charges are paid once per
// batch. A member table outside the SKT's subtree is an error.
func (e *Env) JoinFilterBatch(root BatchIter, spec JoinFilterSpec) (BatchRowIter, error) {
	j := joinFilterPool.Get().(*joinFilterBatch)
	ids, evals := j.ids, j.evals
	if ids == nil {
		ids = GetIDBatch()
	}
	if cap(evals) < len(spec.Filters) {
		evals = make([]int64, len(spec.Filters))
	}
	cols := j.cols[:0]
	*j = joinFilterBatch{
		env:   e,
		in:    root,
		spec:  spec,
		width: 1 + len(spec.Tables),
		ids:   ids,
		lim:   e.batchCap(),
		evals: evals[:len(spec.Filters)],
	}
	// Resolve member columns once; per-row lookups then skip the SKT's
	// name normalization (the simulated flash accesses are identical).
	for _, table := range spec.Tables {
		col, ok, unknown := spec.SKT.Member(table)
		if unknown {
			j.cols = cols
			joinFilterPool.Put(j)
			return nil, fmt.Errorf("exec: %s is not in the subtree of %s", table, spec.SKT.Root)
		}
		if !ok {
			col = nil // the root itself: identity mapping
		}
		cols = append(cols, col)
	}
	j.cols = cols
	return j, nil
}

// joinFilterPool recycles the fused operator's state (including its
// root-ID staging buffer) across queries.
var joinFilterPool = sync.Pool{New: func() any { return &joinFilterBatch{} }}

type joinFilterBatch struct {
	env   *Env
	in    BatchIter
	spec  JoinFilterSpec
	width int
	ids   *[]uint32         // root-ID staging buffer
	lim   int               // configured granularity cap on root pulls
	cols  []*store.IDColumn // resolved member columns (nil = root identity)
	pos   int               // consumed prefix of ids
	have  int               // valid prefix of ids
	evals []int64           // per-filter evaluation counts (scratch)
	seq   uint32
	done  bool
}

func (j *joinFilterBatch) Next(b *RowBatch) (int, error) {
	b.Reset(j.width)
	if j.done {
		return 0, nil
	}
	var joined, kept int64
	for i := range j.evals {
		j.evals[i] = 0
	}
	for b.n < b.CapRows() {
		if j.pos >= j.have {
			want := b.CapRows() - b.n
			if want > j.lim {
				want = j.lim
			}
			k, err := j.in.Next((*j.ids)[:want])
			if err != nil {
				j.flushStats(joined, kept)
				return b.n, err
			}
			if k == 0 {
				j.done = true
				break
			}
			j.pos, j.have = 0, k
		}
		id := (*j.ids)[j.pos]
		j.pos++
		joined++
		row := b.slot(b.n, j.seq)
		j.seq++
		row[0] = id
		for t, col := range j.cols {
			mid := id // root identity
			if col != nil {
				var err error
				if mid, err = j.memberID(col, id); err != nil {
					j.flushStats(joined, kept)
					return b.n, err
				}
			}
			row[t+1] = mid
		}
		keepRow := true
		for f := range j.spec.Filters {
			j.evals[f]++
			ok, err := j.spec.Filters[f].Eval(Row{Seq: b.seq[b.n], IDs: row})
			if err != nil {
				j.flushStats(joined, kept)
				return b.n, err
			}
			if !ok {
				keepRow = false
				break
			}
		}
		if keepRow {
			kept++
			b.n++
		}
	}
	j.flushStats(joined, kept)
	return b.n, nil
}

// memberID is skt.Lookup with the column pre-resolved.
func (j *joinFilterBatch) memberID(col *store.IDColumn, rootID uint32) (uint32, error) {
	if rootID == 0 || int(rootID) > j.spec.SKT.Len() {
		return 0, fmt.Errorf("exec: SKT root ID %d out of range 1..%d", rootID, j.spec.SKT.Len())
	}
	return col.Get(int(rootID - 1))
}

// flushStats pays the batch's counters and clock charges: one SKT compare
// per (row, member table), each filter's per-evaluation cycles, and the
// AccessSKT/Filter tuple counts — the same totals per-row updates would
// reach.
func (j *joinFilterBatch) flushStats(joined, kept int64) {
	j.spec.JoinOp.AddIn(joined)
	j.spec.JoinOp.AddOut(joined)
	if len(j.spec.Tables) > 0 {
		j.env.cpuUnits(sim.CyclesCompare, joined*int64(len(j.spec.Tables)))
	}
	if len(j.spec.Filters) > 0 {
		for f, n := range j.evals {
			j.env.cpuUnits(j.spec.Filters[f].Cycles, n)
		}
		j.spec.FilterOp.AddIn(joined)
		j.spec.FilterOp.AddOut(kept)
	}
}

func (j *joinFilterBatch) Close() {
	if j.in == nil {
		return // already closed and recycled
	}
	j.in.Close()
	j.in = nil
	j.spec = JoinFilterSpec{}
	j.cols = j.cols[:0]
	joinFilterPool.Put(j)
}

// MaterializeRowsBatch drains a batch row stream (rows with nFields IDs)
// into a scratch row file — the "Store" operator of Figure 5. Records are
// encoded and written one batch at a time. When assignSeq is set, rows get
// fresh dense sequence numbers in arrival order.
func (e *Env) MaterializeRowsBatch(in BatchRowIter, nFields int, assignSeq bool, op *stats.Op) (*RowFile, error) {
	defer in.Close()
	grant, err := e.Dev.RAM.Alloc(e.pageSize(), "row-writer")
	if err != nil {
		return nil, err
	}
	defer grant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		return nil, err
	}
	rf := &RowFile{env: e, fields: nFields}
	rb := e.NewRowBatch(nFields)
	defer PutRowBatch(rb)
	for {
		k, err := in.Next(rb)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
		if rb.Width() != nFields {
			return nil, fmt.Errorf("exec: row batch has %d fields, want %d", rb.Width(), nFields)
		}
		op.AddIn(int64(k))
		if assignSeq {
			for i := range rb.seq[:k] {
				rb.seq[i] = uint32(rf.n + i)
			}
		}
		if err := w.put(rb.seq[:k], rb.ids, nFields); err != nil {
			return nil, err
		}
		rf.n += k
		e.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+nFields), int64(k))
	}
	ext, err := w.close()
	if err != nil {
		return nil, err
	}
	op.AddOut(int64(rf.n))
	rf.ext = ext
	return rf, nil
}

// IterBatch streams the file's rows in storage order, decoded a batch at
// a time from the page the stream's reader holds. The stream owns that one
// page buffer.
func (rf *RowFile) IterBatch() (BatchRowIter, error) {
	grant, err := rf.env.Dev.RAM.Alloc(rf.env.pageSize(), "row-reader")
	if err != nil {
		return nil, err
	}
	it := rowFileBatchPool.Get().(*rowFileBatch)
	*it = rowFileBatch{
		rf:    rf,
		rr:    recordReader{r: flash.NewReader(rf.env.Dev.Flash, rf.ext), stage: it.rr.stage},
		grant: grant,
	}
	return it, nil
}

// rowFileBatchPool recycles row-file scan state across queries.
var rowFileBatchPool = sync.Pool{New: func() any { return &rowFileBatch{} }}

type rowFileBatch struct {
	rf    *RowFile
	rr    recordReader
	grant *ram.Grant
	read  int
}

func (it *rowFileBatch) Next(b *RowBatch) (int, error) {
	fields := it.rf.fields
	b.Reset(fields)
	k := min(it.rf.n-it.read, b.CapRows())
	if k <= 0 {
		return 0, nil
	}
	if err := it.rr.next(b.seq[:k], b.ids, fields); err != nil {
		return 0, fmt.Errorf("exec: row file read: %w", err)
	}
	b.n = k
	it.read += k
	it.rf.env.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+fields), int64(k))
	return k, nil
}

func (it *rowFileBatch) Close() {
	if it.rf == nil {
		return // already closed and recycled
	}
	it.grant.Free()
	it.rr.r.Release()
	it.rr.r = nil
	it.rf = nil
	rowFileBatchPool.Put(it)
}

// BuildBloomBatch drains a sorted batch ID stream into a Bloom filter
// sized for the target false-positive rate, shrinking to maxBytes if the
// ideal size does not fit — a smaller filter just raises the (repaired)
// fpr, which is the RAM/time trade-off of post-filtering. Hash charges
// are paid per batch. The returned func releases the filter's RAM; call
// it when probing is done.
func (e *Env) BuildBloomBatch(ids BatchIter, expected int, targetFPR float64, maxBytes int, op *stats.Op) (*bloom.Filter, func(), error) {
	defer ids.Close()
	mBits, k := bloom.SizeForFPR(expected, targetFPR)
	if maxBytes > 0 && (mBits+7)/8 > maxBytes {
		mBits = maxBytes * 8
		k = bloom.OptimalK(mBits, expected)
	}
	f, err := bloom.New(mBits, k)
	if err != nil {
		return nil, nil, err
	}
	grant, err := e.Dev.RAM.Alloc(f.FootprintBytes(), "bloom")
	if err != nil {
		return nil, nil, err
	}
	op.NoteRAM(int64(f.FootprintBytes()))
	bb := GetIDBatch()
	defer PutIDBatch(bb)
	buf := (*bb)[:e.batchCap()]
	for {
		n, err := ids.Next(buf)
		if err != nil {
			grant.Free()
			return nil, nil, err
		}
		if n == 0 {
			break
		}
		op.AddIn(int64(n))
		e.cpuUnits(int64(sim.CyclesHash)*int64(k), int64(n))
		for _, id := range buf[:n] {
			f.Add(bloom.Hash32(id))
		}
	}
	return f, grant.Free, nil
}

// MergeRowsWithStreamBatch merges batched rows (sorted ascending by
// IDs[field]) with a visible (id, value) stream sorted by unique
// ascending ID. Rows whose ID appears in the stream survive and are
// passed to onMatch with the value (the projection attachment); rows
// missing from the stream are dropped — this is the exact verification
// that repairs Bloom false positives. The KV stream itself stays
// element-at-a-time: it is the bus-charged projection stream, whose
// chunked messages must go out at the same points at every batch
// length. Rows passed to onMatch are views into a pooled batch:
// valid for the duration of the callback plus the rest of the batch.
func (e *Env) MergeRowsWithStreamBatch(rows BatchRowIter, field int, stream KVIter, op *stats.Op, onMatch func(Row, value.Value) error) error {
	defer rows.Close()
	defer stream.Close()
	cur, haveKV, err := stream.Next()
	if err != nil {
		return err
	}
	rb := e.NewRowBatch(1)
	defer PutRowBatch(rb)
	for {
		k, err := rows.Next(rb)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
		op.AddIn(int64(k))
		var compares, matched int64
		for i := 0; i < k; i++ {
			r := rb.Row(i)
			id := r.IDs[field]
			for haveKV && cur.ID < id {
				compares++
				cur, haveKV, err = stream.Next()
				if err != nil {
					e.cpuUnits(sim.CyclesCompare, compares)
					return err
				}
			}
			if haveKV && cur.ID == id {
				matched++
				if err := onMatch(r, cur.Val); err != nil {
					e.cpuUnits(sim.CyclesCompare, compares)
					return err
				}
			}
		}
		e.cpuUnits(sim.CyclesCompare, compares)
		op.AddOut(matched)
	}
}
