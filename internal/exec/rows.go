package exec

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/stats"
)

// Row is one in-flight result tuple: a dense output sequence number and
// the identifiers of the query's tables (IDs[0] is the query-root ID,
// the rest follow the plan's table layout).
//
// Ownership rule: a Row obtained from a RowBatch aliases the batch's
// pooled memory and stays valid until that batch is reset or recycled, so
// consumers never copy.
type Row struct {
	Seq uint32
	IDs []uint32
}

// RowFile is a materialized row set in scratch flash: fixed-width records
// of (seq, ids...) little-endian uint32s.
type RowFile struct {
	env    *Env
	ext    flash.Extent
	n      int
	fields int // ID fields per record (excluding seq)
}

// Count reports the number of rows.
func (rf *RowFile) Count() int { return rf.n }

// Fields reports the number of ID fields per row.
func (rf *RowFile) Fields() int { return rf.fields }

// recordWidth is the byte width of one record.
func (rf *RowFile) recordWidth() int { return 4 * (1 + rf.fields) }

// RowFileWriter streams rows into a new scratch row file, holding one
// page buffer. Used when a merge pass rewrites the surviving rows. The
// per-row copy cycles are counted and paid by Settle, Close and Abort.
type RowFileWriter struct {
	env    *Env
	w      recordWriter
	grant  *ram.Grant
	fields int
	n      int
	unpaid int64 // rows written since the last Settle
}

// NewRowFileWriter opens a streaming writer for rows of nFields IDs.
func (e *Env) NewRowFileWriter(nFields int) (*RowFileWriter, error) {
	grant, err := e.Dev.RAM.Alloc(e.pageSize(), "row-writer")
	if err != nil {
		return nil, err
	}
	w, err := e.newRecordWriter()
	if err != nil {
		grant.Free()
		return nil, err
	}
	return &RowFileWriter{env: e, w: w, grant: grant, fields: nFields}, nil
}

// Write appends one row, preserving its sequence number.
func (w *RowFileWriter) Write(r Row) error {
	if len(r.IDs) != w.fields {
		return fmt.Errorf("exec: row has %d fields, want %d", len(r.IDs), w.fields)
	}
	if err := w.w.putRow(r.Seq, r.IDs); err != nil {
		return err
	}
	w.n++
	w.unpaid++
	return nil
}

// Settle pays the copy cycles of the rows written since the last call.
// Close and Abort settle too; a caller that times an operator around the
// writes but closes the file afterwards settles before reading the clock.
func (w *RowFileWriter) Settle() {
	w.env.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+w.fields), w.unpaid)
	w.unpaid = 0
}

// Close finalizes the file.
func (w *RowFileWriter) Close() (*RowFile, error) {
	defer w.grant.Free()
	w.Settle()
	ext, err := w.w.close()
	if err != nil {
		return nil, err
	}
	return &RowFile{env: w.env, ext: ext, n: w.n, fields: w.fields}, nil
}

// Abort releases resources without producing a file.
func (w *RowFileWriter) Abort() {
	w.Settle()
	_, _ = w.w.close()
	w.grant.Free()
}

// sortKey is one buffered record during run formation: its sort key and
// its record position in the run buffer.
type sortKey struct{ key, pos uint32 }

// SortRowFile sorts the file by the given ID field (0-based, excluding
// seq) using an external merge sort: RAM-sized runs, then k-way merges,
// spilling to scratch. bufBytes bounds the run buffer; fanin bounds the
// concurrently open run readers.
//
// Every simulated comparison is counted, then charged: run formation sorts
// (key, position) pairs with a comparator that bumps a local counter, and
// pays CyclesCompare × count in one ChargeUnits per run, as mergeRowRuns
// does per merge. ChargeUnits(c, n) is n × Charge(c) to the nanosecond
// (sim.TestChargeUnitsMatchesRepeatedCharge), so the clock only stays put
// if the count equals what a charge inside the comparator would have paid
// — i.e. the sort must make the comparator calls of sort.Slice over the
// index permutation, in the same order, ending in the same tie order.
// slices.SortFunc is the same generated pdqsort; TestDifferentialSortRowFile
// holds this kernel to a copy of that per-comparison body (row order, clock,
// flash, RAM), and CI rejects sort.Slice or a per-comparison e.cpu( here.
func (e *Env) SortRowFile(rf *RowFile, byField, bufBytes, fanin int, op *stats.Op) (*RowFile, error) {
	if byField < 0 || byField >= rf.fields {
		return nil, fmt.Errorf("exec: sort field %d of %d", byField, rf.fields)
	}
	width := rf.recordWidth()
	capRecords := bufBytes / width
	if capRecords < 2 {
		capRecords = 2
	}
	grant, err := e.Dev.RAM.Alloc(capRecords*width, "sort-buffer")
	if err != nil {
		return nil, err
	}
	op.NoteRAM(int64(capRecords * width))
	runs, err := e.formRuns(rf, byField, capRecords, op)
	grant.Free()
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return &RowFile{env: e, fields: rf.fields}, nil
	}

	// Merge passes.
	for len(runs) > 1 {
		f := e.clampFanin(fanin)
		var next []*RowFile
		for start := 0; start < len(runs); start += f {
			end := start + f
			if end > len(runs) {
				end = len(runs)
			}
			merged, err := e.mergeRowRuns(runs[start:end], byField, op)
			if err != nil {
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	op.AddOut(int64(runs[0].n))
	return runs[0], nil
}

// formRuns is SortRowFile's run formation: it scans rf a batch at a time,
// cuts it into runs of capRecords records (the simulated sort buffer) and
// writes each run to scratch sorted by byField.
func (e *Env) formRuns(rf *RowFile, byField, capRecords int, op *stats.Op) ([]*RowFile, error) {
	in, err := rf.IterBatch()
	if err != nil {
		return nil, err
	}
	defer in.Close()
	rb := e.NewRowBatch(rf.fields)
	defer PutRowBatch(rb)

	words := 1 + rf.fields
	hostCap := min(capRecords, rf.n)        // the host never buffers more than the file holds
	buf := make([]uint32, 0, hostCap*words) // the sort buffer's records, seq first
	keys := make([]sortKey, 0, hostCap)
	var runs []*RowFile
	flushRun := func() error {
		if len(keys) == 0 {
			return nil
		}
		var compares int64
		slices.SortFunc(keys, func(a, b sortKey) int {
			compares++
			return cmp.Compare(a.key, b.key)
		})
		e.cpuUnits(sim.CyclesCompare, compares)
		w, err := e.newRecordWriter()
		if err != nil {
			return err
		}
		for _, k := range keys {
			rec := buf[int(k.pos)*words : int(k.pos+1)*words]
			if err := w.putRow(rec[0], rec[1:]); err != nil {
				return err
			}
		}
		ext, err := w.close()
		if err != nil {
			return err
		}
		runs = append(runs, &RowFile{env: e, ext: ext, n: len(keys), fields: rf.fields})
		buf, keys = buf[:0], keys[:0]
		return nil
	}
	for {
		k, err := in.Next(rb)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
		op.AddIn(int64(k))
		for i := 0; i < k; i++ {
			r := rb.Row(i)
			keys = append(keys, sortKey{key: r.IDs[byField], pos: uint32(len(keys))})
			buf = append(append(buf, r.Seq), r.IDs...)
			if len(keys) == capRecords {
				if err := flushRun(); err != nil {
					return nil, err
				}
			}
		}
	}
	return runs, flushRun()
}

// mergeRowRuns merges sorted runs into a new scratch run. Each run is
// read through a batch iterator whose RowBatch owns its memory, so the
// merge heads are views into the batches, with no defensive per-row
// copy. Comparison charges are counted and paid in one batch at the end.
func (e *Env) mergeRowRuns(runs []*RowFile, byField int, op *stats.Op) (*RowFile, error) {
	type head struct {
		it    BatchRowIter
		batch *RowBatch
		pos   int
		row   Row
	}
	var heads []*head
	closeAll := func() {
		for _, h := range heads {
			h.it.Close()
			PutRowBatch(h.batch)
		}
	}
	// advance loads the head's next row, refilling its batch as needed;
	// ok=false means the run is exhausted.
	advance := func(h *head) (bool, error) {
		if h.pos >= h.batch.Len() {
			k, err := h.it.Next(h.batch)
			if err != nil {
				return false, err
			}
			if k == 0 {
				return false, nil
			}
			h.pos = 0
		}
		h.row = h.batch.Row(h.pos)
		h.pos++
		return true, nil
	}
	for _, r := range runs {
		it, err := r.IterBatch()
		if err != nil {
			closeAll()
			return nil, err
		}
		h := &head{it: it, batch: GetRowBatch(r.fields)}
		ok, err := advance(h)
		if err != nil {
			it.Close()
			PutRowBatch(h.batch)
			closeAll()
			return nil, err
		}
		if !ok {
			it.Close()
			PutRowBatch(h.batch)
			continue
		}
		heads = append(heads, h)
	}
	wGrant, err := e.Dev.RAM.Alloc(e.pageSize(), "merge-writer")
	if err != nil {
		closeAll()
		return nil, err
	}
	defer wGrant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		closeAll()
		return nil, err
	}
	n := 0
	var compares int64
	for len(heads) > 0 {
		best := 0
		for i := 1; i < len(heads); i++ {
			compares++
			if heads[i].row.IDs[byField] < heads[best].row.IDs[byField] {
				best = i
			}
		}
		h := heads[best]
		if err := w.putRow(h.row.Seq, h.row.IDs); err != nil {
			e.cpuUnits(sim.CyclesCompare, compares)
			closeAll()
			return nil, err
		}
		n++
		ok, err := advance(h)
		if err != nil {
			e.cpuUnits(sim.CyclesCompare, compares)
			closeAll()
			return nil, err
		}
		if !ok {
			h.it.Close()
			PutRowBatch(h.batch)
			heads = append(heads[:best], heads[best+1:]...)
		}
	}
	e.cpuUnits(sim.CyclesCompare, compares)
	ext, err := w.close()
	if err != nil {
		return nil, err
	}
	return &RowFile{env: e, ext: ext, n: n, fields: runs[0].fields}, nil
}
