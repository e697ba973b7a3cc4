package exec

import (
	"fmt"
	"io"
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

// moveRun appends a run of whole encoded records of the writer's width.
func (w *RowFileWriter) moveRun(recs []byte) error {
	if err := w.w.moveRun(recs); err != nil {
		return err
	}
	m := len(recs) / (4 * (1 + w.fields))
	w.n += m
	w.unpaid += int64(m)
	return nil
}

// Abort releases resources without producing a file.
func (w *RowFileWriter) Abort() {
	w.Settle()
	_, _ = w.w.close()
	w.grant.Free()
}

// SortRowFile sorts the file by the given ID field (0-based, excluding
// seq) using an external merge sort: RAM-sized runs, then k-way merges,
// spilling to scratch. bufBytes bounds the run buffer; fanin bounds the
// concurrently open run readers.
//
// Records move as bytes: run formation reads the input's pages into the
// sort buffer and decodes one word of each record, its key; runs and merge
// outputs are written by moving record bytes into the writer's lent tail.
//
// Every simulated comparison is counted, then charged: run formation sorts
// (key, position) pairs with keySorter, which counts its comparisons,
// and pays CyclesCompare × count in one ChargeUnits per run, as
// mergeRowRuns does per merge. ChargeUnits(c, n) is n × Charge(c) to the
// nanosecond (sim.TestChargeUnitsMatchesRepeatedCharge), so the clock only
// stays put if the count equals what a charge inside the comparator would
// have paid: keySorter is slices.SortFunc's pdqsort transcribed, with its
// comparison count and tie order (keysort.go; testdata/keysort_golden.txt
// pins both). TestDifferentialSortRowFile holds the whole sort to its
// per-comparison predecessor (row order, clock, flash, RAM), and CI
// rejects any other comparison sort or a per-comparison e.cpu( here.
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
			merged, _, _, err := e.mergeRowRuns(runs[start:end], byField)
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

// formRuns is SortRowFile's run formation: it reads rf capRecords records
// (the simulated sort buffer) at a time, sorts their keys and writes each
// run to scratch in key order.
func (e *Env) formRuns(rf *RowFile, byField, capRecords int, op *stats.Op) ([]*RowFile, error) {
	var grant ram.Grant
	if err := e.Dev.RAM.AllocInto(&grant, e.pageSize(), "row-reader"); err != nil {
		return nil, err
	}
	defer grant.Free()
	in := recordReader{r: flash.NewReader(e.Dev.Flash, rf.ext)}
	defer in.r.Release()

	width := rf.recordWidth()
	hostCap := min(capRecords, rf.n) // the host never buffers more than the file holds
	buf := make([]byte, hostCap*width)
	keyBuf := make([]sortKey, hostCap)
	var runs []*RowFile
	for read := 0; read < rf.n; {
		k := min(capRecords, rf.n-read)
		recs, keys := buf[:k*width], keyBuf[:k]
		if err := in.fill(recs); err != nil {
			return nil, fmt.Errorf("exec: row file read: %w", err)
		}
		read += k
		op.AddIn(int64(k))
		e.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+rf.fields), int64(k))
		for i := range keys {
			keys[i] = sortKey{key: recordKey(recs[i*width:], byField), pos: uint32(i)}
		}
		var s keySorter
		s.sort(keys)
		e.cpuUnits(sim.CyclesCompare, s.compares)
		w, err := e.newRecordWriter()
		if err != nil {
			return nil, err
		}
		if err := w.moveSorted(recs, width, keys); err != nil {
			_, _ = w.close() // release the scratch writer
			return nil, err
		}
		ext, err := w.close()
		if err != nil {
			return nil, err
		}
		runs = append(runs, &RowFile{env: e, ext: ext, n: k, fields: rf.fields})
	}
	return runs, nil
}

// runHead is one input of a row-run merge: its stream and the records the
// stream has lent, the first of which is the head.
type runHead struct {
	rr    recordReader
	grant ram.Grant
	recs  []byte
}

// next makes the following record the head; ok=false means the run is
// exhausted.
func (h *runHead) next(width int) (bool, error) {
	if len(h.recs) > width {
		h.recs = h.recs[width:]
		return true, nil
	}
	recs, err := h.rr.lend(width)
	if err == io.EOF {
		h.recs = nil
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("exec: row file read: %w", err)
	}
	h.recs = recs
	return true, nil
}

func (h *runHead) close() {
	h.grant.Free()
	if h.rr.r != nil {
		h.rr.r.Release()
		h.rr.r = nil
	}
}

// mergeRowRuns merges sorted runs into a new scratch run, moving the
// winning records from the page their run's stream lent to the output
// page. The heads' keys sit in one slice in run order, and the lowest
// remaining run wins a tie. Records leave in streaks: the scan that picks
// the lowest head also keeps the runner-up by (key, run), and the
// winner's following records in its lent page go with it, as one
// moveRun, for as long as each would still win against the runner-up —
// below its key, or equal to it from a lower-numbered run. Each record
// pays len(heads)−1 compares and one read, as if it had won its own scan,
// and the counted charges are paid in one batch at the end; the merge
// reports the counts it paid.
func (e *Env) mergeRowRuns(runs []*RowFile, byField int) (merged *RowFile, read, compares int64, err error) {
	fields, width := runs[0].fields, runs[0].recordWidth()
	slab := make([]runHead, len(runs)) // rule 3: the merge's per-input state
	heads := make([]*runHead, 0, len(runs))
	keys := make([]uint32, 0, len(runs))
	// settle pays the counted charges and closes every stream.
	settle := func() {
		e.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+fields), read)
		e.cpuUnits(sim.CyclesCompare, compares)
		for i := range slab {
			slab[i].close()
		}
	}
	for i, r := range runs {
		h := &slab[i]
		if err := e.Dev.RAM.AllocInto(&h.grant, e.pageSize(), "row-reader"); err != nil {
			settle()
			return nil, read, compares, err
		}
		h.rr.r = flash.NewReader(e.Dev.Flash, r.ext)
		ok, err := h.next(width)
		if err != nil {
			settle()
			return nil, read, compares, err
		}
		if !ok {
			h.close()
			continue
		}
		read++
		heads = append(heads, h)
		keys = append(keys, recordKey(h.recs, byField))
	}
	var wGrant ram.Grant
	if err := e.Dev.RAM.AllocInto(&wGrant, e.pageSize(), "merge-writer"); err != nil {
		settle()
		return nil, read, compares, err
	}
	defer wGrant.Free()
	w, err := e.newRecordWriter()
	if err != nil {
		settle()
		return nil, read, compares, err
	}
	fail := func(err error) (*RowFile, int64, int64, error) {
		settle()
		_, _ = w.close() // release the scratch writer
		return nil, read, compares, err
	}
	n := 0
	for len(keys) > 0 {
		best, second := 0, -1
		for i := 1; i < len(keys); i++ {
			switch {
			case keys[i] < keys[best]:
				best, second = i, best
			case second < 0 || keys[i] < keys[second]:
				second = i
			}
		}
		// A following record of best's stays in the streak while its key
		// is below bound: the runner-up's key, or one past it when best is
		// the lower-numbered run of the two; with no runner-up, all stay.
		bound := uint64(1) << 32
		if second >= 0 {
			bound = uint64(keys[second])
			if best < second {
				bound++
			}
		}
		h := heads[best]
		end := width
		for end < len(h.recs) && uint64(recordKey(h.recs[end:], byField)) < bound {
			end += width
		}
		if err := w.moveRun(h.recs[:end]); err != nil {
			return fail(err)
		}
		m := end / width
		n += m
		compares += int64(m) * int64(len(keys)-1)
		read += int64(m - 1)
		h.recs = h.recs[end-width:] // the streak's last record is the head
		ok, err := h.next(width)
		if err != nil {
			return fail(err)
		}
		if ok {
			read++
			keys[best] = recordKey(h.recs, byField)
			continue
		}
		h.close()
		heads = slices.Delete(heads, best, best+1)
		keys = slices.Delete(keys, best, best+1)
	}
	settle()
	ext, err := w.close()
	if err != nil {
		return nil, read, compares, err
	}
	return &RowFile{env: e, ext: ext, n: n, fields: fields}, read, compares, nil
}
