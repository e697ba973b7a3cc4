package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/sim"
)

// pagedEnv is a small device with the given flash page size.
func pagedEnv(t *testing.T, pageSize int) *Env {
	t.Helper()
	p := device.SmartUSB2007()
	p.Flash.PageSize = pageSize
	p.Flash.Blocks = 64
	p.ScratchBlocks = 16
	dev, err := device.New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewEnv(dev)
}

// scratchPages renders every page the scratch space has handed out, and
// the one after (which must not be programmed).
func scratchPages(t *testing.T, e *Env) string {
	t.Helper()
	img, err := e.Dev.Flash.Image()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	p := e.Dev.Profile
	first := (p.Flash.Blocks - p.ScratchBlocks) * p.Flash.PagesPerBlock
	for page := first; page <= first+e.Dev.Scratch.UsedPages(); page++ {
		if data, ok, err := img.ReadPage(page); err != nil {
			t.Fatal(err)
		} else if ok {
			fmt.Fprintf(&b, "%d:%x\n", page, data)
		}
	}
	return b.String()
}

// spent is what a device has been charged so far.
type spent struct {
	clock time.Duration
	flash flash.Stats
}

func spentOn(e *Env) spent { return spent{e.Dev.Clock.Now(), e.Dev.Flash.Stats()} }

// refWriteRows is the record loop every row-file writer had before the
// page was lent: one record staged, then copied into the page buffer by
// flash.Writer.Write.
func refWriteRows(t *testing.T, e *Env, seqs []uint32, rows [][]uint32, fields int) *RowFile {
	t.Helper()
	grant, err := e.Dev.RAM.Alloc(e.pageSize(), "row-writer")
	if err != nil {
		t.Fatal(err)
	}
	defer grant.Free()
	w, err := e.Dev.Scratch.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, 4*(1+fields))
	for i, ids := range rows {
		binary.LittleEndian.PutUint32(rec[0:], seqs[i])
		for f, id := range ids {
			binary.LittleEndian.PutUint32(rec[4*(f+1):], id)
		}
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	e.cpuUnits(int64(sim.CyclesCopyWord)*int64(1+fields), int64(len(rows)))
	ext, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return &RowFile{env: e, ext: ext, n: len(rows), fields: fields}
}

// TestRecordsLentMatchCopied: a row file written through the lent page
// tail is, byte for byte and page program for page program, the file the
// staged-record loop wrote, and the window decoder reads it back with the
// page reads — and the clock — of the record-at-a-time reader, at every
// row-batch length. Row counts sit on both sides of each of the first
// four page boundaries, where a record straddles or just fits.
func TestRecordsLentMatchCopied(t *testing.T) {
	writers := map[string]func(e *Env, seqs []uint32, rows [][]uint32, fields int) (*RowFile, error){
		"MaterializeRowsBatch": func(e *Env, seqs []uint32, rows [][]uint32, fields int) (*RowFile, error) {
			return e.MaterializeRowsBatch(&sliceRowBatch{rows: rows, seqs: seqs}, fields, false, op())
		},
		"RowFileWriter": func(e *Env, seqs []uint32, rows [][]uint32, fields int) (*RowFile, error) {
			w, err := e.NewRowFileWriter(fields)
			if err != nil {
				return nil, err
			}
			for i, ids := range rows {
				if err := w.Write(Row{Seq: seqs[i], IDs: ids}); err != nil {
					return nil, err
				}
			}
			return w.Close()
		},
	}
	for _, pageSize := range []int{64, 512, 2048} {
		for fields := 0; fields <= 6; fields++ {
			width := 4 * (1 + fields)
			counts := map[int]bool{0: true, 1: true}
			for page := 1; page <= 4; page++ {
				for d := -1; d <= 1; d++ {
					counts[page*pageSize/width+d] = true
				}
			}
			for n := range counts {
				seqs, rows := make([]uint32, n), make([][]uint32, n)
				for i := range rows {
					seqs[i] = uint32(7*i + 3)
					rows[i] = make([]uint32, fields)
					for f := range rows[i] {
						rows[i][f] = uint32(i)<<8 | uint32(f+1)
					}
				}
				ref := pagedEnv(t, pageSize)
				refRF := refWriteRows(t, ref, seqs, rows, fields)
				wantPages, wantWritten := scratchPages(t, ref), spentOn(ref)
				in, err := newRefRowReader(refRF)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; ; i++ {
					r, ok, err := in.Next()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					if r.Seq != seqs[i] || (fields > 0 && !reflect.DeepEqual(r.IDs, rows[i])) {
						t.Fatalf("the reference reader itself misreads row %d", i)
					}
				}
				in.Close()
				wantRead := spentOn(ref)

				for name, write := range writers {
					for _, batchLen := range diffLens {
						what := fmt.Sprintf("page %d, %d fields, %d rows, %s, batch length %d", pageSize, fields, n, name, batchLen)
						e := pagedEnv(t, pageSize)
						e.SetBatchLen(batchLen)
						rf, err := write(e, seqs, rows, fields)
						if err != nil {
							t.Fatalf("%s: %v", what, err)
						}
						if got := scratchPages(t, e); got != wantPages {
							t.Fatalf("%s: the flash image differs from the staged-record file", what)
						}
						if got := spentOn(e); got != wantWritten {
							t.Fatalf("%s: writing spent %+v, the staged-record loop %+v", what, got, wantWritten)
						}
						gotSeqs, gotRows := collectRows(t, e, rf)
						if n > 0 && (!reflect.DeepEqual(gotSeqs, seqs) || (fields > 0 && !reflect.DeepEqual(gotRows, rows))) {
							t.Fatalf("%s: read back %v %v", what, gotSeqs, gotRows)
						}
						if len(gotSeqs) != n {
							t.Fatalf("%s: read back %d rows", what, len(gotSeqs))
						}
						if got := spentOn(e); got != wantRead {
							t.Fatalf("%s: reading spent %+v, the record-at-a-time reader %+v", what, got, wantRead)
						}
						if e.Dev.RAM.Used() != 0 {
							t.Fatalf("%s: %d bytes of RAM still granted", what, e.Dev.RAM.Used())
						}
					}
				}
			}
		}
	}
}
