package exec

// The one codec of a scratch record — (seq, ids...) as little-endian
// uint32 words; a spilled ID run is the record with no ID fields — and
// the only place the executor moves record bytes (batch.go rule 4).

import (
	"encoding/binary"
	"io"

	"github.com/ghostdb/ghostdb/internal/flash"
)

func putRecord(rec []byte, seq uint32, ids []uint32) {
	_ = rec[4*len(ids)+3]
	binary.LittleEndian.PutUint32(rec, seq)
	for i, id := range ids {
		binary.LittleEndian.PutUint32(rec[4*(i+1):], id)
	}
}

func getRecord(rec []byte, ids []uint32) (seq uint32) {
	_ = rec[4*len(ids)+3]
	for i := range ids {
		ids[i] = binary.LittleEndian.Uint32(rec[4*(i+1):])
	}
	return binary.LittleEndian.Uint32(rec)
}

// recordWriter appends records to a scratch region. The page buffer it
// encodes into is the flash.Writer's; the caller holds its RAM grant.
type recordWriter struct {
	w     *flash.Writer
	stage []byte // a record that straddles, allocated when the first one does
}

func (e *Env) newRecordWriter() (recordWriter, error) {
	w, err := e.Dev.Scratch.NewWriter()
	return recordWriter{w: w}, err
}

// put appends len(seq) records of 1+fields words each: seq[i], then the
// ID fields ids[i*fields:]. A page is programmed the moment a record
// fills it.
func (rw *recordWriter) put(seq, ids []uint32, fields int) error {
	width := 4 * (1 + fields)
	for i := 0; i < len(seq); {
		tail := rw.w.Tail()
		k := min(len(tail)/width, len(seq)-i)
		if k == 0 {
			if cap(rw.stage) < width {
				rw.stage = make([]byte, width)
			}
			rec := rw.stage[:width]
			putRecord(rec, seq[i], ids[i*fields:(i+1)*fields])
			if _, err := rw.w.Write(rec); err != nil {
				return err
			}
			i++
			continue
		}
		for rec := tail[:k*width]; len(rec) > 0; rec = rec[width:] {
			putRecord(rec, seq[i], ids[i*fields:(i+1)*fields])
			i++
		}
		if err := rw.w.Commit(k * width); err != nil {
			return err
		}
	}
	return nil
}

// putRow appends one record: put for a batch of one, without the batch
// loop when the record fits the tail.
func (rw *recordWriter) putRow(seq uint32, ids []uint32) error {
	if rec, width := rw.w.Tail(), 4*(1+len(ids)); len(rec) >= width {
		putRecord(rec, seq, ids)
		return rw.w.Commit(width)
	}
	one := [1]uint32{seq}
	return rw.put(one[:], ids, len(ids))
}

func (rw *recordWriter) close() (flash.Extent, error) { return rw.w.Close() }

// recordReader decodes the records of a scratch region in order.
type recordReader struct {
	r     *flash.Reader
	stage []byte // as recordWriter's
}

// next decodes len(seq) records of 1+fields words each: record i's first
// word into seq[i], its ID fields into ids[i*fields:]. It touches a page
// only for a record it returns.
func (rr *recordReader) next(seq, ids []uint32, fields int) error {
	width := 4 * (1 + fields)
	for i := 0; i < len(seq); {
		win, err := rr.r.Window()
		if err != nil {
			return err
		}
		if len(win) < width {
			if cap(rr.stage) < width {
				rr.stage = make([]byte, width)
			}
			rec := rr.stage[:width]
			if _, err := io.ReadFull(rr.r, rec); err != nil {
				return err
			}
			seq[i] = getRecord(rec, ids[i*fields:(i+1)*fields])
			i++
			continue
		}
		k := min(len(win)/width, len(seq)-i)
		if fields == 0 { // a run: the window is the IDs
			for j := range seq[i : i+k] {
				seq[i+j] = binary.LittleEndian.Uint32(win[4*j:])
			}
		} else {
			for j, rec := i, win[:k*width]; len(rec) > 0; j, rec = j+1, rec[width:] {
				seq[j] = getRecord(rec, ids[j*fields:(j+1)*fields])
			}
		}
		i += k
		rr.r.Advance(k * width)
	}
	return nil
}
