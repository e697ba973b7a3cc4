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

// recordKey decodes ID field field of the record at rec: the one word the
// external sort reads of a record it moves.
func recordKey(rec []byte, field int) uint32 {
	return binary.LittleEndian.Uint32(rec[4*(1+field):])
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

// move appends one encoded record, copying its bytes into the tail; a
// record that straddles the page goes through Write.
func (rw *recordWriter) move(rec []byte) error {
	if tail := rw.w.Tail(); len(tail) >= len(rec) {
		copy(tail, rec)
		return rw.w.Commit(len(rec))
	}
	_, err := rw.w.Write(rec)
	return err
}

// moveSorted appends the width-byte records of buf in keys' order: as
// many as the tail holds are copied into it, then committed at once.
func (rw *recordWriter) moveSorted(buf []byte, width int, keys []sortKey) error {
	for len(keys) > 0 {
		tail := rw.w.Tail()
		k := min(len(tail)/width, len(keys))
		if k == 0 {
			p := int(keys[0].pos) * width
			if err := rw.move(buf[p : p+width]); err != nil {
				return err
			}
			keys = keys[1:]
			continue
		}
		for i, sk := range keys[:k] {
			p := int(sk.pos) * width
			copy(tail[i*width:(i+1)*width], buf[p:p+width])
		}
		if err := rw.w.Commit(k * width); err != nil {
			return err
		}
		keys = keys[k:]
	}
	return nil
}

func (rw *recordWriter) close() (flash.Extent, error) { return rw.w.Close() }

// recordReader decodes the records of a scratch region in order.
type recordReader struct {
	r     *flash.Reader
	stage []byte // as recordWriter's
}

// fill copies the next len(dst) bytes of records into dst, reading each
// page when its first byte is needed: run formation's sort buffer, the
// one place a record is copied out of the page it was read into.
func (rr *recordReader) fill(dst []byte) error {
	_, err := io.ReadFull(rr.r, dst)
	return err
}

// lend returns the next width-byte records without copying them: every
// whole record left in the current page, or one staged record when the
// next straddles the page boundary. They stay valid until the next call
// on the reader. At the end of the region it returns io.EOF.
func (rr *recordReader) lend(width int) ([]byte, error) {
	win, err := rr.r.Window()
	if err != nil {
		return nil, err
	}
	if k := len(win) / width; k > 0 {
		rr.r.Advance(k * width)
		return win[:k*width], nil
	}
	return rr.staged(width)
}

// staged reads the one width-byte record that straddles the page boundary
// into the stage, allocated when the first one does.
func (rr *recordReader) staged(width int) ([]byte, error) {
	if cap(rr.stage) < width {
		rr.stage = make([]byte, width)
	}
	rec := rr.stage[:width]
	if _, err := io.ReadFull(rr.r, rec); err != nil {
		return nil, err
	}
	return rec, nil
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
			rec, err := rr.staged(width)
			if err != nil {
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
