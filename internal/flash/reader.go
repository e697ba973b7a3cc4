package flash

import (
	"fmt"
	"io"
	"sync"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// readerPool recycles Reader structs (and their page buffers) across
// streams; one query can open dozens of short-lived readers.
var readerPool sync.Pool

// Reader streams an extent sequentially through a single-page buffer,
// implementing io.Reader and io.ByteReader and lending the buffered page
// to decoders that work in place (Window / Advance). It is the device-side
// way of scanning a region (posting list, sort run, spilled intermediate)
// with one page of RAM; the caller accounts that page against the device
// arena.
type Reader struct {
	d   storage.Backend
	p   Params
	ext Extent
	off int64 // read position within the extent

	buf      []byte // page-sized scratch
	bufAddr  int64  // absolute address of buf[0]; -1 when empty
	bufValid int    // valid bytes in buf
}

// NewReader returns a reader over ext. The reader and its page buffer
// come from a pool; callers charge PageSize bytes to their arena per
// concurrently open reader (exec does this via its stream grants) and
// should call Release when done streaming so both are recycled.
func NewReader(d storage.Backend, ext Extent) *Reader {
	p := d.Params()
	n := p.PageSize
	if v := readerPool.Get(); v != nil {
		r := v.(*Reader)
		if cap(r.buf) >= n {
			*r = Reader{d: d, p: p, ext: ext, buf: r.buf[:n], bufAddr: -1}
			return r
		}
	}
	return &Reader{d: d, p: p, ext: ext, buf: make([]byte, n), bufAddr: -1}
}

// Release returns the reader (and its page buffer) to the pool. The
// reader must not be used afterwards; Release is idempotent (the nil
// device marks a released reader).
func (r *Reader) Release() {
	if r.d == nil {
		return
	}
	r.d = nil
	readerPool.Put(r)
}

// Remaining reports the bytes left to read.
func (r *Reader) Remaining() int64 { return r.ext.Len - r.off }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.Remaining() <= 0 {
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 && r.Remaining() > 0 {
		win, err := r.Window()
		if err != nil {
			return total, err
		}
		n := copy(p, win)
		p = p[n:]
		r.off += int64(n)
		total += n
	}
	return total, nil
}

// ReadByte implements io.ByteReader.
func (r *Reader) ReadByte() (byte, error) {
	win, err := r.Window()
	if err != nil {
		return 0, err
	}
	r.off++
	return win[0], nil
}

// Window lends the unread bytes of the current page, up to the end of the
// extent, reading the page from flash if the position has just entered it
// — the one read Read or ReadByte would make there. The caller decodes in
// place and calls Advance; the window is valid until the next call that
// moves the position. At the end of the extent it returns io.EOF.
func (r *Reader) Window() ([]byte, error) {
	if r.Remaining() <= 0 {
		return nil, io.EOF
	}
	if err := r.fill(); err != nil {
		return nil, err
	}
	within := int(r.ext.Start + r.off - r.bufAddr)
	n := r.bufValid - within
	if int64(n) > r.Remaining() {
		n = int(r.Remaining())
	}
	return r.buf[within : within+n], nil
}

// Advance consumes the first n bytes of the window.
func (r *Reader) Advance(n int) { r.off += int64(n) }

// Skip advances the read position by n bytes without touching flash for
// the skipped pages.
func (r *Reader) Skip(n int64) error {
	if n < 0 || n > r.Remaining() {
		return fmt.Errorf("flash: skip %d with %d remaining", n, r.Remaining())
	}
	r.off += n
	return nil
}

// fill ensures the buffer holds the page containing the current position.
func (r *Reader) fill() error {
	abs := r.ext.Start + r.off
	ps := int64(r.p.PageSize)
	pageStart := (abs / ps) * ps
	if r.bufAddr == pageStart && int(abs-pageStart) < r.bufValid {
		return nil
	}
	// Read the whole page: the device streams full pages; partial reads of
	// the final page of the extent still cost a page access.
	n := ps
	if pageStart+n > r.p.TotalBytes() {
		n = r.p.TotalBytes() - pageStart
	}
	if err := r.d.ReadAt(r.buf[:n], pageStart); err != nil {
		// A page that fails its checksum has already been copied in:
		// the buffer no longer holds the page it is labelled with.
		r.bufAddr = -1
		return err
	}
	r.bufAddr = pageStart
	r.bufValid = int(n)
	return nil
}
