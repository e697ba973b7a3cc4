package flash

import (
	"fmt"
	"sync"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// writerPool recycles Writer structs and their page buffers across
// spills. A Writer is recycled only on successful Close; callers must
// drop it afterwards (guarded by the closed flag).
var writerPool sync.Pool

// Extent identifies a contiguous byte region on flash.
type Extent struct {
	Start int64 // absolute byte offset of the first byte
	Len   int64 // region length in bytes
}

// End returns the byte offset one past the extent.
func (e Extent) End() int64 { return e.Start + e.Len }

// Space is an append-only allocator over a contiguous range of blocks.
// GhostDB partitions the flash into a main space (database and indexes,
// written once during the secure bulk load) and a scratch space (sort runs
// and spilled intermediates, erased between uses). Regions are page
// aligned; within a region bytes are contiguous.
type Space struct {
	d          storage.Backend
	p          Params
	firstBlock int
	blocks     int
	nextPage   int // absolute page index of the next free page
	writerOpen bool
}

// NewSpace carves a space out of blocks [firstBlock, firstBlock+blocks).
func NewSpace(d storage.Backend, firstBlock, blocks int) (*Space, error) {
	p := d.Params()
	if firstBlock < 0 || blocks <= 0 || firstBlock+blocks > p.Blocks {
		return nil, fmt.Errorf("flash: space [%d,%d) outside device", firstBlock, firstBlock+blocks)
	}
	return &Space{
		d:          d,
		p:          p,
		firstBlock: firstBlock,
		blocks:     blocks,
		nextPage:   firstBlock * p.PagesPerBlock,
	}, nil
}

// Device returns the underlying storage backend.
func (s *Space) Device() storage.Backend { return s.d }

func (s *Space) limitPage() int {
	return (s.firstBlock + s.blocks) * s.p.PagesPerBlock
}

// UsedPages reports the number of pages consumed so far.
func (s *Space) UsedPages() int {
	return s.nextPage - s.firstBlock*s.p.PagesPerBlock
}

// UsedBytes reports the page-aligned footprint of the space.
func (s *Space) UsedBytes() int64 {
	return int64(s.UsedPages()) * int64(s.p.PageSize)
}

// FreeBytes reports how many bytes can still be appended.
func (s *Space) FreeBytes() int64 {
	return int64(s.limitPage()-s.nextPage) * int64(s.p.PageSize)
}

// AppendRegion writes data as a new page-aligned region and returns its
// extent. Used by the bulk loader, which builds regions in host memory
// (the initial load happens "in a secure setting" per the paper, outside
// the device RAM budget).
func (s *Space) AppendRegion(data []byte) (Extent, error) {
	w, err := s.NewWriter()
	if err != nil {
		return Extent{}, err
	}
	if _, err := w.Write(data); err != nil {
		w.abort()
		return Extent{}, err
	}
	return w.Close()
}

// AppendCells writes n cells of width bytes each (at most 8) as a new
// page-aligned region and returns its extent, like AppendRegion over
// their concatenation — the same pages programmed in the same order —
// without that image: fill(dst, lo, hi) encodes cells lo..hi-1 into dst,
// which is the unwritten part of the writer's page buffer.
func (s *Space) AppendCells(n, width int, fill func(dst []byte, lo, hi int)) (Extent, error) {
	w, err := s.NewWriter()
	if err != nil {
		return Extent{}, err
	}
	var cell [8]byte
	for i := 0; i < n; {
		if k := min(len(w.Tail())/width, n-i); k > 0 {
			fill(w.Tail()[:k*width], i, i+k)
			err = w.Commit(k * width)
			i += k
		} else { // a page remainder narrower than a cell
			fill(cell[:width], i, i+1)
			_, err = w.Write(cell[:width])
			i++
		}
		if err != nil {
			w.abort()
			return Extent{}, err
		}
	}
	return w.Close()
}

// ReleaseWriter force-abandons any open writer without flushing. The
// engine calls it when unwinding a failed operation: the error path
// that abandoned the writer cannot close it, and the space is about to
// be reset anyway. Pages the writer already programmed stay consumed
// until the space is reset.
func (s *Space) ReleaseWriter() { s.writerOpen = false }

// Reset erases every block the space has touched and rewinds it. Used for
// the scratch space between queries and between multi-pass phases.
func (s *Space) Reset() error {
	if s.writerOpen {
		return ErrWriterOpen
	}
	ppb := s.p.PagesPerBlock
	usedBlocks := (s.UsedPages() + ppb - 1) / ppb
	for i := 0; i < usedBlocks; i++ {
		if err := s.d.EraseBlock(s.firstBlock + i); err != nil {
			return err
		}
	}
	s.nextPage = s.firstBlock * ppb
	return nil
}

// Writer streams bytes into a new region of a space, programming full
// pages as they fill. Only one writer may be open per space at a time.
// The writer's page buffer is the caller's RAM responsibility (one page).
type Writer struct {
	s      *Space
	buf    []byte
	start  int64
	length int64
	closed bool
}

// NewWriter opens a streaming writer positioned at the next free page.
func (s *Space) NewWriter() (*Writer, error) {
	if s.writerOpen {
		return nil, ErrWriterOpen
	}
	s.writerOpen = true
	start := int64(s.nextPage) * int64(s.p.PageSize)
	if v := writerPool.Get(); v != nil {
		w := v.(*Writer)
		if cap(w.buf) >= s.p.PageSize {
			*w = Writer{s: s, buf: w.buf[:0], start: start}
			return w, nil
		}
	}
	return &Writer{
		s:     s,
		buf:   make([]byte, 0, s.p.PageSize),
		start: start,
	}, nil
}

// Write buffers p, programming pages as they fill. It returns ErrSpaceFull
// when the space has no room left.
func (w *Writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrWriterDone
	}
	total := 0
	for len(p) > 0 {
		n := copy(w.Tail(), p)
		p = p[n:]
		total += n
		if err := w.Commit(n); err != nil {
			return total, err
		}
	}
	return total, nil
}

// Tail lends the unwritten remainder of the page buffer: the caller
// encodes into its front and calls Commit, so a record is written once, in
// the page it is programmed from. An open writer's tail is never empty (a
// full page is programmed at once); a closed writer's, or one stopped by
// ErrSpaceFull, is — what does not fit in the tail goes through Write,
// which splits it across the page boundary and reports the error.
func (w *Writer) Tail() []byte {
	if w.closed {
		return nil
	}
	return w.buf[len(w.buf):w.s.p.PageSize]
}

// Commit appends the first n bytes of Tail to the region, programming the
// page the moment it is full, exactly where Write would.
func (w *Writer) Commit(n int) error {
	if w.closed {
		return ErrWriterDone
	}
	w.buf = w.buf[:len(w.buf)+n]
	w.length += int64(n)
	if len(w.buf) == w.s.p.PageSize {
		return w.flushPage()
	}
	return nil
}

// Len reports the number of bytes written so far.
func (w *Writer) Len() int64 { return w.length }

// Close flushes the final partial page and returns the region's extent.
func (w *Writer) Close() (Extent, error) {
	if w.closed {
		return Extent{}, ErrWriterDone
	}
	if len(w.buf) > 0 {
		if err := w.flushPage(); err != nil {
			w.abort()
			return Extent{}, err
		}
	}
	w.closed = true
	w.s.writerOpen = false
	ext := Extent{Start: w.start, Len: w.length}
	writerPool.Put(w)
	return ext, nil
}

func (w *Writer) flushPage() error {
	if w.s.nextPage >= w.s.limitPage() {
		return fmt.Errorf("%w: %d pages", ErrSpaceFull, w.s.UsedPages())
	}
	if err := w.s.d.ProgramPage(w.s.nextPage, w.buf); err != nil {
		return err
	}
	w.s.nextPage++
	w.buf = w.buf[:0]
	return nil
}

func (w *Writer) abort() {
	w.closed = true
	w.s.writerOpen = false
}
