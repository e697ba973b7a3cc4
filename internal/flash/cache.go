package flash

import (
	"fmt"
	"math/bits"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// Cache is a small LRU page cache used for random flash access (SKT
// lookups, column fetches, climbing-index dictionary probes). The device
// has only a handful of frames — their RAM is charged against the device
// arena by the store layer that owns the cache.
//
// A reader that keeps coming back to its own page (a column's cell
// reads, a dictionary's binary search) carries a Hint and reads through
// Cell. A hint hit is the hit the scan would have found: a page lives in
// at most one frame, so the frame the hint names either still holds the
// page — and the access does exactly the scan's hit bookkeeping — or it
// does not, and the access falls through to the scan. Hits, misses,
// stamps, victims and every flash charge are the same with or without
// hints.
//
// Like the rest of its state, the cache is not safe for concurrent use:
// the engine touches it, and every reader's hint, only under its device
// gate.
type Cache struct {
	d      storage.Backend
	frames [][]byte
	pages  []int   // page number held by each frame, -1 when empty
	stamp  []int64 // last-use tick per frame
	tick   int64
	mru    int // frame of the last access, probed before the scan

	pageSize int
	shift    uint  // log2(pageSize) when it is a power of two, else 0
	total    int64 // device capacity in bytes

	hits   int64
	misses int64
}

// Hint is one reader's memory of where its last page was found: the page
// and the frame that held it. The cache verifies it on every use, so a
// hint left stale by Invalidate, an eviction or a failed read simply
// misses. Its zero value is ready. A hint belongs to the reader that
// carries it and is used with that reader's cache only.
type Hint struct {
	page  int
	frame int
}

// NewCache returns a cache with the given number of page frames.
func NewCache(d storage.Backend, frames int) (*Cache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("flash: cache needs at least one frame, got %d", frames)
	}
	p := d.Params()
	c := &Cache{
		d:        d,
		frames:   make([][]byte, frames),
		pages:    make([]int, frames),
		stamp:    make([]int64, frames),
		pageSize: p.PageSize,
		total:    p.TotalBytes(),
	}
	if p.PageSize > 1 && p.PageSize&(p.PageSize-1) == 0 {
		c.shift = uint(bits.TrailingZeros(uint(p.PageSize)))
	}
	for i := range c.frames {
		c.frames[i] = make([]byte, p.PageSize)
		c.pages[i] = -1
	}
	return c, nil
}

// FootprintBytes reports the RAM the cache frames occupy.
func (c *Cache) FootprintBytes() int { return len(c.frames) * c.pageSize }

// Hits reports cache hits since creation or the last ResetStats.
func (c *Cache) Hits() int64 { return c.hits }

// Misses reports cache misses (each miss is one flash page read).
func (c *Cache) Misses() int64 { return c.misses }

// ResetStats zeroes the hit/miss counters.
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// Invalidate drops all cached pages. Must be called after the scratch
// space is erased, since erased pages would otherwise read stale.
func (c *Cache) Invalidate() {
	for i := range c.pages {
		c.pages[i] = -1
	}
}

// locate splits a device address into its page and the offset within it.
func (c *Cache) locate(addr int64) (page, off int) {
	if c.shift != 0 {
		return int(addr >> c.shift), int(addr) & (c.pageSize - 1)
	}
	return int(addr / int64(c.pageSize)), int(addr % int64(c.pageSize))
}

// page returns the frame holding the given page, loading it on a miss.
// The frame of the previous access is probed first: a column scan or a
// dictionary probe stays on one page for many accesses in a row, and a
// hit there is the hit the scan would have found — same counters, same
// stamp. The victim, the first frame with the smallest stamp, is looked
// for only once the scan has missed.
func (c *Cache) page(page int) ([]byte, error) {
	c.tick++
	if c.pages[c.mru] == page {
		c.hits++
		c.stamp[c.mru] = c.tick
		return c.frames[c.mru], nil
	}
	for i, p := range c.pages {
		if p == page {
			c.hits++
			c.stamp[i] = c.tick
			c.mru = i
			return c.frames[i], nil
		}
	}
	victim := 0
	for i, st := range c.stamp {
		if st < c.stamp[victim] {
			victim = i
		}
	}
	c.misses++
	// The victim is empty until the read succeeds: a page that fails its
	// checksum has already overwritten the frame, which must not go on
	// answering for the page it held before.
	c.pages[victim] = -1
	if err := c.d.ReadPage(page, c.frames[victim]); err != nil {
		return nil, err
	}
	c.pages[victim] = page
	c.stamp[victim] = c.tick
	c.mru = victim
	return c.frames[victim], nil
}

// Cell returns the n bytes at addr. A cell that lies in one page is
// returned as a sub-slice of the frame holding it — valid only until the
// next access to the cache, so the caller decodes it straight away. A
// cell that straddles pages (or is empty) is copied page by page, as
// ReadAt does, into buf (grown when shorter than n).
//
// The reader's hint is probed before page's MRU probe and scan (see
// Cache); on any other access the hint records the frame page returns.
func (c *Cache) Cell(h *Hint, addr int64, n int, buf []byte) ([]byte, error) {
	if addr < 0 || addr+int64(n) > c.total {
		return nil, fmt.Errorf("%w: cached read [%d, %d)", ErrOutOfRange, addr, addr+int64(n))
	}
	page, off := c.locate(addr)
	if n <= 0 || off+n > c.pageSize {
		if cap(buf) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		return buf, c.ReadAt(buf, addr)
	}
	var frame []byte
	if f := h.frame; h.page == page && c.pages[f] == page {
		c.tick++
		c.hits++
		c.stamp[f] = c.tick
		c.mru = f
		frame = c.frames[f]
	} else {
		var err error
		if frame, err = c.page(page); err != nil {
			return nil, err
		}
		h.page, h.frame = page, c.mru
	}
	return frame[off : off+n : off+n], nil
}

// ReadAt fills dst from addr, serving whole pages through the cache.
func (c *Cache) ReadAt(dst []byte, addr int64) error {
	if addr < 0 || addr+int64(len(dst)) > c.total {
		return fmt.Errorf("%w: cached read [%d, %d)", ErrOutOfRange, addr, addr+int64(len(dst)))
	}
	for len(dst) > 0 {
		page, off := c.locate(addr)
		frame, err := c.page(page)
		if err != nil {
			return err
		}
		n := copy(dst, frame[off:])
		dst = dst[n:]
		addr += int64(n)
	}
	return nil
}
