package flash

import (
	"fmt"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// Cache is a small LRU page cache used for random flash access (SKT
// lookups, column fetches, climbing-index dictionary probes). The device
// has only a handful of frames — their RAM is charged against the device
// arena by the store layer that owns the cache.
type Cache struct {
	d      storage.Backend
	p      Params
	frames [][]byte
	pages  []int   // page number held by each frame, -1 when empty
	stamp  []int64 // last-use tick per frame
	tick   int64
	mru    int // frame of the last access, probed before the scan

	hits   int64
	misses int64
}

// NewCache returns a cache with the given number of page frames.
func NewCache(d storage.Backend, frames int) (*Cache, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("flash: cache needs at least one frame, got %d", frames)
	}
	c := &Cache{
		d:      d,
		p:      d.Params(),
		frames: make([][]byte, frames),
		pages:  make([]int, frames),
		stamp:  make([]int64, frames),
	}
	for i := range c.frames {
		c.frames[i] = make([]byte, c.p.PageSize)
		c.pages[i] = -1
	}
	return c, nil
}

// FootprintBytes reports the RAM the cache frames occupy.
func (c *Cache) FootprintBytes() int { return len(c.frames) * c.p.PageSize }

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

// page returns the frame holding the given page, loading it on a miss.
// The frame of the previous access is probed first: a column scan or a
// dictionary probe stays on one page for many accesses in a row, and a
// hit there is the hit the scan would have found — same counters, same
// stamp, and no victim is chosen on a hit.
func (c *Cache) page(page int) ([]byte, error) {
	c.tick++
	if c.pages[c.mru] == page {
		c.hits++
		c.stamp[c.mru] = c.tick
		return c.frames[c.mru], nil
	}
	victim := 0
	for i, p := range c.pages {
		if p == page {
			c.hits++
			c.stamp[i] = c.tick
			c.mru = i
			return c.frames[i], nil
		}
		if c.stamp[i] < c.stamp[victim] {
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

// ReadAt fills dst from addr, serving whole pages through the cache.
func (c *Cache) ReadAt(dst []byte, addr int64) error {
	if addr < 0 || addr+int64(len(dst)) > c.p.TotalBytes() {
		return fmt.Errorf("%w: cached read [%d, %d)", ErrOutOfRange, addr, addr+int64(len(dst)))
	}
	ps := int64(c.p.PageSize)
	for len(dst) > 0 {
		page := int(addr / ps)
		off := int(addr % ps)
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
