package flash

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/simflash"
)

// lend writes p the way a record encoder does: in the tail the writer
// lends when it fits there whole, through Write when it does not.
func lend(w *Writer, p []byte) error {
	if tail := w.Tail(); len(tail) >= len(p) {
		copy(tail, p)
		return w.Commit(len(p))
	}
	_, err := w.Write(p)
	return err
}

// writeCopied is the same call shape over Write alone.
func writeCopied(w *Writer, p []byte) error {
	_, err := w.Write(p)
	return err
}

// refWrite is Writer.Write as it stood before the page was lent: p is
// copied into the page buffer, which is programmed when it fills.
func refWrite(w *Writer, p []byte) error {
	if w.closed {
		return ErrWriterDone
	}
	ps := w.s.p.PageSize
	for len(p) > 0 {
		take := min(ps-len(w.buf), len(p))
		w.buf = append(w.buf, p[:take]...)
		p = p[take:]
		w.length += int64(take)
		if len(w.buf) == ps {
			if err := w.flushPage(); err != nil {
				return err
			}
		}
	}
	return nil
}

// refRead is Reader.Read as it stood then: the buffered page is copied out.
func refRead(r *Reader, p []byte) error {
	for len(p) > 0 {
		if r.Remaining() <= 0 {
			return io.EOF
		}
		if err := r.fill(); err != nil {
			return err
		}
		within := int(r.ext.Start + r.off - r.bufAddr)
		n := min(r.bufValid-within, int(r.Remaining()), len(p))
		copy(p, r.buf[within:within+n])
		p = p[n:]
		r.off += int64(n)
	}
	return nil
}

// programmedPages renders every programmed page of the device.
func programmedPages(t *testing.T, d *storage.Device) string {
	t.Helper()
	img, err := d.Image()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	p := d.Params()
	for page := 0; page < p.Blocks*p.PagesPerBlock; page++ {
		if data, ok, err := img.ReadPage(page); err != nil {
			t.Fatal(err)
		} else if ok {
			fmt.Fprintf(&b, "%d:%x\n", page, data)
		}
	}
	return b.String()
}

// TestLentTailMatchesWrite: a region written through the lent tail, or
// through Write (which lends to itself), is the region the copying Write
// wrote — same pages programmed at the same calls (so the same clock after
// every chunk), same extent — and the lent window, and Read over it, read
// it back with the page reads the copying Read made, at the same points.
func TestLentTailMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	writes := []func(*Writer, []byte) error{lend, writeCopied, refWrite} // the last is the reference
	for trial := 0; trial < 40; trial++ {
		var chunks [][]byte
		for total := 0; total < 1500; {
			c := make([]byte, rng.Intn(3*testParams().PageSize/2)) // some wider than a page, some empty
			rng.Read(c)
			chunks = append(chunks, c)
			total += len(c)
		}
		type side struct {
			d     *storage.Device
			clock *sim.Clock
			w     *Writer
			ext   Extent
		}
		sides := make([]side, len(writes))
		for i := range sides {
			d, clock := newTestDevice(t)
			s, err := NewSpace(d, 0, 16)
			if err != nil {
				t.Fatal(err)
			}
			w, err := s.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			sides[i] = side{d: d, clock: clock, w: w}
		}
		ref := &sides[len(sides)-1]
		for ci, c := range chunks {
			for i := range sides {
				if err := writes[i](sides[i].w, c); err != nil {
					t.Fatal(err)
				}
				if a, b := sides[i].clock.Now(), sides[0].clock.Now(); a != b {
					t.Fatalf("trial %d chunk %d: clock %v on side %d, %v on side 0: a page was programmed at a different call", trial, ci, a, i, b)
				}
			}
		}
		wantPages := ""
		for i := len(sides) - 1; i >= 0; i-- {
			ext, err := sides[i].w.Close()
			if err != nil {
				t.Fatal(err)
			}
			sides[i].ext = ext
			pages := programmedPages(t, sides[i].d)
			if i == len(sides)-1 {
				wantPages = pages
			}
			if ext != ref.ext || sides[i].d.Stats() != ref.d.Stats() || pages != wantPages {
				t.Fatalf("trial %d side %d: %+v %+v, the copying Write %+v %+v (or the flash images differ)", trial, i, ext, sides[i].d.Stats(), ref.ext, ref.d.Stats())
			}
		}

		// Read back in the same chunks: the window, Read, and the copying Read.
		readers := make([]*Reader, len(sides))
		for i := range sides {
			readers[i] = NewReader(sides[i].d, sides[i].ext)
		}
		for ci, c := range chunks {
			var got []byte
			for len(got) < len(c) {
				w, err := readers[0].Window()
				if err != nil {
					t.Fatal(err)
				}
				n := min(len(w), len(c)-len(got))
				got = append(got, w[:n]...)
				readers[0].Advance(n)
			}
			plain, old := make([]byte, len(c)), make([]byte, len(c))
			if _, err := io.ReadFull(readers[1], plain); err != nil {
				t.Fatal(err)
			}
			if err := refRead(readers[2], old); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, c) || !bytes.Equal(plain, c) || !bytes.Equal(old, c) {
				t.Fatalf("trial %d chunk %d: read back differs", trial, ci)
			}
			for i := range sides {
				if a, b := sides[i].d.Stats(), ref.d.Stats(); a != b {
					t.Fatalf("trial %d chunk %d: side %d read %+v, the copying Read %+v", trial, ci, i, a, b)
				}
			}
		}
		if _, err := readers[0].Window(); err != io.EOF {
			t.Fatalf("window past the extent: %v, want io.EOF", err)
		}
	}
}

// TestLentTailEdges: where Write fails or splits, writing through the
// lent tail returns what Write returns and leaves the writer where Write
// leaves it.
func TestLentTailEdges(t *testing.T) {
	for name, put := range map[string]func(*Writer, []byte) error{"lent": lend, "Write": writeCopied, "copying Write": refWrite} {
		t.Run(name, func(t *testing.T) {
			d, _ := newTestDevice(t)
			s, _ := NewSpace(d, 0, 1) // 4 pages of 128 bytes
			w, err := s.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			// Wider than a page: split across two.
			if err := put(w, make([]byte, 200)); err != nil {
				t.Fatalf("200-byte record: %v", err)
			}
			if w.Len() != 200 || s.UsedPages() != 1 {
				t.Fatalf("after a 200-byte record: Len %d, %d pages", w.Len(), s.UsedPages())
			}
			// Fill the space exactly: the last page is programmed by this call.
			if err := put(w, make([]byte, 4*128-200)); err != nil {
				t.Fatalf("filling the space: %v", err)
			}
			if s.UsedPages() != 4 {
				t.Fatalf("%d pages used, want 4", s.UsedPages())
			}
			// The page that would be the fifth fails when it fills, and again after.
			if err := put(w, make([]byte, 100)); err != nil {
				t.Fatalf("a partial page beyond the space is only buffered: %v", err)
			}
			for i := 0; i < 2; i++ {
				if err := put(w, make([]byte, 28)); !errors.Is(err, ErrSpaceFull) {
					t.Fatalf("full space, call %d: %v, want ErrSpaceFull", i, err)
				}
			}
			if len(w.Tail()) != 0 {
				t.Errorf("a writer stopped by ErrSpaceFull lends %d bytes", len(w.Tail()))
			}

			s2, _ := NewSpace(d, 1, 1)
			w2, err := s2.NewWriter()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if w2.Tail() != nil {
				t.Error("a closed writer lends a tail")
			}
			if err := put(w2, []byte{1}); !errors.Is(err, ErrWriterDone) {
				t.Errorf("after Close: %v, want ErrWriterDone", err)
			}
			if err := w2.Commit(0); !errors.Is(err, ErrWriterDone) {
				t.Errorf("Commit after Close: %v, want ErrWriterDone", err)
			}
		})
	}
}

// refLRU is Cache.page as it stood before the most-recent-frame probe:
// one scan that finds the page or the least recently used victim.
type refLRU struct {
	pages  []int
	stamp  []int64
	tick   int64
	hits   int64
	misses int64
}

func newRefLRU(frames int) *refLRU {
	ref := &refLRU{pages: make([]int, frames), stamp: make([]int64, frames)}
	ref.invalidate()
	return ref
}

func (c *refLRU) invalidate() {
	for i := range c.pages {
		c.pages[i] = -1
	}
}

func (c *refLRU) access(page int) (frame int, hit bool) {
	return c.accessOrFail(page, false)
}

// accessOrFail is access whose flash read, on a miss, fails when fail is
// set: the victim is then left empty.
func (c *refLRU) accessOrFail(page int, fail bool) (frame int, hit bool) {
	c.tick++
	victim := 0
	for i, p := range c.pages {
		if p == page {
			c.hits++
			c.stamp[i] = c.tick
			return i, true
		}
		if c.stamp[i] < c.stamp[victim] {
			victim = i
		}
	}
	c.misses++
	if fail {
		c.pages[victim] = -1
		return victim, false
	}
	c.pages[victim], c.stamp[victim] = page, c.tick
	return victim, false
}

// TestCacheProbeKeepsLRUOrder: probing the last frame first changes no
// hit, miss, stamp or victim — every access lands in the frame the plain
// scan puts it in.
func TestCacheProbeKeepsLRUOrder(t *testing.T) {
	d, _ := newTestDevice(t)
	rng := rand.New(rand.NewSource(7))
	for _, frames := range []int{1, 2, 3, 8} {
		c, err := NewCache(d, frames)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefLRU(frames)
		page := 0
		for i := 0; i < 5000; i++ {
			switch rng.Intn(4) { // runs on one page, steps, jumps
			case 0:
				page = rng.Intn(12)
			case 1:
				page = (page + 1) % 12
			}
			if rng.Intn(500) == 0 {
				c.Invalidate()
				ref.invalidate()
			}
			if _, err := c.page(page); err != nil {
				t.Fatal(err)
			}
			ref.access(page)
			for j := range ref.pages {
				if c.pages[j] != ref.pages[j] || c.stamp[j] != ref.stamp[j] {
					t.Fatalf("%d frames, access %d (page %d): frames %v stamps %v, plain scan has %v %v",
						frames, i, page, c.pages, c.stamp, ref.pages, ref.stamp)
				}
			}
			if c.Misses() != ref.misses {
				t.Fatalf("%d frames, access %d: %d misses, plain scan %d", frames, i, c.Misses(), ref.misses)
			}
		}
	}
	// Readers that each carry their own hint, interleaved, land every
	// access where the plain scan and a ReadAt-only cache land it.
	for _, frames := range []int{1, 2, 3, 8} {
		for readers := 1; readers <= 4; readers++ {
			checkHintTrace(t, int64(frames*10+readers), frames, readers, 4000)
		}
	}
}

// Pages of the hint traces: cells fall in pages [0, tracePages), and one
// read of failPage fails its checksum.
const (
	tracePages = 12
	failPage   = 20
)

// checkHintTrace replays steps random cell reads by readers readers over
// three caches of frames frames: one read through Cell with a hint per
// reader, a twin read through ReadAt only, and the plain-scan reference.
// Each reader reads cells of its own width (some straddle pages) in runs
// on one page, steps to the next cell and jumps; the trace mixes in
// Invalidate and, halfway, one read that fails and empties its victim.
// After every access the frames, stamps, hits, misses, device Stats and
// the bytes read must agree.
func checkHintTrace(t *testing.T, seed int64, frames, readers, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var fill []int
	for p := 0; p < tracePages; p++ {
		fill = append(fill, p)
	}
	fill = append(fill, failPage)
	dh, injh := rottenDevice(t, fill...)
	dp, injp := rottenDevice(t, fill...)
	hinted, err := NewCache(dh, frames)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewCache(dp, frames)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefLRU(frames)
	ps := int64(testParams().PageSize)
	widths := []int{1, 4, 8, 13, 64, 200}
	hints := make([]Hint, readers)
	width := make([]int, readers)
	addr := make([]int64, readers)
	for r := range width {
		width[r] = widths[rng.Intn(len(widths))]
	}
	buf := make([]byte, 256)
	for i := 0; i < steps; i++ {
		r := rng.Intn(readers)
		n := width[r]
		limit := tracePages*ps - int64(n)
		switch rng.Intn(4) { // 0 jumps, 1 steps, otherwise a run on the page
		case 0:
			addr[r] = rng.Int63n(limit + 1)
		case 1:
			addr[r] += int64(n)
		default:
			addr[r] = addr[r]/ps*ps + rng.Int63n(ps)
		}
		addr[r] = min(addr[r], limit)
		if rng.Intn(500) == 0 {
			hinted.Invalidate()
			plain.Invalidate()
			ref.invalidate()
		}
		at, m := addr[r], n
		fail := i == steps/2
		if fail {
			at, m = failPage*ps+int64(rng.Intn(int(ps))), 1
			injh.Arm()
			injp.Arm()
		}
		got, errH := hinted.Cell(&hints[r], at, m, nil)
		errP := plain.ReadAt(buf[:m], at)
		if fail {
			injh.Disarm()
			injp.Disarm()
			if !errors.Is(errH, ErrCorrupt) || !errors.Is(errP, ErrCorrupt) {
				t.Fatalf("seed %d: reading the rotten page: %v (hinted), %v (plain), want ErrCorrupt", seed, errH, errP)
			}
			ref.accessOrFail(failPage, true)
		} else {
			if errH != nil || errP != nil {
				t.Fatalf("seed %d, access %d: %v (hinted), %v (plain)", seed, i, errH, errP)
			}
			if !bytes.Equal(got, buf[:m]) {
				t.Fatalf("seed %d, access %d: cell [%d, +%d) reads % x, ReadAt % x", seed, i, at, m, got, buf[:m])
			}
			for p := at / ps; p <= (at+int64(m)-1)/ps; p++ {
				ref.access(int(p))
			}
		}
		for j := range ref.pages {
			if hinted.pages[j] != ref.pages[j] || hinted.stamp[j] != ref.stamp[j] ||
				plain.pages[j] != ref.pages[j] || plain.stamp[j] != ref.stamp[j] {
				t.Fatalf("seed %d, %d frames, %d readers, access %d (reader %d, [%d, +%d)): hinted %v %v, plain %v %v, reference %v %v",
					seed, frames, readers, i, r, at, m, hinted.pages, hinted.stamp, plain.pages, plain.stamp, ref.pages, ref.stamp)
			}
		}
		if hinted.Hits() != ref.hits || hinted.Misses() != ref.misses || plain.Hits() != ref.hits || plain.Misses() != ref.misses {
			t.Fatalf("seed %d, access %d: hinted %d hits / %d misses, plain %d / %d, reference %d / %d",
				seed, i, hinted.Hits(), hinted.Misses(), plain.Hits(), plain.Misses(), ref.hits, ref.misses)
		}
		if dh.Stats() != dp.Stats() {
			t.Fatalf("seed %d, access %d: device stats %+v hinted, %+v plain", seed, i, dh.Stats(), dp.Stats())
		}
	}
}

// FuzzCacheHints runs the hint trace at fuzzed seeds, frame and reader
// counts and lengths.
func FuzzCacheHints(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint16(500))
	f.Add(int64(2), uint8(3), uint8(4), uint16(2000))
	f.Add(int64(3), uint8(8), uint8(2), uint16(3))
	f.Fuzz(func(t *testing.T, seed int64, frames, readers uint8, steps uint16) {
		checkHintTrace(t, seed, 1+int(frames)%8, 1+int(readers)%4, int(steps)%4000)
	})
}

// rottenDevice programs each given page with a fill of its own on a device
// whose every armed read flips a stored bit; it comes back disarmed.
func rottenDevice(t *testing.T, pages ...int) (*storage.Device, *fault.Injector) {
	t.Helper()
	d, err := simflash.New(testParams(), sim.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(&fault.Plan{Seed: 1, BitFlip: 1}, 0)
	inj.Disarm()
	d.SetInjector(inj)
	for _, p := range pages {
		if err := d.ProgramPage(p, bytes.Repeat([]byte{byte(p)}, testParams().PageSize)); err != nil {
			t.Fatal(err)
		}
	}
	return d, inj
}

// TestCacheFailedReadEmptiesVictim: a page that fails its checksum has
// already been copied into the victim frame, so the frame must stop
// answering for the page it held — the next access to that page is a miss
// that re-reads flash, not a hit on the failed page's bytes.
func TestCacheFailedReadEmptiesVictim(t *testing.T) {
	const a, b, other = 4, 5, 6
	d, inj := rottenDevice(t, a, b, other)
	c, err := NewCache(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := int64(testParams().PageSize)
	one := make([]byte, 1)
	for _, p := range []int64{a, other} { // a is now the least recently used frame
		if err := c.ReadAt(one, p*ps); err != nil {
			t.Fatal(err)
		}
	}
	inj.Arm()
	if err := c.ReadAt(one, b*ps); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading the rotten page: %v, want ErrCorrupt", err)
	}
	inj.Disarm()
	misses, reads := c.Misses(), d.Stats().PageReads
	if err := c.ReadAt(one, a*ps+17); err != nil {
		t.Fatal(err)
	}
	if one[0] != a {
		t.Errorf("page %d reads %#x after a failed read evicted it: the frame still answered for it", a, one[0])
	}
	if c.Misses() != misses+1 || d.Stats().PageReads != reads+1 {
		t.Errorf("page %d was served without re-reading flash (%d misses, %d page reads more)", a, c.Misses()-misses, d.Stats().PageReads-reads)
	}
}

// TestReaderFailedFillEmptiesBuffer is the same rule for the streaming
// reader's one page.
func TestReaderFailedFillEmptiesBuffer(t *testing.T) {
	const a, b = 4, 5
	d, inj := rottenDevice(t, a, b)
	ps := int64(testParams().PageSize)
	r := NewReader(d, Extent{Start: a * ps, Len: 2 * ps})
	if _, err := r.Window(); err != nil {
		t.Fatal(err)
	}
	r.Advance(int(ps))
	inj.Arm()
	if _, err := r.Window(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading the rotten page: %v, want ErrCorrupt", err)
	}
	if r.bufAddr != -1 {
		t.Errorf("the buffer is still labelled %d over the failed page's bytes", r.bufAddr)
	}
}
