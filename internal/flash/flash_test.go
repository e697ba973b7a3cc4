package flash

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/simflash"
)

func testParams() Params {
	return Params{
		PageSize:      128,
		PagesPerBlock: 4,
		Blocks:        16,
		ReadFixed:     10 * time.Microsecond,
		ReadPerByte:   10 * time.Nanosecond,
		ProgFixed:     50 * time.Microsecond,
		ProgPerByte:   50 * time.Nanosecond,
		EraseFixed:    500 * time.Microsecond,
	}
}

// newTestDevice backs the allocator tests with the simulated device.
func newTestDevice(t *testing.T) (*storage.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	d, err := simflash.New(testParams(), clock)
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestSpaceAppendAndReset(t *testing.T) {
	d, _ := newTestDevice(t)
	s, err := NewSpace(d, 2, 4) // pages 8..23
	if err != nil {
		t.Fatal(err)
	}
	e1, err := s.AppendRegion([]byte("hello flash"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Start != 8*128 || e1.Len != 11 {
		t.Errorf("extent %+v", e1)
	}
	// Regions are page aligned: the next region starts on a fresh page.
	e2, err := s.AppendRegion(bytes.Repeat([]byte{7}, 200))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Start != 9*128 {
		t.Errorf("second region starts at %d, want %d", e2.Start, 9*128)
	}
	if s.UsedPages() != 3 {
		t.Errorf("UsedPages = %d, want 3", s.UsedPages())
	}
	got := make([]byte, 11)
	if err := d.ReadAt(got, e1.Start); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello flash" {
		t.Errorf("read %q", got)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if s.UsedPages() != 0 {
		t.Errorf("UsedPages after reset = %d", s.UsedPages())
	}
	// Space is reusable after reset.
	if _, err := s.AppendRegion([]byte("again")); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
}

func TestSpaceBounds(t *testing.T) {
	d, _ := newTestDevice(t)
	if _, err := NewSpace(d, 15, 2); err == nil {
		t.Error("space past device end accepted")
	}
	if _, err := NewSpace(d, -1, 2); err == nil {
		t.Error("negative first block accepted")
	}
	s, _ := NewSpace(d, 0, 1) // 4 pages = 512 bytes
	if _, err := s.AppendRegion(make([]byte, 600)); !errors.Is(err, ErrSpaceFull) {
		t.Errorf("overflow: %v, want ErrSpaceFull", err)
	}
}

func TestSpaceSingleWriter(t *testing.T) {
	d, _ := newTestDevice(t)
	s, _ := NewSpace(d, 0, 2)
	w, err := s.NewWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NewWriter(); !errors.Is(err, ErrWriterOpen) {
		t.Errorf("second writer: %v", err)
	}
	if err := s.Reset(); !errors.Is(err, ErrWriterOpen) {
		t.Errorf("reset with open writer: %v", err)
	}
	if _, err := w.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 3 {
		t.Errorf("Len = %d", w.Len())
	}
	ext, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len != 3 {
		t.Errorf("extent %+v", ext)
	}
	if _, err := w.Close(); !errors.Is(err, ErrWriterDone) {
		t.Errorf("double close: %v", err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrWriterDone) {
		t.Errorf("write after close: %v", err)
	}
	if _, err := s.NewWriter(); err != nil {
		t.Errorf("writer after close: %v", err)
	}
}

func TestReaderStreams(t *testing.T) {
	d, _ := newTestDevice(t)
	s, _ := NewSpace(d, 0, 8)
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	ext, err := s.AppendRegion(payload)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(d, ext)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("streamed bytes differ")
	}
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("read past end: %v, want EOF", err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Errorf("ReadByte past end: %v, want EOF", err)
	}
}

func TestReaderByteAndSkip(t *testing.T) {
	d, _ := newTestDevice(t)
	s, _ := NewSpace(d, 0, 8)
	ext, err := s.AppendRegion([]byte{10, 20, 30, 40, 50})
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(d, ext)
	b, err := r.ReadByte()
	if err != nil || b != 10 {
		t.Fatalf("ReadByte = %d, %v", b, err)
	}
	if err := r.Skip(2); err != nil {
		t.Fatal(err)
	}
	b, err = r.ReadByte()
	if err != nil || b != 40 {
		t.Fatalf("after skip ReadByte = %d, %v", b, err)
	}
	if err := r.Skip(5); err == nil {
		t.Error("skip past end accepted")
	}
	if r.Remaining() != 1 {
		t.Errorf("Remaining = %d", r.Remaining())
	}
}

func TestReaderChargesOncePerPage(t *testing.T) {
	d, _ := newTestDevice(t)
	s, _ := NewSpace(d, 0, 8)
	ext, err := s.AppendRegion(make([]byte, 300)) // 3 pages
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	r := NewReader(d, ext)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().PageReads; got != 3 {
		t.Errorf("byte-wise scan cost %d page reads, want 3", got)
	}
}

func TestCacheHitsAndEviction(t *testing.T) {
	d, _ := newTestDevice(t)
	for p := 0; p < 4; p++ {
		if err := d.ProgramPage(p, bytes.Repeat([]byte{byte(p)}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCache(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FootprintBytes() != 256 {
		t.Errorf("FootprintBytes = %d", c.FootprintBytes())
	}
	buf := make([]byte, 4)
	// page 0 (miss), page 0 (hit), page 1 (miss), page 2 (miss, evicts 0), page 0 (miss)
	reads := []int64{0, 0, 128, 256, 0}
	for _, addr := range reads {
		if err := c.ReadAt(buf, addr); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(addr/128) {
			t.Errorf("addr %d read %d", addr, buf[0])
		}
	}
	if c.Hits() != 1 || c.Misses() != 4 {
		t.Errorf("hits=%d misses=%d, want 1/4", c.Hits(), c.Misses())
	}
	c.ResetStats()
	if c.Hits() != 0 || c.Misses() != 0 {
		t.Error("ResetStats did not zero")
	}
	c.Invalidate()
	if err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if c.Misses() != 1 {
		t.Error("Invalidate did not drop pages")
	}
	if _, err := NewCache(d, 0); err == nil {
		t.Error("zero-frame cache accepted")
	}
	if err := c.ReadAt(make([]byte, 1), d.Params().TotalBytes()); err == nil {
		t.Error("cached read past end accepted")
	}
}

func TestCacheCrossPageRead(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.ProgramPage(0, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(1, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err)
	}
	c, _ := NewCache(d, 4)
	got := make([]byte, 10)
	if err := c.ReadAt(got, 123); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 1, 1, 1, 1, 2, 2, 2, 2, 2}
	if !bytes.Equal(got, want) {
		t.Errorf("cross-page cached read % x", got)
	}
}

func TestQuickWriterReaderRoundTrip(t *testing.T) {
	f := func(chunks [][]byte) bool {
		clock := sim.NewClock()
		p := testParams()
		p.Blocks = 64
		d, err := simflash.New(p, clock)
		if err != nil {
			return false
		}
		s, err := NewSpace(d, 0, 64)
		if err != nil {
			return false
		}
		w, err := s.NewWriter()
		if err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			if len(want)+len(c) > 6000 {
				break
			}
			if _, err := w.Write(c); err != nil {
				return false
			}
			want = append(want, c...)
		}
		ext, err := w.Close()
		if err != nil || ext.Len != int64(len(want)) {
			return false
		}
		got, err := io.ReadAll(NewReader(d, ext))
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
