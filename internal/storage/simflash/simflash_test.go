package simflash

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
)

func testParams() storage.Params {
	return storage.Params{
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

func newTestDevice(t *testing.T) (*storage.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	d, err := New(testParams(), clock)
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := testParams()
	bad.PageSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero page size accepted")
	}
	neg := testParams()
	neg.EraseFixed = -1
	if err := neg.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(storage.Params{}, sim.NewClock()); err == nil {
		t.Error("New with invalid params must fail")
	}
	if _, err := New(testParams(), nil); err == nil {
		t.Error("New with nil clock must fail")
	}
	p := testParams()
	if p.PageCount() != 64 {
		t.Errorf("PageCount = %d", p.PageCount())
	}
	if p.TotalBytes() != 64*128 {
		t.Errorf("TotalBytes = %d", p.TotalBytes())
	}
}
func TestPartialPageProgram(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.ProgramPage(1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := d.ReadAt(got, 128); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 0xFF, 0xFF}
	if !bytes.Equal(got, want) {
		t.Errorf("partial program read % x, want % x", got, want)
	}
	if err := d.ProgramPage(1, bytes.Repeat([]byte{0}, 200)); !errors.Is(err, storage.ErrPageTooBig) {
		t.Errorf("oversized program: %v", err)
	}
}
func TestBoundsChecks(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.ReadAt(make([]byte, 1), d.Params().TotalBytes()); !errors.Is(err, storage.ErrOutOfRange) {
		t.Errorf("read past end: %v", err)
	}
	if err := d.ReadAt(make([]byte, 1), -1); !errors.Is(err, storage.ErrOutOfRange) {
		t.Errorf("negative read: %v", err)
	}
	if err := d.ProgramPage(-1, nil); !errors.Is(err, storage.ErrOutOfRange) {
		t.Errorf("negative page: %v", err)
	}
	if err := d.ProgramPage(64, nil); !errors.Is(err, storage.ErrOutOfRange) {
		t.Errorf("page past end: %v", err)
	}
	if err := d.EraseBlock(16); !errors.Is(err, storage.ErrOutOfRange) {
		t.Errorf("block past end: %v", err)
	}
	if err := d.ReadPage(0, make([]byte, 5)); err == nil {
		t.Error("short ReadPage buffer accepted")
	}
}

func TestCostAccounting(t *testing.T) {
	d, clock := newTestDevice(t)
	p := d.Params()

	start := clock.Now()
	if err := d.ProgramPage(0, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	progCost := p.ProgFixed + 128*p.ProgPerByte
	if got := clock.Span(start); got != progCost {
		t.Errorf("program cost %v, want %v", got, progCost)
	}

	start = clock.Now()
	buf := make([]byte, 128)
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	readCost := p.ReadFixed + 128*p.ReadPerByte
	if got := clock.Span(start); got != readCost {
		t.Errorf("read cost %v, want %v", got, readCost)
	}
	if progCost <= readCost {
		t.Error("profile must make writes more expensive than reads")
	}

	start = clock.Now()
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if got := clock.Span(start); got != p.EraseFixed {
		t.Errorf("erase cost %v, want %v", got, p.EraseFixed)
	}

	st := d.Stats()
	if st.PageReads != 1 || st.PagesProgrammed != 1 || st.BlockErases != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.BytesRead != 128 || st.BytesProgrammed != 128 {
		t.Errorf("byte stats %+v", st)
	}
	d.ResetStats()
	if d.Stats() != (storage.Stats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestStatsSub(t *testing.T) {
	a := storage.Stats{PageReads: 10, BytesRead: 100, ReadTime: time.Second}
	b := storage.Stats{PageReads: 4, BytesRead: 40, ReadTime: 300 * time.Millisecond}
	got := a.Sub(b)
	if got.PageReads != 6 || got.BytesRead != 60 || got.ReadTime != 700*time.Millisecond {
		t.Errorf("Sub = %+v", got)
	}
}
