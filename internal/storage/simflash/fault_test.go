package simflash

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
)

// Satellite: the raw sentinel errors carry page/block addresses.

func TestSentinelErrorsCarryAddresses(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.ProgramPage(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := d.ProgramPage(5, []byte("y"))
	if !errors.Is(err, storage.ErrNotErased) {
		t.Fatalf("want ErrNotErased, got %v", err)
	}
	if !strings.Contains(err.Error(), "page 5") || !strings.Contains(err.Error(), "block 1") {
		t.Fatalf("ErrNotErased lacks addresses: %v", err)
	}

	err = d.ProgramPage(2, make([]byte, 129))
	if !errors.Is(err, storage.ErrPageTooBig) {
		t.Fatalf("want ErrPageTooBig, got %v", err)
	}
	if !strings.Contains(err.Error(), "page 2") || !strings.Contains(err.Error(), "block 0") {
		t.Fatalf("ErrPageTooBig lacks addresses: %v", err)
	}

	err = d.ProgramPage(999, []byte("x"))
	if !errors.Is(err, storage.ErrOutOfRange) || !strings.Contains(err.Error(), "page 999") {
		t.Fatalf("program OOB: %v", err)
	}
	err = d.ReadPage(-1, make([]byte, 128))
	if !errors.Is(err, storage.ErrOutOfRange) || !strings.Contains(err.Error(), "page -1") {
		t.Fatalf("read OOB: %v", err)
	}
	err = d.ReadAt(make([]byte, 16), d.Params().TotalBytes())
	if !errors.Is(err, storage.ErrOutOfRange) {
		t.Fatalf("ReadAt OOB: %v", err)
	}
	err = d.EraseBlock(16)
	if !errors.Is(err, storage.ErrOutOfRange) || !strings.Contains(err.Error(), "block 16") {
		t.Fatalf("erase OOB: %v", err)
	}
}

func TestBitFlipCaughtByChecksum(t *testing.T) {
	d, _ := newTestDevice(t)
	if err := d.ProgramPage(0, bytes.Repeat([]byte{0x55}, 128)); err != nil {
		t.Fatal(err)
	}
	// Clean read first: verification passes and is memoized.
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	d.SetInjector(fault.New(&fault.Plan{Seed: 9, BitFlip: 1}, 0))
	err := d.ReadPage(0, make([]byte, 128))
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after bit flip, got %v", err)
	}
}

// page0NoCRC is the memory medium reporting page 0 as programmed with
// no checksum, the out-of-band entry a release with the checksums
// switched off stored (memory itself leaves the entries to its Device).
type page0NoCRC struct{ *memory }

func (page0NoCRC) LoadOOB(visit func(int, storage.OOB)) error {
	visit(0, storage.OOB{Programmed: true})
	return nil
}

func TestPageWithoutCRCSkipsChecksum(t *testing.T) {
	p, clock := testParams(), sim.NewClock()
	m := &memory{p: p, blocks: make([]*block, p.Blocks)}
	// A torn program: a prefix of the data, then erased NAND.
	torn := append(bytes.Repeat([]byte{0xAB}, 40), bytes.Repeat([]byte{0xFF}, 88)...)
	if err := m.WritePage(0, torn); err != nil {
		t.Fatal(err)
	}
	d, err := storage.NewDevice(page0NoCRC{m}, p, clock)
	if err != nil {
		t.Fatal(err)
	}
	// No OOB checksum was stored, so the torn write goes undetected; the
	// read costs what any page read costs.
	got := make([]byte, 128)
	if err := d.ReadPage(0, got); err != nil || !bytes.Equal(got, torn) {
		t.Fatalf("page without a CRC: read % x, %v", got[:8], err)
	}
	if want := p.ReadFixed + 128*p.ReadPerByte; clock.Now() != want {
		t.Fatalf("unverified read charged %v, want %v", clock.Now(), want)
	}
}

func TestTransientFaultsRetryWithBackoff(t *testing.T) {
	d, clock := newTestDevice(t)
	inj := fault.New(&fault.Plan{Seed: 1, ReadTransient: 0.15}, 0)
	d.SetInjector(inj)
	if err := d.ProgramPage(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	before := clock.Now()
	var sawRetry bool
	for i := 0; i < 200; i++ {
		if err := d.ReadPage(0, make([]byte, 128)); err != nil {
			t.Fatalf("read %d: transient faults should be retried: %v", i, err)
		}
		if _, r := inj.Stats(); r > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no retries recorded at a 15% transient rate")
	}
	_, retries := inj.Stats()
	// Each retry charges at least the base backoff to the simulated clock.
	minBackoff := time.Duration(retries) * storage.RetryBackoffBase
	elapsed := clock.Now() - before
	pureReads := 200 * (d.Params().ReadFixed + 128*d.Params().ReadPerByte)
	if elapsed < pureReads+minBackoff {
		t.Fatalf("backoff not charged: elapsed %v < reads %v + backoff %v", elapsed, pureReads, minBackoff)
	}
}
