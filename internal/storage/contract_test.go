package storage_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/storage/simflash"
)

// The contract geometry: 64 pages of 128 bytes in 16 blocks of 4.
var contractParams = storage.Params{
	PageSize:      128,
	PagesPerBlock: 4,
	Blocks:        16,
	ReadFixed:     10 * time.Microsecond,
	ReadPerByte:   10 * time.Nanosecond,
	ProgFixed:     50 * time.Microsecond,
	ProgPerByte:   50 * time.Nanosecond,
	EraseFixed:    500 * time.Microsecond,
}

// wideParams is the contract geometry with 260 blocks: long enough
// for one program run to cross a file segment (256 blocks) and the file
// medium's pending-run cap (32 KiB, 256 pages of 128 bytes).
var wideParams = func() storage.Params {
	p := contractParams
	p.Blocks = 260
	return p
}()

// media is every shipped storage.Medium, as its package opens it.
var media = []struct {
	name string
	open func(t *testing.T, p storage.Params) *storage.Device
}{
	{"sim", func(t *testing.T, p storage.Params) *storage.Device {
		d, err := simflash.New(p, sim.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		reopeners[d] = func(t *testing.T) *storage.Device {
			// The simulation's memory is all that survives; its entries
			// are the device's, handed over as a LoadOOB would.
			entries := map[int]storage.OOB{}
			for page := range p.PageCount() {
				if e := storage.OOBOf(d, page); e != (storage.OOB{}) {
					entries[page] = e
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			nd, err := storage.NewDevice(oobsAtOpen{storage.MediumOf(d), entries}, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			return nd
		}
		return d
	}},
	{"file", func(t *testing.T, p storage.Params) *storage.Device {
		dir := filepath.Join(t.TempDir(), "dev")
		var open func() *storage.Device
		open = func() *storage.Device {
			d, err := filedev.Open(dir, p, false)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			reopeners[d] = func(t *testing.T) *storage.Device {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				return open()
			}
			return d
		}
		return open()
	}},
}

// reopeners closes a device the media opened and opens what it left
// behind: the directory again for a file, the same memory for the
// simulation.
var reopeners = map[*storage.Device]func(t *testing.T) *storage.Device{}

func reopen(t *testing.T, d *storage.Device) *storage.Device {
	t.Helper()
	return reopeners[d](t)
}

func fullPage(b byte) []byte { return bytes.Repeat([]byte{b}, contractParams.PageSize) }

func pageBuf() []byte { return make([]byte, contractParams.PageSize) }

func program(t *testing.T, d *storage.Device, page int, data []byte) {
	t.Helper()
	if err := d.ProgramPage(page, data); err != nil {
		t.Fatalf("program page %d: %v", page, err)
	}
}

func wantErr(t *testing.T, what string, err, target error, mentions ...string) {
	t.Helper()
	if !errors.Is(err, target) {
		t.Fatalf("%s: got %v, want %v", what, err, target)
	}
	for _, m := range mentions {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("%s: %q does not name %q", what, err, m)
		}
	}
}

// damage flips one stored bit of a programmed page without telling the
// device.
func damage(t *testing.T, d *storage.Device, page, off int) {
	t.Helper()
	m := storage.MediumOf(d)
	var b [1]byte
	if err := m.ReadPage(page, off, b[:]); err != nil {
		t.Fatal(err)
	}
	if err := m.PatchByte(page, off, b[0]^0x01); err != nil {
		t.Fatal(err)
	}
}

type contractCase struct {
	name string
	run  func(t *testing.T, d *storage.Device)
}

var contract = []contractCase{
	{"round trip", func(t *testing.T, d *storage.Device) {
		data := fullPage(0xAB)
		program(t, d, 3, data)
		got := pageBuf()
		if err := d.ReadPage(3, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("read back mismatch")
		}
		if !d.PageProgrammed(3) || d.PageProgrammed(4) {
			t.Error("programmed flags wrong")
		}
	}},
	{"erased reads 0xFF", func(t *testing.T, d *storage.Device) {
		got := make([]byte, 10)
		if err := d.ReadAt(got, 1000); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, 10)) {
			t.Fatalf("erased bytes read % x", got)
		}
	}},
	{"partial program tail", func(t *testing.T, d *storage.Device) {
		// The block held other bytes before its last erase: the tail
		// must still read erased.
		program(t, d, 1, fullPage(0x00))
		if err := d.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		program(t, d, 1, []byte{1, 2, 3})
		got := make([]byte, 5)
		if err := d.ReadAt(got, 128); err != nil {
			t.Fatal(err)
		}
		if want := []byte{1, 2, 3, 0xFF, 0xFF}; !bytes.Equal(got, want) {
			t.Errorf("partial program read % x, want % x", got, want)
		}
	}},
	{"erased bytes at page edges", func(t *testing.T, d *storage.Device) {
		// Erased runs of 1, PageSize-1 and PageSize bytes, read from an
		// erased page into a dirty buffer and read back behind a short
		// program. Each program's prefix is zeros, so the device's staging
		// page holds stale non-0xFF bytes for the next, longer tail.
		ps := contractParams.PageSize
		for i, n := range []int{1, ps - 1, ps} {
			got := bytes.Repeat([]byte{0x5A}, n)
			if err := d.ReadAt(got, int64(8*ps)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, n)) {
				t.Fatalf("erased read of %d bytes: % x", n, got)
			}
			page := 4 * i
			program(t, d, page, make([]byte, ps-n))
			want := append(make([]byte, ps-n), bytes.Repeat([]byte{0xFF}, n)...)
			got = bytes.Repeat([]byte{0x5A}, ps)
			if err := d.ReadPage(page, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("program of %d bytes reads back % x, want % x", ps-n, got, want)
			}
		}
	}},
	{"program once", func(t *testing.T, d *storage.Device) {
		program(t, d, 5, []byte("x"))
		wantErr(t, "reprogram", d.ProgramPage(5, []byte("y")), storage.ErrNotErased, "page 5", "block 1")
		if err := d.EraseBlock(1); err != nil {
			t.Fatal(err)
		}
		if d.PageProgrammed(5) {
			t.Error("page still programmed after erase")
		}
		program(t, d, 5, []byte("y"))
	}},
	{"bounds", func(t *testing.T, d *storage.Device) {
		total := d.Params().TotalBytes()
		wantErr(t, "read past end", d.ReadAt(make([]byte, 1), total), storage.ErrOutOfRange)
		wantErr(t, "read across end", d.ReadAt(make([]byte, 16), total-8), storage.ErrOutOfRange)
		wantErr(t, "negative read", d.ReadAt(make([]byte, 1), -1), storage.ErrOutOfRange)
		wantErr(t, "read page -1", d.ReadPage(-1, pageBuf()), storage.ErrOutOfRange, "page -1")
		wantErr(t, "read page 64", d.ReadPage(64, pageBuf()), storage.ErrOutOfRange, "page 64")
		wantErr(t, "program page -1", d.ProgramPage(-1, nil), storage.ErrOutOfRange, "page -1")
		wantErr(t, "program page 999", d.ProgramPage(999, []byte("x")), storage.ErrOutOfRange, "page 999")
		wantErr(t, "program page 64", d.ProgramPage(64, nil), storage.ErrOutOfRange, "page 64")
		wantErr(t, "erase block 16", d.EraseBlock(16), storage.ErrOutOfRange, "block 16")
		wantErr(t, "erase block -1", d.EraseBlock(-1), storage.ErrOutOfRange, "block -1")
		wantErr(t, "oversized program", d.ProgramPage(2, make([]byte, 129)), storage.ErrPageTooBig, "page 2", "block 0")
		if err := d.ReadPage(0, make([]byte, 5)); err == nil {
			t.Error("short ReadPage buffer accepted")
		}
		if d.Stats() != (storage.Stats{}) {
			t.Errorf("rejected operations were counted: %+v", d.Stats())
		}
	}},
	{"PageProgrammed out of range", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, []byte("x")) // a materialized block under page -1's slot
		for _, page := range []int{-1, -4, 64, 65, 1 << 30} {
			if d.PageProgrammed(page) {
				t.Errorf("PageProgrammed(%d) = true", page)
			}
		}
	}},
	{"ReadAt spans pages", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, fullPage(0x11))
		program(t, d, 1, fullPage(0x22))
		d.ResetStats()
		got := make([]byte, 20)
		if err := d.ReadAt(got, 120); err != nil {
			t.Fatal(err)
		}
		want := append(bytes.Repeat([]byte{0x11}, 8), bytes.Repeat([]byte{0x22}, 12)...)
		if !bytes.Equal(got, want) {
			t.Errorf("cross-page read % x", got)
		}
		if st := d.Stats(); st.PageReads != 2 || st.BytesRead != 20 {
			t.Errorf("cross-page read counted %d accesses / %d bytes, want 2 / 20", st.PageReads, st.BytesRead)
		}
	}},
	{"stats", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, fullPage(1))
		program(t, d, 1, []byte("abc"))
		if err := d.ReadPage(0, pageBuf()); err != nil {
			t.Fatal(err)
		}
		if err := d.EraseBlock(1); err != nil { // never programmed: still an erase
			t.Fatal(err)
		}
		st := d.Stats()
		st.ReadTime, st.ProgTime, st.EraseTime = 0, 0, 0 // the clock is the medium's package's to test
		want := storage.Stats{PageReads: 1, PagesProgrammed: 2, BlockErases: 1, BytesRead: 128, BytesProgrammed: 131}
		if st != want {
			t.Errorf("stats %+v, want %+v", st, want)
		}
		d.ResetStats()
		if d.Stats() != (storage.Stats{}) {
			t.Error("ResetStats did not zero")
		}
	}},
	{"torn write corrupt until erase", func(t *testing.T, d *storage.Device) {
		d.SetInjector(fault.New(&fault.Plan{Seed: 3, TornWrite: 1}, 0))
		if err := d.ProgramPage(0, fullPage(0xAB)); err != nil {
			t.Fatalf("torn program should succeed silently: %v", err)
		}
		d.SetInjector(nil)
		wantErr(t, "read of torn page", d.ReadPage(0, pageBuf()), storage.ErrCorrupt, "page 0")
		wantErr(t, "second read", d.ReadAt(make([]byte, 8), 0), storage.ErrCorrupt)
		if err := d.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		if err := d.ReadPage(0, pageBuf()); err != nil {
			t.Fatalf("after erase: %v", err)
		}
	}},
	{"bit flip caught and persistent", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, fullPage(0x55))
		program(t, d, 1, fullPage(0x66))
		if err := d.ReadPage(0, pageBuf()); err != nil {
			t.Fatal(err)
		}
		d.SetInjector(fault.New(&fault.Plan{Seed: 9, BitFlip: 1}, 0))
		wantErr(t, "read under bit rot", d.ReadPage(0, pageBuf()), storage.ErrCorrupt, "page 0")
		// Rot behind a partial read is caught too.
		wantErr(t, "partial read under bit rot", d.ReadAt(make([]byte, 4), 128+60), storage.ErrCorrupt, "page 1")
		// The flipped bits are stored: the pages stay bad with the
		// injector gone.
		d.SetInjector(nil)
		wantErr(t, "read after the rot", d.ReadPage(0, pageBuf()), storage.ErrCorrupt)
		wantErr(t, "read after the rot", d.ReadPage(1, pageBuf()), storage.ErrCorrupt)
	}},
	{"verification is lazy", func(t *testing.T, d *storage.Device) {
		data := fullPage(0x42)
		program(t, d, 0, data)
		// A clean program is verified: reads do not hash, so damage the
		// device was not told about goes unseen.
		damage(t, d, 0, 7)
		if err := d.ReadPage(0, pageBuf()); err != nil {
			t.Fatalf("verified page was hashed again: %v", err)
		}
		damage(t, d, 0, 7) // undo
		// A mutation the device knows of drops the memo.
		d.SetInjector(fault.New(&fault.Plan{Seed: 9, BitFlip: 1}, 0))
		wantErr(t, "read under bit rot", d.ReadPage(0, pageBuf()), storage.ErrCorrupt)
		d.SetInjector(nil)
		// Repair the stored bytes: the next read hashes once, passes …
		for off := range data {
			if err := storage.MediumOf(d).PatchByte(0, off, data[off]); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, 8)
		if err := d.ReadAt(got, 16); err != nil {
			t.Fatalf("repaired page: %v", err)
		}
		if !bytes.Equal(got, data[:8]) {
			t.Errorf("repaired page read % x", got)
		}
		// … and memoizes again.
		damage(t, d, 0, 100)
		if err := d.ReadPage(0, pageBuf()); err != nil {
			t.Fatalf("re-verified page was hashed again: %v", err)
		}
	}},
	{"page without a CRC reads unverified", func(t *testing.T, d *storage.Device) {
		// What a release that could switch the checksums off left behind:
		// the page bytes and an out-of-band entry that says programmed and
		// nothing else. Every device stamps a CRC now, so the state is
		// written through the medium and a second device opened over it.
		m, noCRC := storage.MediumOf(d), storage.OOB{Programmed: true}
		stored := fullPage(0xAB)
		if err := m.WritePage(0, stored); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteOOB(0, noCRC); err != nil {
			t.Fatal(err)
		}
		re, err := storage.NewDevice(m, contractParams, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !re.PageProgrammed(0) {
			// simflash's memory leaves the entries to its Device; hand this
			// one over the way filedev just did, from LoadOOB.
			if re, err = storage.NewDevice(oobsAtOpen{m, map[int]storage.OOB{0: noCRC}}, contractParams, nil); err != nil {
				t.Fatal(err)
			}
		}
		// There is nothing to check the bytes against: they read back as
		// stored, whole and in part, damaged or not.
		damage(t, re, 0, 7)
		stored[7] ^= 0x01
		got := pageBuf()
		if err := re.ReadPage(0, got); err != nil || !bytes.Equal(got, stored) {
			t.Fatalf("page without a CRC: read % x, %v", got[:8], err)
		}
		if err := re.ReadAt(got[:4], 6); err != nil || !bytes.Equal(got[:4], stored[6:10]) {
			t.Fatalf("page without a CRC: partial read % x, %v", got[:4], err)
		}
		// It is a programmed page like any other, and the program after
		// its erase is checksummed again.
		wantErr(t, "reprogram", re.ProgramPage(0, stored), storage.ErrNotErased)
		if err := re.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		re.SetInjector(fault.New(&fault.Plan{Seed: 3, TornWrite: 1}, 0))
		program(t, re, 0, stored)
		wantErr(t, "read of the torn reprogram", re.ReadPage(0, got), storage.ErrCorrupt)
	}},
	{"transient faults are retried", func(t *testing.T, d *storage.Device) {
		inj := fault.New(&fault.Plan{Seed: 1, ReadTransient: 0.15}, 0)
		d.SetInjector(inj)
		program(t, d, 0, []byte("x"))
		for i := 0; i < 200; i++ {
			if err := d.ReadPage(0, pageBuf()); err != nil {
				t.Fatalf("read %d: transient faults should be retried: %v", i, err)
			}
		}
		if injected, retried := inj.Stats(); retried == 0 || retried != injected {
			t.Fatalf("%d faults injected, %d retried", injected, retried)
		}
	}},
	{"transient escalates to permanent", func(t *testing.T, d *storage.Device) {
		inj := fault.New(&fault.Plan{Seed: 1, ReadTransient: 1}, 0)
		d.SetInjector(inj)
		wantErr(t, "read", d.ReadAt(make([]byte, 8), 0), fault.ErrPermanent)
		if _, retried := inj.Stats(); retried != storage.MaxFaultRetries {
			t.Errorf("%d retries, want %d", retried, storage.MaxFaultRetries)
		}
	}},
	{"power cut freezes the device", func(t *testing.T, d *storage.Device) {
		d.SetInjector(fault.New(&fault.Plan{CutAtOp: 2}, 0))
		program(t, d, 0, []byte("a"))
		wantErr(t, "program at the cut", d.ProgramPage(1, []byte("b")), fault.ErrPowerCut)
		if d.PageProgrammed(1) {
			t.Fatal("page 1 must not be programmed after the cut")
		}
		wantErr(t, "post-cut read", d.ReadAt(make([]byte, 1), 0), fault.ErrDeviceDead)
		wantErr(t, "post-cut erase", d.EraseBlock(0), fault.ErrDeviceDead)
		// What the cut left behind is still there for recovery.
		img, err := d.Image()
		if err != nil {
			t.Fatal(err)
		}
		if !img.PageProgrammed(0) || img.PageProgrammed(1) {
			t.Error("image after the cut has the wrong pages")
		}
	}},
	{"image round trip", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, []byte("alpha"))
		program(t, d, 6, fullPage(7))
		d.ResetStats()
		img, err := d.Image()
		if err != nil {
			t.Fatal(err)
		}
		if d.Stats() != (storage.Stats{}) {
			t.Errorf("imaging was counted: %+v", d.Stats())
		}
		// Mutating the device after the snapshot must not affect the image.
		if err := d.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 7)
		if err := img.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if string(got) != "alpha\xff\xff" {
			t.Fatalf("image read %q", got)
		}
		if !img.PageProgrammed(6) || img.PageProgrammed(1) || img.PageProgrammed(-1) || img.PageProgrammed(64) {
			t.Fatal("programmed flags wrong in image")
		}
		page, prog, err := img.ReadPage(6)
		if err != nil || !prog || !bytes.Equal(page, fullPage(7)) {
			t.Fatalf("ReadPage(6) = % x, %v, %v", page, prog, err)
		}
		// Erased pages read as 0xFF, in programmed blocks and untouched ones.
		if err := img.ReadAt(got, int64(2*contractParams.PageSize)); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xFF}, len(got))) {
			t.Fatalf("erased image ReadAt = % x, %v", got, err)
		}
		for _, p := range []int{5, 2, 40} {
			page, prog, err := img.ReadPage(p)
			if err != nil || prog || !bytes.Equal(page, fullPage(0xFF)) {
				t.Fatalf("erased ReadPage(%d) = % x, %v, %v", p, page, prog, err)
			}
		}
		wantErr(t, "image read past end", img.ReadAt(got, img.Params().TotalBytes()), storage.ErrOutOfRange)
		_, _, err = img.ReadPage(64)
		wantErr(t, "image page past end", err, storage.ErrOutOfRange)
	}},
	{"image verifies checksums", func(t *testing.T, d *storage.Device) {
		d.SetInjector(fault.New(&fault.Plan{Seed: 3, TornWrite: 1}, 0))
		program(t, d, 0, fullPage(0xAB))
		d.SetInjector(nil)
		program(t, d, 1, fullPage(0xCD))
		damage(t, d, 1, 0) // the device's memo says page 1 is good; an image trusts no memo
		img, err := d.Image()
		if err != nil {
			t.Fatal(err)
		}
		wantErr(t, "image of a torn page", img.ReadAt(make([]byte, 8), 0), storage.ErrCorrupt, "page 0")
		_, _, err = img.ReadPage(0)
		wantErr(t, "image ReadPage of a torn page", err, storage.ErrCorrupt)
		_, _, err = img.ReadPage(1)
		wantErr(t, "image ReadPage of a damaged page", err, storage.ErrCorrupt, "page 1")
	}},
	{"read before sync", func(t *testing.T, d *storage.Device) {
		// Programs the medium may still hold back read as programmed,
		// whole and in part, one at a time and as a run.
		program(t, d, 0, fullPage(0x11))
		program(t, d, 1, []byte("short"))
		got := pageBuf()
		if err := d.ReadPage(1, got); err != nil || string(got[:6]) != "short\xff" {
			t.Fatalf("page 1 before sync: % x, %v", got[:6], err)
		}
		program(t, d, 2, fullPage(0x22))
		program(t, d, 3, fullPage(0x33))
		part := make([]byte, 8)
		if err := d.ReadAt(part, 3*128-4); err != nil || !bytes.Equal(part, []byte{0x22, 0x22, 0x22, 0x22, 0x33, 0x33, 0x33, 0x33}) {
			t.Fatalf("pages 2-3 before sync: % x, %v", part, err)
		}
		for page, b := range []byte{0x11, 0, 0x22, 0x33} {
			if page == 1 {
				continue
			}
			if err := d.ReadPage(page, got); err != nil || !bytes.Equal(got, fullPage(b)) {
				t.Fatalf("page %d before sync: % x, %v", page, got[:4], err)
			}
		}
	}},
	{"patch and erase between programs", func(t *testing.T, d *storage.Device) {
		// A byte patched or an entry cleared after a program lands after
		// it, however the medium batches programs.
		program(t, d, 0, fullPage(0x10))
		program(t, d, 1, fullPage(0x20))
		damage(t, d, 1, 5) // the device's memo still says page 1 is good
		program(t, d, 2, fullPage(0x30))
		program(t, d, 4, fullPage(0x40))
		program(t, d, 5, fullPage(0x50))
		if err := d.EraseBlock(1); err != nil { // pages 4 and 5
			t.Fatal(err)
		}
		program(t, d, 6, fullPage(0x60))
		for _, d := range []*storage.Device{d, reopen(t, d)} {
			want := fullPage(0x20)
			want[5] ^= 0x01
			got := pageBuf()
			if err := storage.MediumOf(d).ReadPage(1, 0, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("patched page 1 stores % x, %v", got[:8], err)
			}
			for page, prog := range []bool{true, true, true, false, false, false, true, false} {
				if d.PageProgrammed(page) != prog {
					t.Fatalf("page %d programmed = %v, want %v", page, !prog, prog)
				}
			}
			if err := d.ReadPage(6, got); err != nil || !bytes.Equal(got, fullPage(0x60)) {
				t.Fatalf("page 6 reads % x, %v", got[:4], err)
			}
		}
	}},
	{"close and reopen keeps every page and entry", func(t *testing.T, d *storage.Device) {
		program(t, d, 0, fullPage(0x01))
		program(t, d, 1, []byte("partial"))
		program(t, d, 9, fullPage(0x09))
		program(t, d, 12, fullPage(0x0C))
		if err := d.EraseBlock(3); err != nil { // page 12
			t.Fatal(err)
		}
		d.SetInjector(fault.New(&fault.Plan{Seed: 3, TornWrite: 1}, 0))
		program(t, d, 20, fullPage(0x14))
		d.SetInjector(nil)
		program(t, d, 63, fullPage(0x3F))
		type pageWas struct {
			e    storage.OOB
			data []byte
			err  error
		}
		state := func(d *storage.Device) []pageWas {
			var out []pageWas
			for page := range d.Params().PageCount() {
				got := pageBuf()
				err := d.ReadPage(page, got)
				out = append(out, pageWas{storage.OOBOf(d, page), got, err})
			}
			return out
		}
		before := state(d)
		after := state(reopen(t, d))
		for page := range before {
			b, a := before[page], after[page]
			if a.e != b.e || !bytes.Equal(a.data, b.data) || (a.err == nil) != (b.err == nil) {
				t.Fatalf("page %d: before close %+v % x %v, after reopen %+v % x %v",
					page, b.e, b.data[:4], b.err, a.e, a.data[:4], a.err)
			}
		}
		if !errors.Is(after[20].err, storage.ErrCorrupt) || !before[9].e.Programmed || before[12].e.Programmed {
			t.Fatalf("torn page 20 reads %v; page 9 %+v, page 12 %+v", after[20].err, before[9].e, before[12].e)
		}
	}},
}

// wideContract is the contract cases that need wideParams' geometry.
var wideContract = []contractCase{
	{"program run across the run cap and a segment", func(t *testing.T, d *storage.Device) {
		// Pages 740..1030: past 995 a 32 KiB run is full, past 1023 the
		// file medium's second segment starts.
		content := func(page int) []byte {
			b := fullPage(byte(page))
			b[0], b[1] = byte(page>>8), 0xA5
			return b
		}
		for page := 740; page <= 1030; page++ {
			program(t, d, page, content(page))
		}
		check := func(d *storage.Device, when string) {
			got := pageBuf()
			for page := 740; page <= 1030; page++ {
				if !d.PageProgrammed(page) {
					t.Fatalf("%s: page %d not programmed", when, page)
				}
				if err := d.ReadPage(page, got); err != nil || !bytes.Equal(got, content(page)) {
					t.Fatalf("%s: page %d reads % x, %v", when, page, got[:4], err)
				}
			}
			for _, page := range []int{739, 1031} {
				if d.PageProgrammed(page) {
					t.Fatalf("%s: page %d programmed", when, page)
				}
			}
		}
		check(d, "before sync")
		check(reopen(t, d), "after reopen")
	}},
}

// TestDeviceContract runs every case of the NAND contract against every
// medium: the Device is one implementation, and this is where a medium
// shows it stores bytes the way the Device needs.
func TestDeviceContract(t *testing.T) {
	for _, m := range media {
		for _, c := range contract {
			t.Run(m.name+"/"+c.name, func(t *testing.T) { c.run(t, m.open(t, contractParams)) })
		}
		for _, c := range wideContract {
			t.Run(m.name+"/"+c.name, func(t *testing.T) { c.run(t, m.open(t, wideParams)) })
		}
	}
}

// oobsAtOpen is a medium that reports these out-of-band entries, and
// nothing of its own, to the device opening over it.
type oobsAtOpen struct {
	storage.Medium
	entries map[int]storage.OOB
}

func (m oobsAtOpen) LoadOOB(visit func(int, storage.OOB)) error {
	for page, e := range m.entries {
		visit(page, e)
	}
	return nil
}

// failingMedium fails the writes it is told to.
type failingMedium struct {
	storage.Medium
	failWritePage, failWriteOOB, failClearOOB error
}

func (m *failingMedium) WritePage(page int, image []byte) error {
	if m.failWritePage != nil {
		return m.failWritePage
	}
	return m.Medium.WritePage(page, image)
}

func (m *failingMedium) WriteOOB(page int, e storage.OOB) error {
	if m.failWriteOOB != nil {
		return m.failWriteOOB
	}
	return m.Medium.WriteOOB(page, e)
}

func (m *failingMedium) ClearOOB(block int) error {
	if m.failClearOOB != nil {
		return m.failClearOOB
	}
	return m.Medium.ClearOOB(block)
}

// TestFailedMediumWriteChangesNothing: the device's in-memory state
// follows the medium, never leads it. A program whose data or OOB write
// failed leaves the page erased, a failed erase leaves it programmed.
func TestFailedMediumWriteChangesNothing(t *testing.T) {
	for _, m := range media {
		t.Run(m.name, func(t *testing.T) {
			boom := errors.New("medium write failed")
			fm := &failingMedium{Medium: storage.MediumOf(m.open(t, contractParams))}
			d, err := storage.NewDevice(fm, contractParams, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, fail := range []*error{&fm.failWritePage, &fm.failWriteOOB} {
				*fail = boom
				wantErr(t, "program", d.ProgramPage(2, fullPage(9)), boom)
				*fail = nil
				if d.PageProgrammed(2) {
					t.Fatal("page counts as programmed after a failed write")
				}
				got := pageBuf()
				if err := d.ReadPage(2, got); err != nil || !bytes.Equal(got, fullPage(0xFF)) {
					t.Fatalf("page reads % x, %v after a failed write, want erased", got[:4], err)
				}
				if st := d.Stats(); st.PagesProgrammed != 0 {
					t.Fatalf("failed program counted: %+v", st)
				}
			}
			program(t, d, 2, fullPage(9))

			fm.failClearOOB = boom
			wantErr(t, "erase", d.EraseBlock(0), boom)
			fm.failClearOOB = nil
			if !d.PageProgrammed(2) {
				t.Fatal("page counts as erased after a failed erase")
			}
			if err := d.EraseBlock(0); err != nil {
				t.Fatal(err)
			}
			if d.PageProgrammed(2) {
				t.Fatal("page still programmed after erase")
			}
		})
	}
}
