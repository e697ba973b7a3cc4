package filedev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
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

func newTestDevice(t *testing.T) (*storage.Device, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "dev")
	d, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, dir
}

// reopen closes d and opens the same directory again.
func reopen(t *testing.T, d *storage.Device, dir string) *storage.Device {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	nd, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nd.Close() })
	return nd
}

// TestReopenPersistence is the point of the backend: programmed pages,
// their contents and their erased/partial structure all survive a close
// and reopen of the directory.
func TestReopenPersistence(t *testing.T) {
	d, dir := newTestDevice(t)
	data := bytes.Repeat([]byte{0x5A}, 128)
	if err := d.ProgramPage(0, data); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(9, []byte("partial")); err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(4, data); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(1); err != nil { // pages 4..7 back to erased
		t.Fatal(err)
	}

	d = reopen(t, d, dir)
	got := make([]byte, 128)
	if err := d.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("page 0 lost across reopen")
	}
	if err := d.ReadPage(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:7], []byte("partial")) || got[7] != 0xFF {
		t.Errorf("page 9 = % x", got[:8])
	}
	if d.PageProgrammed(4) {
		t.Error("erase of block 1 lost across reopen")
	}
	if err := d.ReadPage(4, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xFF {
		t.Errorf("erased page reads %#x after reopen", got[0])
	}
	// A page erased before close accepts a fresh program after reopen.
	if err := d.ProgramPage(4, []byte("again")); err != nil {
		t.Errorf("program erased page after reopen: %v", err)
	}
	// And the program-once rule survives too.
	if err := d.ProgramPage(0, data); !errors.Is(err, storage.ErrNotErased) {
		t.Errorf("reprogram after reopen: %v", err)
	}
}

// TestReopenReverifiesChecksums: the verified memo is volatile, so a
// byte corrupted behind the device's back while it was closed is caught
// by the stored OOB checksum on the first read after reopen.
func TestReopenReverifiesChecksums(t *testing.T) {
	d, dir := newTestDevice(t)
	if err := d.ProgramPage(0, bytes.Repeat([]byte{0x33}, 128)); err != nil {
		t.Fatal(err)
	}
	// Clean read memoizes verification.
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one stored data byte directly in the segment file.
	seg := filepath.Join(dir, "seg-0000.dat")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Page 0's first data byte sits right after the padded OOB table.
	pagesPerSeg := segBlocks * testParams().PagesPerBlock
	oobBytes := ((pagesPerSeg*oobEntry + oobAlign - 1) / oobAlign) * oobAlign
	raw[oobBytes] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	nd, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if err := nd.ReadPage(0, make([]byte, 128)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("silent corruption not caught after reopen: %v", err)
	}
}

// TestTornProgramReadsErasedAfterReopen mirrors the crash-ordering
// guarantee: page data is written before the OOB programmed flag, so a
// crash between the two leaves a page that reads as erased. Simulate the
// crash by clearing the OOB entry the way an interrupted WriteOOB would.
func TestTornProgramReadsErasedAfterReopen(t *testing.T) {
	d, dir := newTestDevice(t)
	if err := d.ProgramPage(0, bytes.Repeat([]byte{0x77}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-0000.dat")
	f, err := os.OpenFile(seg, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, oobEntry), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	nd, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	if nd.PageProgrammed(0) {
		t.Fatal("page with no OOB flag counts as programmed")
	}
	buf := make([]byte, 128)
	if err := nd.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xFF {
		t.Fatalf("torn page reads %#x, want erased 0xFF", buf[0])
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	d, dir := newTestDevice(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p := testParams()
	p.Blocks = 32
	if _, err := Open(dir, p, false); !errors.Is(err, ErrGeometry) {
		t.Fatalf("reopen with a different geometry: %v, want ErrGeometry", err)
	}
	// Latency-model changes are fine: only the geometry is pinned.
	p = testParams()
	p.ReadFixed = 123 * time.Microsecond
	nd, err := Open(dir, p, false)
	if err != nil {
		t.Fatalf("reopen with a different cost model: %v", err)
	}
	nd.Close()

	// A geometry file of another format version, or none, or not JSON at
	// all, is rejected whatever geometry it names.
	gpath := filepath.Join(dir, geometryFile)
	good, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{
		bytes.Replace(good, []byte(`"version": 1`), []byte(`"version": 2`), 1),
		bytes.Replace(good, []byte(`"version": 1,`), nil, 1),
		good[:len(good)/2],
	} {
		if bytes.Equal(bad, good) {
			t.Fatal("geometry file not altered")
		}
		if err := os.WriteFile(gpath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, testParams(), false); !errors.Is(err, ErrGeometry) {
			t.Errorf("geometry file %q: %v, want ErrGeometry", bad, err)
		}
	}
}

// TestTruncatedSegmentReadsCorrupt: a segment file cut short under a
// programmed page is damage the page's checksum reports, not an I/O
// error and not erased bytes.
func TestTruncatedSegmentReadsCorrupt(t *testing.T) {
	d, dir := newTestDevice(t)
	for page := 0; page < 3; page++ {
		if err := d.ProgramPage(page, bytes.Repeat([]byte{0x77}, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-0000.dat")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut in the middle of page 1: page 0 whole, page 1 half, page 2 gone.
	if err := os.Truncate(seg, info.Size()-128-64); err != nil {
		t.Fatal(err)
	}
	nd, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Close()
	buf := make([]byte, 128)
	if err := nd.ReadPage(0, buf); err != nil {
		t.Errorf("page before the cut: %v", err)
	}
	for page := 1; page < 3; page++ {
		if err := nd.ReadPage(page, buf); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("page %d past the cut: %v, want ErrCorrupt", page, err)
		}
	}
}

func TestExistsAndWipe(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dev")
	if Exists(dir) {
		t.Fatal("Exists on a missing directory")
	}
	d, err := Open(dir, testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if !Exists(dir) {
		t.Fatal("Exists after create")
	}
	if err := Wipe(dir); err != nil {
		t.Fatal(err)
	}
	if Exists(dir) {
		t.Fatal("Exists after Wipe")
	}
	if err := Wipe(dir); err != nil {
		t.Fatal("Wipe of a missing directory must be a no-op")
	}
	if err := Wipe(""); err == nil {
		t.Fatal("Wipe of an empty path accepted")
	}
}

func TestTornWriteCaughtByChecksum(t *testing.T) {
	d, dir := newTestDevice(t)
	d.SetInjector(fault.New(&fault.Plan{Seed: 3, TornWrite: 1}, 0))
	if err := d.ProgramPage(0, bytes.Repeat([]byte{0xAB}, 128)); err != nil {
		t.Fatalf("torn program should succeed silently: %v", err)
	}
	if err := d.ReadPage(0, make([]byte, 128)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after torn write, got %v", err)
	}
	// The tear is persistent: a reopen (without the injector) still sees it.
	d = reopen(t, d, dir)
	if err := d.ReadPage(0, make([]byte, 128)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("torn write healed by reopen: %v", err)
	}
	// Erasing the block clears it.
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatalf("after erase: %v", err)
	}
}

func TestBitFlipRotsTheFile(t *testing.T) {
	d, dir := newTestDevice(t)
	if err := d.ProgramPage(0, bytes.Repeat([]byte{0x55}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	d.SetInjector(fault.New(&fault.Plan{Seed: 9, BitFlip: 1}, 0))
	if err := d.ReadPage(0, make([]byte, 128)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt after bit flip, got %v", err)
	}
	// The rot was written through to the file: it survives a reopen.
	d = reopen(t, d, dir)
	if err := d.ReadPage(0, make([]byte, 128)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("bit rot healed by reopen: %v", err)
	}
}

// TestPendingRunsBounded: a long program run reaches the file in runs
// that never outgrow the buffers sized at open, and LoadOOB sees
// entries still pending when it is called.
func TestPendingRunsBounded(t *testing.T) {
	p := testParams()
	p.Blocks = 128 // 512 pages: two full runs and then some
	m, err := open(filepath.Join(t.TempDir(), "dev"), p, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := storage.NewDevice(m, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dataCap, oobCap := cap(m.data.buf), cap(m.oob.buf)
	if dataCap != runBytes {
		t.Fatalf("data run holds %d bytes, want %d", dataCap, runBytes)
	}
	for page := range p.PageCount() {
		if err := d.ProgramPage(page, bytes.Repeat([]byte{byte(page)}, 100)); err != nil {
			t.Fatal(err)
		}
		if cap(m.data.buf) != dataCap || cap(m.oob.buf) != oobCap {
			t.Fatalf("after page %d the runs hold %d / %d bytes, want %d / %d", page, cap(m.data.buf), cap(m.oob.buf), dataCap, oobCap)
		}
	}
	if len(m.data.buf) == 0 {
		t.Fatal("nothing pending after the last program")
	}
	seen := 0
	if err := m.LoadOOB(func(int, storage.OOB) { seen++ }); err != nil {
		t.Fatal(err)
	}
	if seen != p.PageCount() {
		t.Fatalf("LoadOOB saw %d programmed pages, want %d", seen, p.PageCount())
	}
}

// TestFailedFlushIsSticky: once pending programs could not be written,
// the files no longer hold what the device believes, so every later
// call — read, program, erase, sync, close — returns that failure.
func TestFailedFlushIsSticky(t *testing.T) {
	m, err := open(filepath.Join(t.TempDir(), "dev"), testParams(), false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := storage.NewDevice(m, testParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ProgramPage(0, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil { // opens segment 0
		t.Fatal(err)
	}
	if err := d.ProgramPage(1, bytes.Repeat([]byte{2}, 128)); err != nil {
		t.Fatal(err) // queued, not written yet
	}
	// The segment's descriptor is closed under the device.
	if err := m.segs[0].f.Close(); err != nil {
		t.Fatal(err)
	}
	first := d.Sync()
	if !errors.Is(first, os.ErrClosed) || !strings.Contains(first.Error(), "page 1") {
		t.Fatalf("flush into a closed segment: %v, want os.ErrClosed naming page 1", first)
	}
	for what, err := range map[string]error{
		"read":    d.ReadPage(0, make([]byte, 128)),
		"program": d.ProgramPage(2, []byte("x")),
		"erase":   d.EraseBlock(0),
		"sync":    d.Sync(),
		"close":   d.Close(),
	} {
		if err != first {
			t.Errorf("%s after the failed flush: %v, want %v", what, err, first)
		}
	}
}

func TestStatsAndSync(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dev")
	d, err := Open(dir, testParams(), true) // fsync on
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.ProgramPage(0, bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(0, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.PageReads != 1 || st.PagesProgrammed != 1 || st.BlockErases != 1 {
		t.Errorf("stats %+v", st)
	}
	if st.BytesRead != 128 || st.BytesProgrammed != 128 {
		t.Errorf("byte stats %+v", st)
	}
	if st.ReadTime != 0 || st.ProgTime != 0 || st.EraseTime != 0 {
		t.Errorf("a real file has no simulated time, got %+v", st)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if d.Stats() != (storage.Stats{}) {
		t.Error("ResetStats did not zero")
	}
	// Close is idempotent.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
