// Package filedev is the persistent real-file storage medium: the
// storage.Device's NAND contract laid out over page-aligned os.File
// segments, with no simulated clock — operations run at whatever speed
// the host disk allows, so benchmarks against this backend measure true
// hardware throughput and a database survives process exit.
//
// Layout: one device per directory.
//
//	geometry.json   device geometry, written at creation, validated on reopen
//	seg-NNNN.dat    fixed runs of erase blocks; each segment starts with an
//	                out-of-band table (5 bytes per page: a flag byte plus the
//	                page's CRC32), padded to a 4 KiB boundary, followed by
//	                the page data, page-aligned within the file
//
// Crash consistency mirrors NAND program semantics: the Device hands
// over a page's data first and its out-of-band entry (programmed flag +
// CRC of the intended content) second, so a host crash between the two
// leaves the page reading as erased — exactly the torn-record state the
// engine's A/B commit protocol already recovers from. Programs do not
// reach the file one by one: they queue in one pending run of page data
// (at most 32 KiB) and one of the matching out-of-band entries. The runs
// are written when a program does not continue them or does not fit,
// and before every Sync (fsync on or off), Close, PatchByte, ClearOOB
// and any page read while they hold bytes — data run first, then
// out-of-band run, so the ordering above holds per flush. A failed
// flush is sticky: the files no longer hold what the Device believes,
// so every later call returns that error. An erase only zeroes the
// block's out-of-band region; page data is left in place and reads are
// gated on the programmed flags. Reads copy out of a read-only shared
// mapping of each segment made when the segment file is opened, never
// touching bytes past the file's recorded size. The optional fsync knob
// makes Sync (called by the engine at commit points) flush dirty
// segments, extending the guarantee from process crashes to host power
// loss.
//
// One open device owns its directory: the pending runs, the recorded
// file sizes and the mappings assume no other process or device writes,
// truncates or removes the segment files while it is open.
//
// Everything else — checksums, torn writes, bit rot, power cuts, stats —
// is the storage.Device's, so the engine's fault-torture suites exercise
// real files with the same plans they run against the simulation.
package filedev

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"github.com/ghostdb/ghostdb/internal/storage"
)

const (
	// geometryFile pins the device geometry; its presence marks a directory
	// as holding a filedev device.
	geometryFile = "geometry.json"
	// segBlocks is the number of erase blocks per segment file. With the
	// default 2 KiB × 64-page blocks this makes ~32 MiB (sparse) segments.
	segBlocks = 256
	// oobEntry is the out-of-band bytes per page: one flag byte and the
	// little-endian CRC32 of the intended page content.
	oobEntry = 5
	// oobAlign pads the out-of-band table to this boundary so page data
	// starts block-aligned for the host filesystem.
	oobAlign = 4096

	flagProgrammed = 1 << 0
	flagHasCRC     = 1 << 1

	// geometryVersion is the on-disk format this package reads and writes.
	geometryVersion = 1

	// runBytes caps a pending run of page data: programs reach the
	// segment file in writes of up to this many bytes.
	runBytes = 32 << 10
)

// ErrGeometry reports a geometry.json that cannot be used: unparseable,
// of another format version, or pinning a different geometry than the
// one requested.
var ErrGeometry = errors.New("filedev: unusable geometry file")

// geometry is the JSON document pinned in geometryFile.
type geometry struct {
	Version       int   `json:"version"`
	PageSize      int   `json:"page_size"`
	PagesPerBlock int   `json:"pages_per_block"`
	Blocks        int   `json:"blocks"`
	SegmentBlocks int   `json:"segment_blocks"`
	ReadFixed     int64 `json:"read_fixed_ns"`
	ReadPerByte   int64 `json:"read_per_byte_ns"`
	ProgFixed     int64 `json:"prog_fixed_ns"`
	ProgPerByte   int64 `json:"prog_per_byte_ns"`
	EraseFixed    int64 `json:"erase_fixed_ns"`
}

// files is the storage.Medium: page bytes and out-of-band tables in
// segment files.
type files struct {
	dir   string
	p     storage.Params
	fsync bool

	segs        []*segment // lazily opened segment files
	pagesPerSeg int
	oobBytes    int // padded out-of-band table size per segment

	// data and oob are the pending runs: programs the Device has made
	// that are not in the files yet, one contiguous run of page data and
	// one of the matching out-of-band entries. flush writes them.
	data, oob run
	// err is the first failed flush. The files no longer hold what the
	// Device believes they do, so every later call returns it.
	err error
}

// segment is one open segment file.
type segment struct {
	f *os.File
	// mem is a read-only shared mapping of the segment's whole extent;
	// only its first size bytes are backed by the file, and nothing past
	// them is ever touched.
	mem   []byte
	size  int64 // the file's size, as found at open and grown by flushes
	dirty bool  // written since the last Sync
}

// run is a pending contiguous write: buf goes to byte off of segment
// seg, whose first page is page. Its capacity is fixed when the device
// opens and a run never grows past it.
type run struct {
	seg, page int
	off       int64
	buf       []byte
}

// Exists reports whether dir holds a filedev device (its geometry file).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, geometryFile))
	return err == nil
}

// Wipe removes a device directory and everything in it, so the next Open
// starts from a fully erased device. Missing directories are fine.
func Wipe(dir string) error {
	if dir == "" {
		return errors.New("filedev: empty path")
	}
	return os.RemoveAll(dir)
}

// Open opens the device in dir, creating it (and the directory) when the
// geometry file is absent. An existing device must match p's geometry
// exactly. fsync controls whether Sync flushes dirty segments to stable
// storage.
func Open(dir string, p storage.Params, fsync bool) (*storage.Device, error) {
	m, err := open(dir, p, fsync)
	if err != nil {
		return nil, err
	}
	return storage.NewDevice(m, p, nil)
}

// open prepares the medium of Open: the geometry file checked or
// written, no segment opened yet.
func open(dir string, p storage.Params, fsync bool) (*files, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, errors.New("filedev: empty path")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	want := geometry{
		Version:       geometryVersion,
		PageSize:      p.PageSize,
		PagesPerBlock: p.PagesPerBlock,
		Blocks:        p.Blocks,
		SegmentBlocks: segBlocks,
		ReadFixed:     int64(p.ReadFixed),
		ReadPerByte:   int64(p.ReadPerByte),
		ProgFixed:     int64(p.ProgFixed),
		ProgPerByte:   int64(p.ProgPerByte),
		EraseFixed:    int64(p.EraseFixed),
	}
	gpath := filepath.Join(dir, geometryFile)
	raw, err := os.ReadFile(gpath)
	switch {
	case err == nil:
		var have geometry
		if err := json.Unmarshal(raw, &have); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrGeometry, gpath, err)
		}
		if have.Version != geometryVersion {
			return nil, fmt.Errorf("%w: %s is format version %d, this build reads version %d", ErrGeometry, gpath, have.Version, geometryVersion)
		}
		if have.PageSize != want.PageSize || have.PagesPerBlock != want.PagesPerBlock ||
			have.Blocks != want.Blocks || have.SegmentBlocks != want.SegmentBlocks {
			return nil, fmt.Errorf("%w: %s geometry %d/%d/%d×%d does not match requested %d/%d/%d×%d",
				ErrGeometry, dir, have.PageSize, have.PagesPerBlock, have.Blocks, have.SegmentBlocks,
				want.PageSize, want.PagesPerBlock, want.Blocks, want.SegmentBlocks)
		}
	case errors.Is(err, os.ErrNotExist):
		blob, merr := json.MarshalIndent(want, "", "  ")
		if merr != nil {
			return nil, merr
		}
		if err := writeFileSync(gpath, blob, fsync); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	pagesPerSeg := segBlocks * p.PagesPerBlock
	runPages := max(runBytes/p.PageSize, 1)
	return &files{
		dir:         dir,
		p:           p,
		fsync:       fsync,
		segs:        make([]*segment, (p.Blocks+segBlocks-1)/segBlocks),
		pagesPerSeg: pagesPerSeg,
		oobBytes:    ((pagesPerSeg*oobEntry + oobAlign - 1) / oobAlign) * oobAlign,
		data:        run{buf: make([]byte, 0, runPages*p.PageSize)},
		oob:         run{buf: make([]byte, 0, runPages*oobEntry)},
	}, nil
}

// writeFileSync writes path atomically-enough for a fresh file, fsyncing
// when durable is set.
func writeFileSync(path string, blob []byte, durable bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// LoadOOB reads every existing segment's out-of-band table. Missing
// segment files are fully erased.
func (m *files) LoadOOB(visit func(page int, e storage.OOB)) error {
	if err := m.flush(); err != nil {
		return err
	}
	buf := make([]byte, m.oobBytes)
	for seg := range m.segs {
		s, err := m.segment(seg, false)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		// A shorter-than-OOB segment can only happen if creation was
		// interrupted before any page was programmed: the missing tail
		// is erased.
		clear(buf[s.read(buf, 0):])
		base := seg * m.pagesPerSeg
		for i := 0; i < m.segPages(seg); i++ {
			e := buf[i*oobEntry : (i+1)*oobEntry]
			if e[0]&(flagProgrammed|flagHasCRC) == 0 {
				continue
			}
			visit(base+i, storage.OOB{
				Programmed: e[0]&flagProgrammed != 0,
				HasCRC:     e[0]&flagHasCRC != 0,
				CRC:        binary.LittleEndian.Uint32(e[1:]),
			})
		}
	}
	return nil
}

func (m *files) segPath(seg int) string {
	return filepath.Join(m.dir, fmt.Sprintf("seg-%04d.dat", seg))
}

// segPages reports how many pages segment seg covers (the last segment
// may be partial).
func (m *files) segPages(seg int) int {
	return min(m.p.PageCount()-seg*m.pagesPerSeg, m.pagesPerSeg)
}

// segment returns segment seg's open file and mapping, opening it — and
// creating the file when create is set — on first use.
func (m *files) segment(seg int, create bool) (*segment, error) {
	if s := m.segs[seg]; s != nil {
		return s, nil
	}
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE
	}
	f, err := os.OpenFile(m.segPath(seg), flags, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	extent := m.oobBytes + m.segPages(seg)*m.p.PageSize
	mem, err := syscall.Mmap(int(f.Fd()), 0, extent, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("filedev: map %s: %w", m.segPath(seg), err)
	}
	s := &segment{f: f, mem: mem, size: info.Size()}
	m.segs[seg] = s
	return s, nil
}

// read copies the segment's bytes from off on into dst and returns how
// many it copied: none at or past the end of the file.
func (s *segment) read(dst []byte, off int64) int {
	end := min(s.size, int64(len(s.mem)))
	if off >= end {
		return 0
	}
	return copy(dst, s.mem[off:end])
}

// dataOffset returns the byte offset of a page's data within its
// segment file.
func (m *files) dataOffset(page int) int64 {
	return int64(m.oobBytes) + int64(page%m.pagesPerSeg)*int64(m.p.PageSize)
}

// oobOffset returns the byte offset of a page's out-of-band entry within
// its segment file.
func (m *files) oobOffset(page int) int64 {
	return int64(page%m.pagesPerSeg) * oobEntry
}

// queue appends b, bound for byte off of page's segment, to run r. A
// write that does not continue r, or that r has no room for, first
// flushes both runs.
func (m *files) queue(r *run, page int, off int64, b []byte) error {
	if m.err != nil {
		return m.err
	}
	seg := page / m.pagesPerSeg
	if len(r.buf) > 0 && (seg != r.seg || off != r.off+int64(len(r.buf)) || len(r.buf)+len(b) > cap(r.buf)) {
		if err := m.flush(); err != nil {
			return err
		}
	}
	if len(r.buf) == 0 {
		r.seg, r.page, r.off = seg, page, off
	}
	r.buf = append(r.buf, b...)
	return nil
}

// flush writes the pending runs, page data before out-of-band entries,
// so a crash between the two leaves the run's pages erased. A failure
// is sticky.
func (m *files) flush() error {
	if m.err != nil {
		return m.err
	}
	for _, r := range []*run{&m.data, &m.oob} {
		if len(r.buf) == 0 {
			continue
		}
		err := m.writeAt(r.seg, r.buf, r.off)
		r.buf = r.buf[:0]
		if err != nil {
			m.err = fmt.Errorf("filedev: page %d: %w", r.page, err)
			m.data.buf, m.oob.buf = m.data.buf[:0], m.oob.buf[:0]
			return m.err
		}
	}
	return nil
}

// writeAt writes b at byte offset off of segment seg and marks the
// segment dirty.
func (m *files) writeAt(seg int, b []byte, off int64) error {
	s, err := m.segment(seg, true)
	if err != nil {
		return err
	}
	if _, err := s.f.WriteAt(b, off); err != nil {
		return err
	}
	s.size = max(s.size, off+int64(len(b)))
	s.dirty = true
	return nil
}

// ReadPage reads stored page bytes out of the segment's mapping. Bytes
// past the end of a truncated segment read as zeros, like any other
// hole in the sparse file; the page's checksum is what notices.
func (m *files) ReadPage(page, off int, dst []byte) error {
	if err := m.flush(); err != nil {
		return err
	}
	s, err := m.segment(page/m.pagesPerSeg, true)
	if err != nil {
		return fmt.Errorf("filedev: page %d: %w", page, err)
	}
	clear(dst[s.read(dst, m.dataOffset(page)+int64(off)):])
	return nil
}

// WritePage queues the page image behind the pending data run.
func (m *files) WritePage(page int, image []byte) error {
	return m.queue(&m.data, page, m.dataOffset(page), image)
}

func (m *files) PatchByte(page, off int, b byte) error {
	return m.writeNow(page, []byte{b}, m.dataOffset(page)+int64(off))
}

// WriteOOB queues the page's out-of-band entry behind the pending one.
func (m *files) WriteOOB(page int, e storage.OOB) error {
	var b [oobEntry]byte
	if e.Programmed {
		b[0] |= flagProgrammed
	}
	if e.HasCRC {
		b[0] |= flagHasCRC
		binary.LittleEndian.PutUint32(b[1:], e.CRC)
	}
	return m.queue(&m.oob, page, m.oobOffset(page), b[:])
}

// ClearOOB zeroes the block's out-of-band entries in one contiguous run
// (a block never spans segments: segments are whole numbers of blocks).
func (m *files) ClearOOB(block int) error {
	first := block * m.p.PagesPerBlock
	return m.writeNow(first, make([]byte, m.p.PagesPerBlock*oobEntry), m.oobOffset(first))
}

// writeNow flushes the pending runs and then writes b at byte offset
// off of page's segment, so it lands after every earlier program.
func (m *files) writeNow(page int, b []byte, off int64) error {
	if err := m.flush(); err != nil {
		return err
	}
	if err := m.writeAt(page/m.pagesPerSeg, b, off); err != nil {
		return fmt.Errorf("filedev: page %d: %w", page, err)
	}
	return nil
}

// Sync writes the pending runs and, when the device was opened with
// fsync on, flushes dirty segments to stable storage; otherwise
// durability covers process crashes only.
func (m *files) Sync() error {
	if err := m.flush(); err != nil {
		return err
	}
	if !m.fsync {
		return nil
	}
	for _, s := range m.segs {
		if s == nil || !s.dirty {
			continue
		}
		if err := s.f.Sync(); err != nil {
			return err
		}
		s.dirty = false
	}
	return nil
}

// Close writes the pending runs and releases the segment mappings and
// file handles. A failed flush, now or earlier, is what it returns.
func (m *files) Close() error {
	first := m.flush()
	for i, s := range m.segs {
		if s == nil {
			continue
		}
		if err := syscall.Munmap(s.mem); err != nil && first == nil {
			first = err
		}
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
		m.segs[i] = nil
	}
	return first
}
