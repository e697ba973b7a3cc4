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
// Crash consistency mirrors NAND program semantics: the Device writes a
// page's data first and its out-of-band entry (programmed flag + CRC of
// the intended content) second, so a host crash between the two leaves
// the page reading as erased — exactly the torn-record state the
// engine's A/B commit protocol already recovers from. An erase only
// zeroes the block's out-of-band region; page data is left in place and
// reads are gated on the programmed flags. The optional fsync knob makes
// Sync (called by the engine at commit points) flush dirty segments,
// extending the guarantee from process crashes to host power loss.
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
	"io"
	"os"
	"path/filepath"

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

	segs        []*os.File // lazily opened segment files
	segDirty    []bool     // segments written since the last Sync
	pagesPerSeg int
	oobBytes    int // padded out-of-band table size per segment
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
	nsegs := (p.Blocks + segBlocks - 1) / segBlocks
	return storage.NewDevice(&files{
		dir:         dir,
		p:           p,
		fsync:       fsync,
		segs:        make([]*os.File, nsegs),
		segDirty:    make([]bool, nsegs),
		pagesPerSeg: pagesPerSeg,
		oobBytes:    ((pagesPerSeg*oobEntry + oobAlign - 1) / oobAlign) * oobAlign,
	}, p, nil)
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
	buf := make([]byte, m.oobBytes)
	for seg := range m.segs {
		f, err := os.OpenFile(m.segPath(seg), os.O_RDWR, 0o644)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		m.segs[seg] = f
		n, err := f.ReadAt(buf, 0)
		if err != nil && !shortRead(err) {
			return fmt.Errorf("filedev: %s out-of-band table: %w", m.segPath(seg), err)
		}
		// A shorter-than-OOB segment can only happen if creation was
		// interrupted before any page was programmed: the missing tail
		// is erased.
		clear(buf[n:])
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

// shortRead reports whether a ReadAt error only means the file ended
// before the buffer was full.
func shortRead(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

func (m *files) segPath(seg int) string {
	return filepath.Join(m.dir, fmt.Sprintf("seg-%04d.dat", seg))
}

// segPages reports how many pages segment seg covers (the last segment
// may be partial).
func (m *files) segPages(seg int) int {
	return min(m.p.PageCount()-seg*m.pagesPerSeg, m.pagesPerSeg)
}

// segFile returns the (lazily created) file for segment seg.
func (m *files) segFile(seg int) (*os.File, error) {
	if f := m.segs[seg]; f != nil {
		return f, nil
	}
	f, err := os.OpenFile(m.segPath(seg), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	m.segs[seg] = f
	return f, nil
}

// writeAt writes b at byte offset off of the segment holding page and
// marks the segment dirty.
func (m *files) writeAt(page int, b []byte, off int64) error {
	seg := page / m.pagesPerSeg
	f, err := m.segFile(seg)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(b, off); err != nil {
		return fmt.Errorf("filedev: page %d: %w", page, err)
	}
	m.segDirty[seg] = true
	return nil
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

// ReadPage reads stored page bytes. Bytes past the end of a truncated
// segment read as zeros, like any other hole in the sparse file; the
// page's checksum is what notices.
func (m *files) ReadPage(page, off int, dst []byte) error {
	f, err := m.segFile(page / m.pagesPerSeg)
	if err != nil {
		return err
	}
	n, err := f.ReadAt(dst, m.dataOffset(page)+int64(off))
	if err != nil && !shortRead(err) {
		return fmt.Errorf("filedev: page %d: %w", page, err)
	}
	clear(dst[n:])
	return nil
}

func (m *files) WritePage(page int, image []byte) error {
	return m.writeAt(page, image, m.dataOffset(page))
}

func (m *files) PatchByte(page, off int, b byte) error {
	return m.writeAt(page, []byte{b}, m.dataOffset(page)+int64(off))
}

func (m *files) WriteOOB(page int, e storage.OOB) error {
	var b [oobEntry]byte
	if e.Programmed {
		b[0] |= flagProgrammed
	}
	if e.HasCRC {
		b[0] |= flagHasCRC
		binary.LittleEndian.PutUint32(b[1:], e.CRC)
	}
	return m.writeAt(page, b[:], m.oobOffset(page))
}

// ClearOOB zeroes the block's out-of-band entries in one contiguous run
// (a block never spans segments: segments are whole numbers of blocks).
func (m *files) ClearOOB(block int) error {
	first := block * m.p.PagesPerBlock
	return m.writeAt(first, make([]byte, m.p.PagesPerBlock*oobEntry), m.oobOffset(first))
}

// Sync flushes dirty segments to stable storage when the device was
// opened with fsync on; otherwise it is a no-op and durability covers
// process crashes only.
func (m *files) Sync() error {
	if !m.fsync {
		return nil
	}
	for seg, dirty := range m.segDirty {
		if !dirty || m.segs[seg] == nil {
			continue
		}
		if err := m.segs[seg].Sync(); err != nil {
			return err
		}
		m.segDirty[seg] = false
	}
	return nil
}

// Close releases the segment file handles.
func (m *files) Close() error {
	var first error
	for i, f := range m.segs {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		m.segs[i] = nil
	}
	return first
}
