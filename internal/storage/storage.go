// Package storage is the engine's NAND: the page/block device that the
// flash allocator, store, checkpoint and recovery layers program
// against, implemented once as a Device over a Medium.
//
// Device is the chip, and the only implementation of the Backend
// contract. Everything the GhostDB cost model and crash-consistency
// story depend on lives there: reads are page-granular, a page is
// programmed at most once between erases (ErrNotErased), erases work on
// whole blocks, erased bytes and the tail of a short program read back
// as 0xFF, every address is range-checked with an error that names it,
// each programmed page carries an out-of-band CRC32 of its intended
// content (PageCRC) that is verified lazily on read (ErrCorrupt), the
// fault.Injector is consulted before every read, program and erase —
// transient faults retried with capped backoff, torn writes stored as a
// prefix under the intended checksum, bit rot flipped into the stored
// bytes — operations are counted in Stats, and, when the device has a
// sim.Clock, charged their latency to it.
//
// A Medium only stores bytes. It reads and writes page images, patches
// one byte, and persists the small out-of-band entry per page; it is
// called with in-range addresses and never sees the injector, a
// checksum or the clock. Two ship: storage/simflash (lazily allocated
// host memory, used with a clock — the paper's simulated chip) and
// storage/filedev (segment files in a directory, no clock — operations
// run at the speed of the host disk and survive the process). A new
// medium — a steganographic volume, a network block store — implements
// the eight Medium methods and a constructor that calls NewDevice, and
// gets integrity, fault injection, cost accounting, Image and the
// contract suite in this package's tests for free.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
)

// Errors reported by storage backends.
var (
	ErrNotErased  = errors.New("storage: page programmed twice without erase")
	ErrOutOfRange = errors.New("storage: address out of range")
	ErrPageTooBig = errors.New("storage: program data exceeds page size")
	// ErrCorrupt reports a page whose stored content no longer matches
	// its out-of-band CRC32 (torn write, bit rot).
	ErrCorrupt = errors.New("storage: page checksum mismatch")
)

// Params describes a backend's geometry and (simulated) cost model. The
// latency fields drive the simulated clock of the simflash backend and
// size the planner's cost estimates; a real-file backend ignores them
// at run time but keeps them so plans stay comparable across backends.
type Params struct {
	PageSize      int // bytes per page
	PagesPerBlock int // pages per erase block
	Blocks        int // erase blocks on the device

	ReadFixed   time.Duration // fixed cost of a page access
	ReadPerByte time.Duration // per byte streamed out of the page
	ProgFixed   time.Duration // fixed cost of programming a page
	ProgPerByte time.Duration // per byte programmed
	EraseFixed  time.Duration // cost of erasing one block
}

// Validate checks the geometry for sanity.
func (p Params) Validate() error {
	if p.PageSize <= 0 || p.PagesPerBlock <= 0 || p.Blocks <= 0 {
		return fmt.Errorf("storage: invalid geometry %d/%d/%d", p.PageSize, p.PagesPerBlock, p.Blocks)
	}
	if p.ReadFixed < 0 || p.ProgFixed < 0 || p.EraseFixed < 0 {
		return errors.New("storage: negative latencies")
	}
	return nil
}

// PageCount reports the total number of pages.
func (p Params) PageCount() int { return p.PagesPerBlock * p.Blocks }

// TotalBytes reports the device capacity in bytes.
func (p Params) TotalBytes() int64 {
	return int64(p.PageSize) * int64(p.PageCount())
}

// Stats counts backend operations and the simulated time they consumed
// (zero for backends without a simulated cost model).
type Stats struct {
	PageReads       int64
	PagesProgrammed int64
	BlockErases     int64
	BytesRead       int64
	BytesProgrammed int64
	ReadTime        time.Duration
	ProgTime        time.Duration
	EraseTime       time.Duration
}

// Sub returns the difference s - o, used to attribute stats to a query.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		PageReads:       s.PageReads - o.PageReads,
		PagesProgrammed: s.PagesProgrammed - o.PagesProgrammed,
		BlockErases:     s.BlockErases - o.BlockErases,
		BytesRead:       s.BytesRead - o.BytesRead,
		BytesProgrammed: s.BytesProgrammed - o.BytesProgrammed,
		ReadTime:        s.ReadTime - o.ReadTime,
		ProgTime:        s.ProgTime - o.ProgTime,
		EraseTime:       s.EraseTime - o.EraseTime,
	}
}

// Backend is the page/block device contract the engine programs
// against; *Device implements it over any Medium. A Backend is not safe
// for concurrent use — the engine's device gate serializes access,
// matching a single-threaded secure chip.
//
// Semantics:
//
//   - ReadAt/ReadPage return erased (never programmed) bytes as 0xFF.
//   - ProgramPage rejects a second program without an intervening
//     EraseBlock (ErrNotErased).
//   - Each programmed page carries an out-of-band CRC32 of the intended
//     full-page content (PageCRC); a read of a page whose stored bytes
//     diverge returns ErrCorrupt. A stored entry without a CRC — written
//     by an older release with checksums switched off — reads unverified.
//   - The injector, when set, is consulted before every read, program
//     and erase, and its torn-write/bit-flip effects are applied so
//     fault-torture suites behave identically across media.
type Backend interface {
	// Params returns the geometry and cost model.
	Params() Params
	// Stats returns a snapshot of the operation counters.
	Stats() Stats
	// ResetStats zeroes the counters (the stored content is untouched).
	ResetStats()

	// ReadAt fills dst with the bytes at byte offset addr.
	ReadAt(dst []byte, addr int64) error
	// ReadPage reads one full page into dst (which must be PageSize long).
	ReadPage(page int, dst []byte) error
	// ProgramPage writes data (at most one page) to an erased page.
	ProgramPage(page int, data []byte) error
	// EraseBlock resets every page of the block to the erased state.
	EraseBlock(block int) error
	// PageProgrammed reports whether the page has been programmed since
	// the last erase of its block.
	PageProgrammed(page int) bool

	// SetInjector installs a fault injector consulted before every read,
	// program and erase. Pass nil to remove it.
	SetInjector(inj *fault.Injector)

	// Image snapshots the persistent state — what survives a power cut —
	// for the recovery path. Image reads are forensic: free of simulated
	// cost and not subject to the injector.
	Image() (Image, error)

	// Sync makes everything programmed so far durable against a host
	// crash. The engine calls it at commit points; media without a
	// durability boundary (the simulation) treat it as a no-op.
	Sync() error
	// Close releases backend resources (file handles). The backend must
	// not be used afterwards.
	Close() error
}

// Image is a read-only view of a backend's persistent state — the page
// contents, programmed flags and out-of-band checksums that survive a
// power cut. The recovery path (core.Recover) reads committed data back
// out of an Image; reads are forensic and free, but every touched page
// is still verified against its OOB checksum so corruption cannot slip
// into a recovered database.
type Image interface {
	// Params returns the imaged device's geometry.
	Params() Params
	// PageProgrammed reports whether the imaged page holds programmed data.
	PageProgrammed(page int) bool
	// ReadAt fills dst from the image at byte offset addr, verifying the
	// OOB checksum of every page it touches. Erased bytes read as 0xFF.
	ReadAt(dst []byte, addr int64) error
	// ReadPage returns a verified copy of one full page. The second
	// result reports whether the page was programmed (an unprogrammed
	// page reads as all 0xFF).
	ReadPage(page int) ([]byte, bool, error)
}

// ffPad is a shared run of erased bytes: PageCRC hashes the erased tail
// of short pages from it, and fillFF copies it.
var ffPad = func() []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = 0xFF
	}
	return b
}()

// PageCRC hashes data extended with 0xFF to pageSize bytes — the page
// content a clean program stores. It is the out-of-band checksum the
// Device writes at program time and verifies at read time.
func PageCRC(data []byte, pageSize int) uint32 {
	c := crc32.ChecksumIEEE(data)
	for pad := pageSize - len(data); pad > 0; {
		n := pad
		if n > len(ffPad) {
			n = len(ffPad)
		}
		c = crc32.Update(c, crc32.IEEETable, ffPad[:n])
		pad -= n
	}
	return c
}

// Kind names a backend implementation selectable through the engine's
// options and DSN (backend=sim|file).
type Kind string

// Backend kinds.
const (
	// KindSim is the simulated NAND device with a deterministic cost
	// model (the default; storage/simflash).
	KindSim Kind = "sim"
	// KindFile is the persistent real-file backend (storage/filedev).
	KindFile Kind = "file"
)

// Config selects and parameterizes a backend implementation. The zero
// value means the simulated default.
type Config struct {
	// Kind selects the implementation ("" or KindSim = simulation).
	Kind Kind
	// Path is the on-disk directory of a file backend (one device per
	// directory; a sharded engine appends shardN per shard).
	Path string
	// Fsync, for the file backend, fsyncs dirty segments at every commit
	// point so committed versions survive a host power loss — not just a
	// process crash. Off by default: the torture suites exercise process
	// crash-consistency, where the page-ordering discipline alone
	// suffices.
	Fsync bool
}

// Sim returns the simulated-backend config (the default).
func Sim() Config { return Config{Kind: KindSim} }

// File returns a file-backend config rooted at dir.
func File(dir string, fsync bool) Config {
	return Config{Kind: KindFile, Path: dir, Fsync: fsync}
}

// IsFile reports whether the config selects the file backend.
func (c Config) IsFile() bool { return c.Kind == KindFile }

// Validate checks the config.
func (c Config) Validate() error {
	switch c.Kind {
	case "", KindSim:
		if c.Path != "" {
			return fmt.Errorf("storage: backend %q does not take a path", KindSim)
		}
		if c.Fsync {
			return fmt.Errorf("storage: backend %q does not take fsync", KindSim)
		}
		return nil
	case KindFile:
		if c.Path == "" {
			return fmt.Errorf("storage: backend %q requires a path", KindFile)
		}
		return nil
	}
	return fmt.Errorf("storage: unknown backend kind %q", c.Kind)
}
