package storage

import (
	"fmt"
	"hash/crc32"
	"slices"
	"time"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/sim"
)

// Transient-fault retry policy: capped exponential backoff, charged to
// the simulated clock when there is one (the device firmware re-issues
// the operation).
const (
	MaxFaultRetries  = 4
	RetryBackoffBase = 100 * time.Microsecond
	RetryBackoffCap  = 800 * time.Microsecond
)

// OOB is one page's persistent out-of-band entry.
type OOB struct {
	CRC        uint32 // PageCRC of the content the program was meant to store
	HasCRC     bool   // CRC is valid; an entry without it reads back unverified
	Programmed bool   // programmed since the last erase of its block
}

// Medium is the byte store under a Device: it keeps page bytes and
// out-of-band entries and gives them back. It decides nothing — bounds,
// program-once, erased reads, checksums, faults and costs are the
// Device's — so it is only ever called with in-range addresses, and
// reads only pages whose last OOB entry said Programmed. A medium may
// hold writes back (filedev batches programs into runs) as long as every
// read sees them and they reach its store in order, each page's data
// before its entry, by the next Sync or Close.
type Medium interface {
	// ReadPage fills dst with the stored bytes of page from byte off on.
	ReadPage(page, off int, dst []byte) error
	// WritePage stores a full page image (PageSize bytes, not retained).
	WritePage(page int, image []byte) error
	// PatchByte overwrites one stored byte of a page.
	PatchByte(page, off int, b byte) error
	// WriteOOB persists a page's out-of-band entry. The Device calls it
	// after WritePage, so a crash between the two leaves the page erased.
	WriteOOB(page int, e OOB) error
	// ClearOOB persists the erased entry for every page of block.
	ClearOOB(block int) error
	// LoadOOB visits every non-erased entry the medium holds. NewDevice
	// calls it once.
	LoadOOB(visit func(page int, e OOB)) error
	// Sync makes everything written so far durable against a host crash.
	Sync() error
	// Close releases the medium's resources; a second Close is a no-op.
	Close() error
}

// Device is the NAND chip over a Medium: the one implementation of
// Backend. It is not safe for concurrent use.
type Device struct {
	m     Medium
	p     Params
	clock *sim.Clock // nil: operations cost no simulated time
	// blocks[i] == nil means no page of block i was programmed since the
	// device was opened, so a gigabyte-class geometry costs host memory
	// only for the blocks in use.
	blocks  []*blockState
	scratch []byte // one page: staged partial programs, whole-page loads behind partial reads
	stats   Stats

	inj *fault.Injector // nil = fault-free
}

type blockState struct{ pages []pageState }

// pageState is a page's OOB entry plus the volatile verified memo: the
// stored bytes were already checked against crc, so steady-state reads
// skip the host-side hash. It resets on open and on every mutation.
type pageState struct {
	OOB
	verified bool
}

// NewDevice returns the device over m, with the out-of-band state m
// already holds; it owns m from here on and closes it if it fails. A
// nil clock makes every operation free of simulated time (stats count
// operations and bytes only).
func NewDevice(m Medium, p Params, clock *sim.Clock) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		m:       m,
		p:       p,
		clock:   clock,
		blocks:  make([]*blockState, p.Blocks),
		scratch: make([]byte, p.PageSize),
	}
	err := m.LoadOOB(func(page int, e OOB) {
		*d.materialize(page) = pageState{OOB: e}
	})
	if err != nil {
		m.Close()
		return nil, err
	}
	return d, nil
}

// Params returns the device geometry and cost model.
func (d *Device) Params() Params { return d.p }

// Stats returns a snapshot of the operation counters.
func (d *Device) Stats() Stats { return d.stats }

// ResetStats zeroes the counters (the stored content is untouched).
func (d *Device) ResetStats() { d.stats = Stats{} }

// SetInjector installs a fault injector consulted before every read,
// program and erase. Pass nil to remove it.
func (d *Device) SetInjector(inj *fault.Injector) { d.inj = inj }

// Sync makes everything programmed so far durable on the medium.
func (d *Device) Sync() error { return d.m.Sync() }

// Close releases the medium. The device must not be used afterwards.
func (d *Device) Close() error { return d.m.Close() }

// state returns the page's state, or nil while its block is untouched.
func (d *Device) state(page int) *pageState {
	b := d.blocks[page/d.p.PagesPerBlock]
	if b == nil {
		return nil
	}
	return &b.pages[page%d.p.PagesPerBlock]
}

func (d *Device) materialize(page int) *pageState {
	i := page / d.p.PagesPerBlock
	if d.blocks[i] == nil {
		d.blocks[i] = &blockState{pages: make([]pageState, d.p.PagesPerBlock)}
	}
	return &d.blocks[i].pages[page%d.p.PagesPerBlock]
}

func (d *Device) now() time.Duration {
	if d.clock == nil {
		return 0
	}
	return d.clock.Now()
}

// charge adds t to one of the stats' time totals and to the clock.
func (d *Device) charge(total *time.Duration, t time.Duration) {
	if d.clock == nil {
		return
	}
	*total += t
	d.clock.Advance(t)
}

// injectOp consults the fault plan for one device operation, retrying
// transient faults with capped exponential backoff. Transient faults
// that survive every retry escalate to a permanent error.
func (d *Device) injectOp(op fault.Op) error {
	if d.inj == nil {
		return nil
	}
	err := d.inj.BeforeOp(op, d.now())
	for attempt := 0; fault.IsTransient(err) && attempt < MaxFaultRetries; attempt++ {
		if d.clock != nil {
			d.clock.Advance(min(RetryBackoffBase<<attempt, RetryBackoffCap))
		}
		d.inj.NoteRetry(op)
		err = d.inj.BeforeOp(op, d.now())
	}
	if fault.IsTransient(err) {
		return fmt.Errorf("%w: %d retries exhausted: %v", fault.ErrPermanent, MaxFaultRetries, err)
	}
	return err
}

func (d *Device) pageRange(page int) error {
	if page < 0 || page >= d.p.PageCount() {
		return fmt.Errorf("%w: page %d of %d (block %d of %d)", ErrOutOfRange, page, d.p.PageCount(), page/d.p.PagesPerBlock, d.p.Blocks)
	}
	return nil
}

// ReadAt fills dst with the bytes at byte offset addr. Each distinct page
// touched is one page access, charged its fixed cost plus the per-byte
// streaming cost of the bytes taken from it.
func (d *Device) ReadAt(dst []byte, addr int64) error {
	if addr < 0 || addr+int64(len(dst)) > d.p.TotalBytes() {
		return fmt.Errorf("%w: read [%d, %d) of device [0, %d)", ErrOutOfRange, addr, addr+int64(len(dst)), d.p.TotalBytes())
	}
	ps := int64(d.p.PageSize)
	for len(dst) > 0 {
		off := int(addr % ps)
		n := min(d.p.PageSize-off, len(dst))
		if err := d.readPage(int(addr/ps), off, dst[:n]); err != nil {
			return err
		}
		dst = dst[n:]
		addr += int64(n)
	}
	return nil
}

// ReadPage reads one full page into dst (which must be PageSize long).
func (d *Device) ReadPage(page int, dst []byte) error {
	if err := d.pageRange(page); err != nil {
		return err
	}
	if len(dst) != d.p.PageSize {
		return fmt.Errorf("storage: ReadPage buffer %d, want %d", len(dst), d.p.PageSize)
	}
	return d.readPage(page, 0, dst)
}

// readPage is one page access: fault plan, cost, then — on programmed
// pages only — bit rot and the checksum. Verification is lazy: once a
// page passes it is not hashed again until something mutates it, so the
// steady-state read goes straight from the medium into dst.
func (d *Device) readPage(page, off int, dst []byte) error {
	if err := d.injectOp(fault.OpRead); err != nil {
		return err
	}
	d.stats.PageReads++
	d.stats.BytesRead += int64(len(dst))
	d.charge(&d.stats.ReadTime, d.p.ReadFixed+time.Duration(len(dst))*d.p.ReadPerByte)
	st := d.state(page)
	if st == nil || !st.Programmed {
		fillFF(dst)
		return nil
	}
	flipAt, mask := d.inj.FlipBit(d.p.PageSize)
	if mask != 0 {
		st.verified = false
	}
	check := st.HasCRC && !st.verified
	if mask == 0 && !check {
		return d.m.ReadPage(page, off, dst)
	}
	// This access needs the whole stored page.
	whole := dst
	if len(dst) != d.p.PageSize {
		whole = d.scratch
	}
	if err := d.m.ReadPage(page, 0, whole); err != nil {
		return err
	}
	if mask != 0 {
		// Stored-bit rot is persistent: it stays until the block is erased.
		whole[flipAt] ^= mask
		if err := d.m.PatchByte(page, flipAt, whole[flipAt]); err != nil {
			return err
		}
	}
	if check {
		if crc32.ChecksumIEEE(whole) != st.CRC {
			d.inj.NoteChecksum()
			return fmt.Errorf("%w: page %d (block %d, page %d in block)", ErrCorrupt, page, page/d.p.PagesPerBlock, page%d.p.PagesPerBlock)
		}
		st.verified = true
	}
	if len(dst) != d.p.PageSize {
		copy(dst, whole[off:])
	}
	return nil
}

// ProgramPage writes data (at most one page) to an erased page; NAND
// forbids reprogramming. The OOB CRC covers the full intended content
// (data plus its 0xFF tail), so a torn write — the injector truncating
// the stored prefix — is caught by the next verified read.
func (d *Device) ProgramPage(page int, data []byte) error {
	if err := d.pageRange(page); err != nil {
		return err
	}
	if len(data) > d.p.PageSize {
		return fmt.Errorf("%w: %d > %d at page %d (block %d)", ErrPageTooBig, len(data), d.p.PageSize, page, page/d.p.PagesPerBlock)
	}
	if err := d.injectOp(fault.OpProgram); err != nil {
		return err
	}
	if st := d.state(page); st != nil && st.Programmed {
		return fmt.Errorf("%w: page %d (block %d, page %d in block)", ErrNotErased, page, page/d.p.PagesPerBlock, page%d.p.PagesPerBlock)
	}
	image, torn := data, false
	if n := d.inj.TornBytes(len(data)); n >= 0 {
		image, torn = data[:n], true
	}
	if len(image) < d.p.PageSize {
		// The tail past the stored prefix reads back as erased NAND,
		// whatever the medium held there before the last erase.
		n := copy(d.scratch, image)
		fillFF(d.scratch[n:])
		image = d.scratch
	}
	if err := d.m.WritePage(page, image); err != nil {
		return err
	}
	// The checksum is computed after the page write, not before it: the
	// hash then overlaps the write's stores draining, which the clock's
	// atomic add at the end would otherwise stall on.
	st := pageState{
		OOB: OOB{CRC: PageCRC(data, d.p.PageSize), HasCRC: true, Programmed: true},
		// A clean program is trivially verified; a torn one is not.
		verified: !torn,
	}
	if err := d.m.WriteOOB(page, st.OOB); err != nil {
		return err
	}
	// Only now: a failed write leaves memory and medium agreeing that
	// the page is erased.
	*d.materialize(page) = st
	d.stats.PagesProgrammed++
	d.stats.BytesProgrammed += int64(len(data))
	d.charge(&d.stats.ProgTime, d.p.ProgFixed+time.Duration(len(data))*d.p.ProgPerByte)
	return nil
}

// EraseBlock resets every page of the block to the erased state. Only
// the out-of-band entries are cleared — reads are gated on them — so
// the medium keeps whatever it allocated for the block.
func (d *Device) EraseBlock(block int) error {
	if block < 0 || block >= d.p.Blocks {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.p.Blocks)
	}
	if err := d.injectOp(fault.OpErase); err != nil {
		return err
	}
	if b := d.blocks[block]; b != nil && slices.ContainsFunc(b.pages, func(st pageState) bool { return st.Programmed }) {
		if err := d.m.ClearOOB(block); err != nil {
			return err
		}
		clear(b.pages)
	}
	d.stats.BlockErases++
	d.charge(&d.stats.EraseTime, d.p.EraseFixed)
	return nil
}

// PageProgrammed reports whether the page has been programmed since the
// last erase of its block. Out-of-range pages are not.
func (d *Device) PageProgrammed(page int) bool {
	if page < 0 || page >= d.p.PageCount() {
		return false
	}
	st := d.state(page)
	return st != nil && st.Programmed
}

// Image snapshots the persistent state into host memory, one block per
// block holding a programmed page. Reads are forensic: free of simulated
// cost and not subject to the injector.
func (d *Device) Image() (Image, error) {
	img := &memImage{p: d.p, blocks: make([]*imageBlock, d.p.Blocks)}
	ps := d.p.PageSize
	for i, b := range d.blocks {
		if b == nil {
			continue
		}
		var data []byte
		for slot, st := range b.pages {
			if !st.Programmed {
				continue
			}
			if data == nil {
				data = make([]byte, d.p.PagesPerBlock*ps)
			}
			if err := d.m.ReadPage(i*d.p.PagesPerBlock+slot, 0, data[slot*ps:(slot+1)*ps]); err != nil {
				return nil, err
			}
		}
		if data != nil {
			img.blocks[i] = &imageBlock{data: data, pages: slices.Clone(b.pages)}
		}
	}
	return img, nil
}

// fillFF sets b to erased NAND, a copy of ffPad at a time.
func fillFF(b []byte) {
	for len(b) > 0 {
		b = b[copy(b, ffPad):]
	}
}

var _ Backend = (*Device)(nil)
