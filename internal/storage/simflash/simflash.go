// Package simflash is the simulated smart USB device's external NAND
// flash store (Figure 2 of the GhostDB paper): a gigabyte-class array of
// pages grouped into erase blocks, where
//
//   - reads are page-granular and cheap,
//   - programs (writes) cost 3–10× a read and a page can be programmed only
//     once between erases (writes in place are precluded),
//   - erases work on whole blocks and are the most expensive operation.
//
// Those rules, the per-page checksums and the fault model are the
// storage.Device's. This package supplies what makes the device a
// simulation: New pairs it with the shared simulated clock, so every
// operation charges its latency there and higher layers measure query
// cost in deterministic device time, and the medium under it is host
// memory, materialized block by block, so a simulated multi-gigabyte
// device only consumes host memory for the blocks actually programmed.
package simflash

import (
	"errors"

	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
)

// New returns a simulated NAND device with the given geometry, charging
// to clock. It is the backend the engine uses by default.
func New(p storage.Params, clock *sim.Clock) (*storage.Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, errors.New("simflash: nil clock")
	}
	return storage.NewDevice(&memory{p: p, blocks: make([]*block, p.Blocks)}, p, clock)
}

// memory is the storage.Medium: page bytes in host memory. What survives
// a simulated power cut is the process's own memory, so the out-of-band
// entries need no second home beyond the Device's.
type memory struct {
	p storage.Params
	// blocks[i] == nil until a page of block i is first written. A block
	// keeps its buffer across erases, so scratch-heavy workloads recycle
	// block buffers instead of reallocating them on every query.
	blocks []*block
}

type block struct{ data []byte } // PagesPerBlock * PageSize

// stored returns the page's bytes within its (already written) block.
func (m *memory) stored(page int) []byte {
	start := (page % m.p.PagesPerBlock) * m.p.PageSize
	return m.blocks[page/m.p.PagesPerBlock].data[start : start+m.p.PageSize]
}

func (m *memory) ReadPage(page, off int, dst []byte) error {
	copy(dst, m.stored(page)[off:])
	return nil
}

func (m *memory) WritePage(page int, image []byte) error {
	if i := page / m.p.PagesPerBlock; m.blocks[i] == nil {
		// No 0xFF fill: the Device gates reads on the programmed flags.
		m.blocks[i] = &block{data: make([]byte, m.p.PagesPerBlock*m.p.PageSize)}
	}
	copy(m.stored(page), image)
	return nil
}

func (m *memory) PatchByte(page, off int, b byte) error {
	m.stored(page)[off] = b
	return nil
}

func (m *memory) WriteOOB(int, storage.OOB) error { return nil }

func (m *memory) ClearOOB(int) error { return nil }

func (m *memory) LoadOOB(func(int, storage.OOB)) error { return nil }

// Sync is a no-op: the simulation has no host-durability boundary.
func (m *memory) Sync() error { return nil }

// Close is a no-op: the simulation holds no external resources.
func (m *memory) Close() error { return nil }
