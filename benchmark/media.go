package main

import (
	"os"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/storage/filedev"
	"github.com/ghostdb/ghostdb/internal/storage/simflash"
)

// mediaPages is how much of the medium a probe touches: 64 erase blocks
// at the SmartUSB2007 geometry.
const mediaPages = 4096

// probeMedia times the three primitive operations of a storage backend by
// direct calls, with nothing of the engine above it: program every page,
// read every page back, erase every block. Host nanoseconds per call.
func probeMedia(b storage.Backend) (read, program, erase float64, err error) {
	p := b.Params()
	page := make([]byte, p.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	per := func(start time.Time, n int) float64 { return float64(time.Since(start).Nanoseconds()) / float64(n) }

	start := time.Now()
	for i := 0; i < mediaPages; i++ {
		if err = b.ProgramPage(i, page); err != nil {
			return
		}
	}
	program = per(start, mediaPages)

	start = time.Now()
	for i := 0; i < mediaPages; i++ {
		if err = b.ReadPage(i, page); err != nil {
			return
		}
	}
	read = per(start, mediaPages)

	blocks := mediaPages / p.PagesPerBlock
	start = time.Now()
	for i := 0; i < blocks; i++ {
		if err = b.EraseBlock(i); err != nil {
			return
		}
	}
	erase = per(start, blocks)
	return
}

// simMedia probes the simulated NAND chip.
func simMedia() (metrics, error) {
	b, err := simflash.New(device.SmartUSB2007().Flash, sim.NewClock())
	if err != nil {
		return nil, err
	}
	read, program, erase, err := probeMedia(b)
	return metrics{"simflash.read_page_ns": read, "simflash.program_page_ns": program, "simflash.erase_block_ns": erase}, err
}

// fileMedia probes the real-file backend with fsync on, in a directory
// it creates and removes.
func fileMedia(dir string) (metrics, error) {
	defer os.RemoveAll(dir)
	start := time.Now()
	b, err := filedev.Open(dir, device.SmartUSB2007().Flash, true)
	if err != nil {
		return nil, err
	}
	m := metrics{"filedev.open_ms": ms(time.Since(start))}
	defer b.Close()

	// Sync is timed on its own, after a burst of programs has dirtied
	// the segments, before the probe erases them again.
	page := make([]byte, b.Params().PageSize)
	for i := mediaPages; i < mediaPages+b.Params().PagesPerBlock; i++ {
		if err := b.ProgramPage(i, page); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	if err := b.Sync(); err != nil {
		return nil, err
	}
	m["filedev.sync_us"] = float64(time.Since(start).Microseconds())

	read, program, erase, err := probeMedia(b)
	m["filedev.read_page_ns"], m["filedev.program_page_ns"], m["filedev.erase_block_ns"] = read, program, erase
	return m, err
}
