// Package flash holds the backend-agnostic flash allocation layer: the
// append-only Space/Writer machinery, the streaming Reader and the LRU
// page Cache the engine uses on top of any storage.Backend. The NAND
// device model itself lives behind that interface — storage.Device, over
// storage/simflash's host memory with the deterministic cost model or
// storage/filedev's persistent segment files — and everything in this
// package works identically over either.
//
// The geometry/cost types and device-level errors are re-exported from
// internal/storage so the many layers above (device profiles, planner
// cost arithmetic, stats reports) keep their vocabulary.
package flash

import (
	"errors"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// Params describes a backend's geometry and cost model.
type Params = storage.Params

// Stats counts backend operations and the simulated time they consumed.
type Stats = storage.Stats

// Device-level errors, shared across backends.
var (
	ErrOutOfRange = storage.ErrOutOfRange
	// ErrCorrupt reports a page whose stored content no longer matches
	// its out-of-band CRC32 (torn write, bit rot).
	ErrCorrupt = storage.ErrCorrupt
)

// Allocator-level errors.
var (
	ErrSpaceFull  = errors.New("flash: space exhausted")
	ErrWriterOpen = errors.New("flash: space already has an open writer")
	ErrWriterDone = errors.New("flash: writer already closed")
)
