// Package delta is GhostDB's live-mutation layer: a per-table RAM store
// of post-build inserted and updated rows plus a tombstone set of
// deleted identifiers, layered over the write-once flash column files.
//
// The flash constraint makes the base segments immutable, so all DML
// after the bulk load lands here, in the style of Bertossi & Li's
// null-based virtual updates: queries answer as if the mutations were
// applied while the base data stays physically untouched. The hidden
// part of every delta row (hidden column values, identifiers and
// tombstones) lives in the smart USB device's RAM and is charged against
// its arena — the device cannot hold an unbounded delta, which is
// exactly the pressure that forces a CHECKPOINT. Visible column values
// of delta rows stay in host memory on the untrusted side, mirroring the
// visible/hidden split of the base store.
//
// Identifiers stay dense and positional: an inserted row takes the next
// identifier after the current maximum; an updated base row keeps its
// identifier and shadows the base version; a deleted identifier is
// tombstoned and never reused. CHECKPOINT (in internal/core) merges the
// delta into fresh flash segments, renumbering survivors densely, and
// releases every grant this package holds.
package delta

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/value"
)

// tombstoneBytes is the device-RAM cost of one tombstoned identifier.
const tombstoneBytes = 4

// idBytes is the device-RAM cost of keying one delta-resident row.
const idBytes = 4

// Store holds the deltas of every table of one database, charging the
// hidden share against the device RAM arena. Tables are addressed by
// their schema ordinal (schema.Table.Ordinal). It is not internally
// locked: the engine serializes all access under its device gate.
type Store struct {
	arena  *ram.Arena
	tables []*Table // by table ordinal; nil until the first mutation
}

// NewStore returns an empty delta store charging hidden bytes to arena.
func NewStore(arena *ram.Arena) *Store {
	return &Store{arena: arena}
}

// Ensure returns the table's delta, creating it on first mutation.
func (s *Store) Ensure(t *schema.Table, baseRows int) *Table {
	ord := t.Ordinal()
	if d := s.Get(ord); d != nil {
		return d
	}
	d := &Table{
		sch:      t,
		arena:    s.arena,
		baseRows: baseRows,
		nextID:   uint32(baseRows) + 1,
		rows:     map[uint32][]value.Value{},
		tombs:    map[uint32]struct{}{},
	}
	if ord >= len(s.tables) {
		s.tables = append(s.tables, make([]*Table, ord+1-len(s.tables))...)
	}
	s.tables[ord] = d
	return d
}

// Get returns the delta of the table with the given ordinal, or nil when
// the table has had no mutation since the last CHECKPOINT.
func (s *Store) Get(ord int) *Table {
	if ord >= len(s.tables) {
		return nil
	}
	return s.tables[ord]
}

// Dirty reports whether any table carries delta rows or tombstones.
func (s *Store) Dirty() bool {
	for _, d := range s.tables {
		if d != nil && d.Dirty() {
			return true
		}
	}
	return false
}

// Entries counts delta rows plus tombstones across all tables — the
// quantity the deltalimit auto-checkpoint knob bounds.
func (s *Store) Entries() int {
	n := 0
	for _, d := range s.tables {
		if d != nil {
			n += len(d.rows) + len(d.tombs)
		}
	}
	return n
}

// Tables returns the per-table deltas sorted by table name.
func (s *Store) Tables() []*Table {
	out := make([]*Table, 0, len(s.tables))
	for _, d := range s.tables {
		if d != nil {
			out = append(out, d)
		}
	}
	slices.SortFunc(out, func(a, b *Table) int { return cmp.Compare(a.sch.Name, b.sch.Name) })
	return out
}

// ReleaseAll frees every RAM grant and empties the store. The engine
// calls it when a CHECKPOINT has merged the delta into flash.
func (s *Store) ReleaseAll() {
	for _, d := range s.tables {
		if d != nil {
			d.grant.Free()
		}
	}
	s.tables = nil
}

// Table is one table's RAM-resident delta.
type Table struct {
	sch      *schema.Table
	arena    *ram.Arena
	baseRows int
	nextID   uint32 // next dense primary key (never reused)

	// rows holds the delta-resident row images keyed by identifier: an
	// id <= baseRows shadows (overrides) the base version, an id beyond
	// it is a post-build insert. Values are in schema column order.
	rows  map[uint32][]value.Value
	tombs map[uint32]struct{}

	deviceBytes int64 // hidden share, covered by grant
	hostBytes   int64 // visible share, host memory
	grant       *ram.Grant
}

// Name returns the table name.
func (t *Table) Name() string { return t.sch.Name }

// NextID returns the next dense primary key an INSERT must carry.
func (t *Table) NextID() uint32 { return t.nextID }

// MaxID returns the highest identifier ever assigned.
func (t *Table) MaxID() uint32 { return t.nextID - 1 }

// Rows reports the number of delta-resident row images.
func (t *Table) Rows() int { return len(t.rows) }

// Tombstones reports the number of tombstoned identifiers.
func (t *Table) Tombstones() int { return len(t.tombs) }

// Dirty reports whether the delta holds anything.
func (t *Table) Dirty() bool { return len(t.rows) > 0 || len(t.tombs) > 0 }

// DeviceBytes reports the hidden share charged to the device arena.
func (t *Table) DeviceBytes() int64 { return t.deviceBytes }

// HostBytes reports the visible share held in host memory.
func (t *Table) HostBytes() int64 { return t.hostBytes }

// Row returns the delta image of id, if the row is delta-resident.
func (t *Table) Row(id uint32) ([]value.Value, bool) {
	r, ok := t.rows[id]
	return r, ok
}

// Tombstoned reports whether id has been deleted.
func (t *Table) Tombstoned(id uint32) bool {
	_, ok := t.tombs[id]
	return ok
}

// Shadowed reports whether the base row id is dead for the base
// pipeline: tombstoned, or shadowed by a delta image with newer values.
// The climbing indexes, Bloom filters and SKTs answer for the base
// segments only, so every shadowed identifier must be subtracted from
// their streams and re-evaluated against the delta.
func (t *Table) Shadowed(id uint32) bool {
	if _, ok := t.tombs[id]; ok {
		return true
	}
	if int(id) > t.baseRows {
		return false // never in the base segment
	}
	_, ok := t.rows[id]
	return ok
}

// ShadowedBaseIDs returns the sorted base identifiers that are dead for
// the base pipeline (tombstoned or shadowed).
func (t *Table) ShadowedBaseIDs() []uint32 {
	var out []uint32
	for id := range t.rows {
		if int(id) <= t.baseRows {
			out = append(out, id)
		}
	}
	for id := range t.tombs {
		if int(id) <= t.baseRows {
			if _, dup := t.rows[id]; !dup {
				out = append(out, id)
			}
		}
	}
	slices.Sort(out)
	return out
}

// DeltaIDs returns the sorted identifiers of delta-resident rows.
func (t *Table) DeltaIDs() []uint32 {
	out := make([]uint32, 0, len(t.rows))
	for id := range t.rows {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// TombstonedIDs returns the sorted tombstoned identifiers.
func (t *Table) TombstonedIDs() []uint32 {
	out := make([]uint32, 0, len(t.tombs))
	for id := range t.tombs {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// chargeRaw grows the grant by dev bytes — the hidden share of one whole
// statement, identifier keys and tombstones included — and books host
// bytes. A failure means the device RAM budget is exhausted and the
// statement must be rejected until a CHECKPOINT drains the delta.
func (t *Table) chargeRaw(dev, host int64) error {
	if dev > 0 {
		if t.grant == nil {
			g, err := t.arena.Alloc(int(dev), "delta:"+t.sch.Name)
			if err != nil {
				return fmt.Errorf("delta: %s: %w (CHECKPOINT to drain the delta)", t.sch.Name, err)
			}
			t.grant = g
		} else if err := t.grant.Resize(int(t.deviceBytes + dev)); err != nil {
			return fmt.Errorf("delta: %s: %w (CHECKPOINT to drain the delta)", t.sch.Name, err)
		}
		t.deviceBytes += dev
	}
	t.hostBytes += host
	return nil
}

// InsertAll appends post-build rows, stored as given (already coerced to
// column kinds by the engine), atomically: either every row is charged and
// stored (identifiers assigned densely from NextID, first returned) or
// none is. Multi-row INSERT statements must not half-apply when the RAM
// budget runs out mid-statement.
func (t *Table) InsertAll(rows [][]value.Value) (uint32, error) {
	first := t.nextID
	var dev, host int64
	for _, row := range rows {
		rd, rh := t.rowBytes(row)
		dev += idBytes + rd
		host += rh
	}
	if err := t.chargeRaw(dev, host); err != nil {
		return 0, err
	}
	for _, row := range rows {
		t.rows[t.nextID] = row
		t.nextID++
	}
	return first, nil
}

// ApplyAll stores rows[i] as the updated image of ids[i] (distinct
// identifiers), shadowing the base version or replacing an earlier delta
// image, atomically: the statement's whole growth is charged at once, and
// a deleted identifier or an exhausted RAM budget leaves the delta
// untouched. Replacing a resident image charges any growth of its hidden
// share; freed bytes of a shrinking image are not returned to the arena
// until CHECKPOINT — RAM free lists fragment; the checkpoint is what
// compacts.
func (t *Table) ApplyAll(ids []uint32, rows [][]value.Value) error {
	var dev, host int64
	for i, id := range ids {
		if t.Tombstoned(id) {
			return fmt.Errorf("delta: %s id %d is deleted", t.sch.Name, id)
		}
		newDev, newHost := t.rowBytes(rows[i])
		if old, resident := t.rows[id]; resident {
			oldDev, oldHost := t.rowBytes(old)
			dev += max(0, newDev-oldDev)
			host += max(0, newHost-oldHost)
		} else {
			dev += idBytes + newDev
			host += newHost
		}
	}
	if err := t.chargeRaw(dev, host); err != nil {
		return err
	}
	for i, id := range ids {
		t.rows[id] = rows[i]
	}
	return nil
}

// rowBytes splits one row image's footprint into its hidden (device)
// and visible (host) shares, excluding the identifier key.
func (t *Table) rowBytes(row []value.Value) (dev, host int64) {
	for i, c := range t.sch.Columns {
		if c.Hidden {
			dev += int64(row[i].EncodedSize())
		} else {
			host += int64(row[i].EncodedSize())
		}
	}
	return dev, host
}

// DeleteAll tombstones ids (distinct identifiers), dropping any delta
// images they had, atomically: an already deleted identifier or an
// exhausted RAM budget leaves the delta untouched.
func (t *Table) DeleteAll(ids []uint32) error {
	for _, id := range ids {
		if t.Tombstoned(id) {
			return fmt.Errorf("delta: %s id %d is already deleted", t.sch.Name, id)
		}
	}
	if err := t.chargeRaw(int64(len(ids))*tombstoneBytes, 0); err != nil {
		return err
	}
	for _, id := range ids {
		delete(t.rows, id)
		t.tombs[id] = struct{}{}
	}
	return nil
}
