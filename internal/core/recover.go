package core

// Crash recovery. Snapshot captures what survives a crash in GhostDB's
// model: the device's flash contents (as verified images) plus the
// server-durable visible store and catalog. Recover rebuilds a working
// database from a snapshot alone, landing on exactly the newest fully
// committed version — the A/B commit records make the outcome binary:
// a CHECKPOINT whose record write completed is wholly visible, one cut
// short is wholly rolled back to the previous version. Uncommitted
// delta mutations are volatile by design; their loss is bounded by the
// deltalimit auto-checkpoint knob.

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/store"
	"github.com/ghostdb/ghostdb/internal/value"
)

// shardState is one device's crash-surviving state: its flash image and
// the server-side visible columns of its recent committed versions.
type shardState struct {
	img storage.Image
	vis map[uint64]visImage
}

// ErrCorruptState marks recovered state — a snapshot, or a file-backed
// database's sidecar and flash image — that does not describe a database:
// a foreign key naming no row, a visible column not of its declared kind.
var ErrCorruptState = errors.New("core: recovered state is inconsistent")

// Snapshot is a point-in-time capture of everything that survives a
// crash: per-device flash images, the server-durable visible column
// data, the catalog DDL, and the options the database ran with. Take
// one with DB.Snapshot, rebuild with Recover.
type Snapshot struct {
	opts   Options
	ddl    []string
	shards []shardState
}

// Snapshot captures the crash-surviving state of the database: flash
// images of every device (single or per shard) plus the server-side
// visible data and catalog. It works on a healthy database and — the
// point of it — on one whose device has died mid-operation
// (FatalError != nil): imaging reads the simulated flash array
// directly, the way a forensic reader would lift the NAND from a
// yanked device.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if !db.loaded {
		return nil, fmt.Errorf("core: snapshot before Build")
	}
	snap := &Snapshot{opts: db.opts, ddl: append([]string(nil), db.ddl...)}
	ss := &db.shards
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	for s, e := range ss.engines {
		e.mu.Lock()
		img, err := e.dev.Flash.Image()
		vis := maps.Clone(e.committedVis) // the versions' columns are immutable and shared
		e.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot: imaging shard %d: %w", s, err)
		}
		snap.shards = append(snap.shards, shardState{img: img, vis: vis})
	}
	return snap, nil
}

// RecoverInfo reports what Recover landed on.
type RecoverInfo struct {
	// Version is the committed version the database recovered to — the
	// newest version fully committed on every device.
	Version uint64
	// ShardVersions holds each device's newest valid committed version
	// (one entry on a single-device database). A shard ahead of Version
	// committed during a global CHECKPOINT that didn't finish everywhere;
	// it is rolled back to Version.
	ShardVersions []uint64
	// RolledBack reports that the crash interrupted a commit: a record
	// slot was torn or a shard was ahead of the global cut, so some
	// checkpointed-but-uncommitted work was discarded.
	RolledBack bool
}

// Recover rebuilds a database from a crash snapshot. Per device it
// decodes both A/B commit-record slots, keeps the newest one that
// verifies end to end (magic, page checksums, payload CRC, slot
// parity), and takes the minimum across devices as the global cut; the
// hidden columns are decoded straight from the flash image under that
// version's manifest and the visible columns re-attached from the
// server-durable snapshot. The result is a fresh, healthy DB holding
// exactly the pre- or post-CHECKPOINT state — never a torn mix.
//
// The recovered DB inherits the snapshot's options minus the fault
// plan (the replacement device is presumed healthy); pass extra
// options to override — including WithShards to re-shard on the way
// back up, since recovery reassembles the global row order first.
func Recover(snap *Snapshot, extra ...Option) (*DB, *RecoverInfo, error) {
	start := time.Now()
	if snap == nil || len(snap.shards) == 0 {
		return nil, nil, fmt.Errorf("core: recover from an empty snapshot")
	}

	// Pick each device's newest valid commit record.
	type pick struct {
		recs [2]*commitRecord
		best *commitRecord
		torn bool
	}
	picks := make([]pick, len(snap.shards))
	info := &RecoverInfo{ShardVersions: make([]uint64, len(snap.shards))}
	vstar := uint64(0)
	for s, sh := range snap.shards {
		p := pick{}
		for slot := 0; slot < device.RecordBlocks; slot++ {
			rec, err := decodeCommitRecord(sh.img, slot)
			if err != nil {
				p.torn = true // a torn or corrupt record: the other slot decides
				continue
			}
			p.recs[slot] = rec
			if rec != nil && (p.best == nil || rec.Version > p.best.Version) {
				p.best = rec
			}
		}
		if p.best == nil {
			return nil, nil, fmt.Errorf("core: recover: shard %d has no valid commit record in either slot", s)
		}
		picks[s] = p
		info.ShardVersions[s] = p.best.Version
		if s == 0 || p.best.Version < vstar {
			vstar = p.best.Version
		}
	}
	info.Version = vstar
	for s := range picks {
		if picks[s].torn || picks[s].best.Version > vstar {
			info.RolledBack = true
		}
	}

	// Resolve each shard to its record at the global cut. A shard ahead
	// of the cut still holds the cut's record in the other slot — commit
	// of version v+1 never touches version v's record or data half.
	recs := make([]*commitRecord, len(snap.shards))
	for s := range picks {
		rec := picks[s].best
		if rec.Version != vstar {
			rec = picks[s].recs[device.RecordBlock(vstar)]
			if rec == nil || rec.Version != vstar {
				return nil, nil, fmt.Errorf("core: recover: shard %d cannot roll back to version %d (record lost)", s, vstar)
			}
		}
		recs[s] = rec
	}

	// Build the empty replacement database and replay the catalog.
	opts := snap.opts
	opts.FaultPlan = nil
	for _, o := range extra {
		o(&opts)
	}
	ndb, err := openResolved(opts)
	if err != nil {
		return nil, nil, err
	}
	for _, ddl := range snap.ddl {
		if err := ndb.execDDL(ddl); err != nil {
			return nil, nil, fmt.Errorf("core: recover: replaying DDL: %w", err)
		}
	}

	// Decode every shard's committed columns from its image, then
	// reassemble the global row order and bulk-load the new database.
	// Freeze resolves the foreign-key tree (idempotent; build re-checks).
	if err := ndb.sch.Freeze(); err != nil {
		return nil, nil, fmt.Errorf("core: recover: %w", err)
	}
	img, err := assembleRecovered(ndb.sch, snap, recs, vstar)
	if err != nil {
		return nil, nil, err
	}
	ndb.mu.Lock()
	err = ndb.build(img)
	ndb.mu.Unlock()
	if err != nil {
		return nil, nil, fmt.Errorf("core: recover: rebuilding: %w", err)
	}
	ndb.metrics.recoveries.Inc()
	ndb.metrics.recoveryWall.Observe(time.Since(start).Nanoseconds())
	return ndb, info, nil
}

// assembleRecovered turns per-shard flash images into one global table
// image: dimension tables from shard 0 (they are replicated
// bit-identically), the root table stitched from every shard through the
// persisted local->global mappings, visible columns re-attached from the
// server-side stash.
func assembleRecovered(sch *schema.Schema, snap *Snapshot, recs []*commitRecord, version uint64) ([]tableImage, error) {
	root := sch.Root()
	if root == nil {
		return nil, fmt.Errorf("core: recover: schema has no root table")
	}
	img := make([]tableImage, len(sch.Tables()))
	for _, t := range sch.Tables() {
		if t == root {
			continue
		}
		im, err := decodeTableCols(t, snap.shards[0], recs[0], version)
		if err != nil {
			return nil, fmt.Errorf("core: recover: %s: %w", t.Name, err)
		}
		img[t.Ordinal()] = im
	}

	// Per-shard decode of the root table plus its global mapping.
	type shardRoot struct {
		im  tableImage
		l2g []uint32
	}
	roots := make([]shardRoot, len(recs))
	globalN := 0
	for s := range recs {
		im, err := decodeTableCols(root, snap.shards[s], recs[s], version)
		if err != nil {
			return nil, fmt.Errorf("core: recover: shard %d %s: %w", s, root.Name, err)
		}
		if len(recs) == 1 && recs[s].RootCount == 0 {
			// Single-device databases persist no mapping: local == global.
			img[root.Ordinal()] = im
			return img, nil
		}
		l2g, err := decodeRootGlobals(snap.shards[s].img, recs[s].RootGlobals.extent(), recs[s].RootCount)
		if err != nil {
			return nil, fmt.Errorf("core: recover: shard %d root mapping: %w", s, err)
		}
		if len(l2g) != im.n {
			return nil, fmt.Errorf("core: recover: shard %d root mapping has %d entries for %d rows", s, len(l2g), im.n)
		}
		roots[s] = shardRoot{im: im, l2g: l2g}
		globalN += im.n
	}

	// Stitch the root back together in global order: global row g+1 is
	// local row at[g].li of shard at[g].s-1 (0: no shard owns it yet).
	type place struct{ s, li int }
	at := make([]place, globalN)
	for s := range roots {
		for li, g := range roots[s].l2g {
			if g < 1 || int(g) > globalN {
				return nil, fmt.Errorf("core: recover: shard %d maps local %d to global %d outside 1..%d", s, li+1, g, globalN)
			}
			if at[g-1].s != 0 {
				return nil, fmt.Errorf("core: recover: global root %d claimed by two shards", g)
			}
			at[g-1] = place{s + 1, li}
		}
	}
	rim := newTableImage(root, globalN)
	for g, p := range at {
		if p.s == 0 {
			return nil, fmt.Errorf("core: recover: no shard owns global root %d", g+1)
		}
		rim.appendFrom(root, &roots[p.s-1].im, p.li)
	}
	img[root.Ordinal()] = rim
	return img, nil
}

// decodeTableCols materializes one table's committed image for one shard:
// hidden columns decoded by the store from the flash image under the
// manifest's extents (every page checksum-verified), visible columns from
// the server-side stash.
func decodeTableCols(t *schema.Table, sh shardState, rec *commitRecord, version uint64) (tableImage, error) {
	var rt *recordTable
	for i := range rec.Tables {
		if strings.EqualFold(rec.Tables[i].Name, t.Name) {
			rt = &rec.Tables[i]
			break
		}
	}
	if rt == nil {
		return tableImage{}, fmt.Errorf("no manifest entry for table")
	}
	hidCols := map[string]*recordCol{}
	for i := range rt.Cols {
		hidCols[strings.ToLower(rt.Cols[i].Name)] = &rt.Cols[i]
	}
	vis := sh.vis[version][strings.ToLower(t.Name)]

	rows := rt.Rows
	im := tableImage{n: rows, cols: make([]value.Column, len(t.Columns)), fks: make([][]uint32, len(t.Columns))}
	for ci, c := range t.Columns {
		var col value.Column
		switch {
		case c.PrimaryKey:
			continue
		case c.Hidden:
			rc, ok := hidCols[strings.ToLower(c.Name)]
			if !ok {
				return tableImage{}, fmt.Errorf("column %s missing from the manifest", c.Name)
			}
			var data flash.Extent
			if c.Type.Kind == value.String {
				if !rc.Var || rc.Data == nil {
					return tableImage{}, fmt.Errorf("column %s: manifest lacks the heap extent", c.Name)
				}
				data = rc.Data.extent()
			}
			var err error
			if col, err = store.DecodeColumn(sh.img, c.Type.Kind, rows, rc.Off.extent(), data); err != nil {
				return tableImage{}, fmt.Errorf("column %s: %w", c.Name, err)
			}
		default:
			var ok bool
			if col, ok = vis[strings.ToLower(c.Name)]; !ok {
				return tableImage{}, fmt.Errorf("visible column %s missing from the version %d stash", c.Name, version)
			}
			if col.Len() != rows {
				return tableImage{}, fmt.Errorf("visible column %s has %d values for %d rows", c.Name, col.Len(), rows)
			}
			if col.Len() == 0 {
				col.Kind = c.Type.Kind // an empty column carries no kind in the sidecar
			} else if col.Kind != c.Type.Kind {
				return tableImage{}, fmt.Errorf("%w: visible column %s holds %s cells, want %s", ErrCorruptState, c.Name, col.Kind, c.Type.Kind)
			}
		}
		if c.IsForeignKey() {
			// A word no row identifier holds reads as one loadState's
			// range check refuses.
			im.fks[ci] = make([]uint32, rows)
			for r, w := range col.Words {
				im.fks[ci][r] = uint32(min(max(w, 0), math.MaxUint32))
			}
		} else {
			im.cols[ci] = col
		}
	}
	return im, nil
}
