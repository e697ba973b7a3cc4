package core

// Crash-consistent commit records. The device reserves its first two
// flash blocks (device.RecordBlocks) as A/B superblock slots: the record
// for version v lives in block v%2, so programming a new record never
// touches the previous one. A CHECKPOINT builds the next database state
// into the inactive main half first and only then writes the record —
// the last device operation of the merge — making the record the single
// commit point. Recovery (core.Recover) decodes both slots from a flash
// image and lands on the newest record that verifies end to end: header
// magic, per-page OOB checksums, payload CRC, JSON decode.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/store"
)

// recordMagic opens every commit record page 0.
const recordMagic = "GDB1"

// recordHeaderLen is magic + payload length + payload CRC32.
const recordHeaderLen = 4 + 4 + 4

// recordExtent is a JSON-friendly flash extent.
type recordExtent struct {
	Start int64 `json:"s"`
	Len   int64 `json:"l"`
}

func toRecordExtent(e flash.Extent) recordExtent { return recordExtent{Start: e.Start, Len: e.Len} }

func (e recordExtent) extent() flash.Extent { return flash.Extent{Start: e.Start, Len: e.Len} }

// recordCol locates one hidden column's flash storage. Fixed-width
// columns use Off alone; variable-width (string) columns pair the offset
// array (Off) with the value heap (Data).
type recordCol struct {
	Name string        `json:"n"`
	Var  bool          `json:"v,omitempty"`
	Off  recordExtent  `json:"o"`
	Data *recordExtent `json:"d,omitempty"`
}

// recordTable is one table's committed cardinality and hidden columns.
type recordTable struct {
	Name string      `json:"n"`
	Rows int         `json:"r"`
	Cols []recordCol `json:"c,omitempty"`
}

// commitRecord is the versioned manifest of one committed database
// state: which main half holds it, where every hidden column lives, and
// — on a shard — the packed local→global root mapping this version was
// committed under.
type commitRecord struct {
	Version    uint64        `json:"v"`
	ActiveHalf int           `json:"h"`
	Tables     []recordTable `json:"t"`
	// RootGlobals points at a packed little-endian uint32 region in the
	// active half mapping shard-local root identifiers (index l-1) to
	// global ones. Zero-length on a single-device database.
	RootGlobals recordExtent `json:"g,omitempty"`
	RootCount   int          `json:"gc,omitempty"`
}

// buildCommitRecord snapshots the current hidden-store layout into a
// manifest for the given version. Caller holds the device gate and has a
// fully built hid store.
func (e *engine) buildCommitRecord(version uint64, rootGlobals flash.Extent, rootCount int) (*commitRecord, error) {
	rec := &commitRecord{
		Version:     version,
		ActiveHalf:  e.dev.ActiveHalf(),
		RootGlobals: toRecordExtent(rootGlobals),
		RootCount:   rootCount,
	}
	for _, t := range e.sch.Tables() {
		td, ok := e.hid.Table(t.Name)
		if !ok {
			return nil, fmt.Errorf("core: commit record: no hidden table %s", t.Name)
		}
		rt := recordTable{Name: t.Name, Rows: td.Rows()}
		for _, c := range t.Columns {
			if !c.Hidden {
				continue
			}
			col, ok := td.Column(c.Name)
			if !ok {
				return nil, fmt.Errorf("core: commit record: no hidden column %s.%s", t.Name, c.Name)
			}
			switch col := col.(type) {
			case *store.FixedColumn:
				rt.Cols = append(rt.Cols, recordCol{Name: c.Name, Off: toRecordExtent(col.Extent())})
			case *store.VarColumn:
				off, data := col.Extents()
				de := toRecordExtent(data)
				rt.Cols = append(rt.Cols, recordCol{Name: c.Name, Var: true, Off: toRecordExtent(off), Data: &de})
			default:
				return nil, fmt.Errorf("core: commit record: %s.%s has unrecordable column type %T", t.Name, c.Name, col)
			}
		}
		rec.Tables = append(rec.Tables, rt)
	}
	return rec, nil
}

// writeCommitRecord commits the current device state as e.version: it
// erases the version's record slot and programs the manifest into it.
// The last page programmed is the commit point — a power cut anywhere
// before it leaves the previous version's record (the other slot)
// untouched and fully valid. The erase and program costs are charged to
// the simulated clock; they are the durability overhead a CHECKPOINT
// pays on top of the merge itself.
func (e *engine) writeCommitRecord() error {
	simStart := e.clock.Now()
	defer func() { e.metrics.recordSim.Add(int64(e.clock.Now() - simStart)) }()
	var rgExt flash.Extent
	rgCount := 0
	if len(e.rootGlobals) > 0 {
		buf := make([]byte, 0, len(e.rootGlobals)*4)
		for _, g := range e.rootGlobals {
			buf = binary.LittleEndian.AppendUint32(buf, g)
		}
		ext, err := e.dev.Main.AppendRegion(buf)
		if err != nil {
			return fmt.Errorf("core: commit record: root mapping region: %w", err)
		}
		rgExt, rgCount = ext, len(e.rootGlobals)
	}
	rec, err := e.buildCommitRecord(e.version, rgExt, rgCount)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	p := e.dev.Profile.Flash
	blockBytes := p.PageSize * p.PagesPerBlock
	if recordHeaderLen+len(payload) > blockBytes {
		return fmt.Errorf("core: commit record: manifest %d B exceeds the %d B record block", len(payload), blockBytes)
	}
	buf := make([]byte, 0, recordHeaderLen+len(payload))
	buf = append(buf, recordMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)

	slot := device.RecordBlock(rec.Version)
	if err := e.dev.Flash.EraseBlock(slot); err != nil {
		return fmt.Errorf("core: commit record: erase slot %d: %w", slot, err)
	}
	page := slot * p.PagesPerBlock
	for off := 0; off < len(buf); off += p.PageSize {
		end := off + p.PageSize
		if end > len(buf) {
			end = len(buf)
		}
		if err := e.dev.Flash.ProgramPage(page, buf[off:end]); err != nil {
			return fmt.Errorf("core: commit record: program page %d: %w", page, err)
		}
		page++
	}
	// The record is the commit point: flush it (and the state it points
	// at) through whatever durability boundary the backend has, then
	// refresh the host-side sidecar a file-backed database reopens from.
	if err := e.dev.Flash.Sync(); err != nil {
		return fmt.Errorf("core: commit record: sync: %w", err)
	}
	if err := e.persistSidecar(); err != nil {
		return fmt.Errorf("core: commit record: %w", err)
	}
	return nil
}

// decodeCommitRecord reads and validates one record slot from a flash
// image. It returns (nil, nil) for a never-programmed slot, and an error
// for a slot that holds data but fails any validation step — a torn or
// corrupted record.
func decodeCommitRecord(img storage.Image, slot int) (*commitRecord, error) {
	p := img.Params()
	first := slot * p.PagesPerBlock
	if !img.PageProgrammed(first) {
		return nil, nil
	}
	head, _, err := img.ReadPage(first)
	if err != nil {
		return nil, fmt.Errorf("core: record slot %d: %w", slot, err)
	}
	if string(head[:4]) != recordMagic {
		return nil, fmt.Errorf("core: record slot %d: bad magic %q", slot, head[:4])
	}
	payloadLen := int(binary.LittleEndian.Uint32(head[4:8]))
	wantCRC := binary.LittleEndian.Uint32(head[8:12])
	blockBytes := p.PageSize * p.PagesPerBlock
	if payloadLen < 0 || recordHeaderLen+payloadLen > blockBytes {
		return nil, fmt.Errorf("core: record slot %d: payload length %d out of range", slot, payloadLen)
	}
	payload := make([]byte, 0, payloadLen)
	take := payloadLen
	if n := p.PageSize - recordHeaderLen; take > n {
		take = n
	}
	payload = append(payload, head[recordHeaderLen:recordHeaderLen+take]...)
	for page := first + 1; len(payload) < payloadLen; page++ {
		data, prog, err := img.ReadPage(page)
		if err != nil {
			return nil, fmt.Errorf("core: record slot %d: %w", slot, err)
		}
		if !prog {
			return nil, fmt.Errorf("core: record slot %d: truncated at page %d (torn record write)", slot, page)
		}
		take := payloadLen - len(payload)
		if take > p.PageSize {
			take = p.PageSize
		}
		payload = append(payload, data[:take]...)
	}
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, fmt.Errorf("core: record slot %d: payload checksum mismatch", slot)
	}
	var rec commitRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("core: record slot %d: %w", slot, err)
	}
	if device.RecordBlock(rec.Version) != slot {
		return nil, fmt.Errorf("core: record slot %d holds version %d (wrong slot parity)", slot, rec.Version)
	}
	return &rec, nil
}

// decodeRootGlobals reads the packed local→global root mapping region.
func decodeRootGlobals(img storage.Image, ext flash.Extent, count int) ([]uint32, error) {
	if int64(count)*4 > ext.Len {
		return nil, fmt.Errorf("core: root mapping extent %d B short of %d entries", ext.Len, count)
	}
	buf := make([]byte, count*4)
	if err := img.ReadAt(buf, ext.Start); err != nil {
		return nil, err
	}
	out := make([]uint32, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(buf[i*4:])
	}
	return out, nil
}
