// Package store is the smart USB device's storage engine: column files on
// NAND flash holding the hidden part of the database (every HIDDEN column
// plus the replicated primary keys of all tables — paper Section 2), with
// a small page cache charged against the device's RAM arena.
//
// A single-cell read goes through flash.Cache.Cell with the reading
// column's own flash.Hint, and decodes the cell straight out of the
// frame. A hint hit is the hit the cache's scan would have found, so the
// hints change no hit, miss, victim or flash charge. Like the cache, a
// column's hints are touched only under the engine's device gate.
//
// Columns are written once during the secure bulk load and never updated
// in place, matching the flash constraint. Fixed-width kinds (INTEGER,
// DATE, FLOAT, BOOLEAN) are stored as packed arrays; strings are stored
// as an offset array plus a heap of encoded values.
package store

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/flash"
	"github.com/ghostdb/ghostdb/internal/ram"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Store manages the device-resident column files.
type Store struct {
	dev        *device.Device
	cache      *flash.Cache
	cacheGrant *ram.Grant
	tables     map[string]*TableData
}

// New creates a store on the device, allocating the page cache out of the
// device RAM budget.
func New(dev *device.Device) (*Store, error) {
	cache, err := flash.NewCache(dev.Flash, dev.Profile.CacheFrames)
	if err != nil {
		return nil, err
	}
	grant, err := dev.RAM.Alloc(cache.FootprintBytes(), "page-cache")
	if err != nil {
		return nil, fmt.Errorf("store: cache does not fit in RAM: %w", err)
	}
	return &Store{
		dev:        dev,
		cache:      cache,
		cacheGrant: grant,
		tables:     map[string]*TableData{},
	}, nil
}

// Device returns the underlying device.
func (s *Store) Device() *device.Device { return s.dev }

// Release frees the store's page-cache RAM grant. The engine calls it
// when a CHECKPOINT replaces this store with a freshly built one — the
// old column files' extents are about to be erased, so the cache (and
// its arena charge) must go with them. The store is unusable afterwards.
func (s *Store) Release() {
	s.cache.Invalidate()
	s.cacheGrant.Free()
	s.tables = map[string]*TableData{}
}

// Cache returns the shared random-access page cache.
func (s *Store) Cache() *flash.Cache { return s.cache }

// AppendRegion writes a raw region into the main space (used by the index
// builders in the skt and climbing packages).
func (s *Store) AppendRegion(data []byte) (flash.Extent, error) {
	return s.dev.Main.AppendRegion(data)
}

// FootprintBytes reports the total main-space flash consumed so far.
func (s *Store) FootprintBytes() int64 { return s.dev.Main.UsedBytes() }

// TableData holds a table's device-resident columns.
type TableData struct {
	Name string
	rows int
	cols map[string]Column
}

// Rows reports the table cardinality.
func (t *TableData) Rows() int { return t.rows }

// Column returns the named column file (case-insensitive).
func (t *TableData) Column(name string) (Column, bool) {
	c, ok := t.cols[strings.ToLower(name)]
	return c, ok
}

// ColumnNames lists the stored columns (unordered).
func (t *TableData) ColumnNames() []string {
	out := make([]string, 0, len(t.cols))
	for n := range t.cols {
		out = append(out, n)
	}
	return out
}

// CreateTable registers a table with a fixed row count (GhostDB is bulk
// loaded; cardinalities are known at load time).
func (s *Store) CreateTable(name string, rows int) (*TableData, error) {
	key := strings.ToLower(name)
	if _, dup := s.tables[key]; dup {
		return nil, fmt.Errorf("store: duplicate table %s", name)
	}
	if rows < 0 {
		return nil, fmt.Errorf("store: negative row count for %s", name)
	}
	t := &TableData{Name: name, rows: rows, cols: map[string]Column{}}
	s.tables[key] = t
	return t, nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*TableData, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// AddColumn stores c as a column of the table, choosing the layout from
// its kind. c.Len() must equal the table's row count; row i holds the
// value of the tuple with ID i+1.
func (s *Store) AddColumn(table, col string, c value.Column) (Column, error) {
	t, ok := s.tables[strings.ToLower(table)]
	if !ok {
		return nil, fmt.Errorf("store: unknown table %s", table)
	}
	if c.Len() != t.rows {
		return nil, fmt.Errorf("store: %s.%s has %d values for %d rows", table, col, c.Len(), t.rows)
	}
	key := strings.ToLower(col)
	if _, dup := t.cols[key]; dup {
		return nil, fmt.Errorf("store: duplicate column %s.%s", table, col)
	}
	var stored Column
	var err error
	if c.Kind == value.String {
		stored, err = s.buildVarColumn(c.Strs)
	} else {
		stored, err = s.buildFixedColumn(c.Kind, c.Words)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s.%s: %w", table, col, err)
	}
	t.cols[key] = stored
	return stored, nil
}

// Column is a read-only column file.
type Column interface {
	// Value returns the value of row i (0-based).
	Value(i int) (value.Value, error)
	// Kind reports the column's value kind.
	Kind() value.Kind
	// Len reports the number of rows.
	Len() int
	// Bytes reports the flash footprint.
	Bytes() int64
}

// fixedWidth returns the storage width for a fixed-width kind.
func fixedWidth(kind value.Kind) (int, error) {
	switch kind {
	case value.Int:
		return 8, nil
	case value.Date:
		return 4, nil
	case value.Float:
		return 8, nil
	case value.Bool:
		return 1, nil
	default:
		return 0, fmt.Errorf("kind %s is not fixed width", kind)
	}
}

// FixedColumn stores fixed-width values as a packed array.
type FixedColumn struct {
	store *Store
	ext   flash.Extent
	kind  value.Kind
	width int
	n     int
	hint  flash.Hint
}

func (s *Store) buildFixedColumn(kind value.Kind, words []int64) (*FixedColumn, error) {
	w, err := fixedWidth(kind)
	if err != nil {
		return nil, err
	}
	// The payload word is the stored form: two's complement, IEEE bits,
	// day count or 0/1, truncated to the kind's width.
	buf := make([]byte, 0, len(words)*w)
	for _, word := range words {
		switch w {
		case 8:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(word))
		case 4:
			buf = binary.LittleEndian.AppendUint32(buf, uint32(word))
		default:
			buf = append(buf, byte(word))
		}
	}
	ext, err := s.AppendRegion(buf)
	if err != nil {
		return nil, err
	}
	return &FixedColumn{store: s, ext: ext, kind: kind, width: w, n: len(words)}, nil
}

// word reads one stored cell of width bytes back into its payload word.
func word(raw []byte, width int) int64 {
	switch width {
	case 8:
		return int64(binary.LittleEndian.Uint64(raw))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(raw)))
	}
	if raw[0] != 0 {
		return 1
	}
	return 0
}

// Value implements Column.
func (c *FixedColumn) Value(i int) (value.Value, error) {
	if i < 0 || i >= c.n {
		return value.Value{}, fmt.Errorf("store: row %d of %d", i, c.n)
	}
	var spill [8]byte
	raw, err := c.store.cache.Cell(&c.hint, c.ext.Start+int64(i)*int64(c.width), c.width, spill[:0])
	if err != nil {
		return value.Value{}, err
	}
	return value.FromWord(c.kind, word(raw, c.width)), nil
}

// Kind implements Column.
func (c *FixedColumn) Kind() value.Kind { return c.kind }

// Extent exposes the column's flash location. CHECKPOINT records it in
// the commit manifest so recovery can decode the column straight from a
// flash image.
func (c *FixedColumn) Extent() flash.Extent { return c.ext }

// Len implements Column.
func (c *FixedColumn) Len() int { return c.n }

// Bytes implements Column.
func (c *FixedColumn) Bytes() int64 { return c.ext.Len }

// VarColumn stores variable-width values as an offset array plus a heap.
type VarColumn struct {
	store    *Store
	offExt   flash.Extent // (n+1) uint32 offsets into the heap
	dataExt  flash.Extent
	kind     value.Kind
	n        int
	offHint  flash.Hint
	heapHint flash.Hint
}

func (s *Store) buildVarColumn(strs []string) (*VarColumn, error) {
	var heap []byte
	offs := make([]byte, 0, (len(strs)+1)*4)
	for _, str := range strs {
		offs = binary.LittleEndian.AppendUint32(offs, uint32(len(heap)))
		heap = value.NewString(str).Append(heap)
	}
	offs = binary.LittleEndian.AppendUint32(offs, uint32(len(heap)))
	offExt, err := s.AppendRegion(offs)
	if err != nil {
		return nil, err
	}
	dataExt, err := s.AppendRegion(heap)
	if err != nil {
		return nil, err
	}
	return &VarColumn{store: s, offExt: offExt, dataExt: dataExt, kind: value.String, n: len(strs)}, nil
}

// Value implements Column.
func (c *VarColumn) Value(i int) (value.Value, error) { return c.ValueInterned(i, nil) }

// ValueInterned is Value with the string served from in (nil interns
// nothing): the same reads, and no heap string for one in has seen. It is
// a method of the concrete type so that a caller's interner can stay on
// its stack.
func (c *VarColumn) ValueInterned(i int, in *value.Interner) (value.Value, error) {
	if i < 0 || i >= c.n {
		return value.Value{}, fmt.Errorf("store: row %d of %d", i, c.n)
	}
	var offSpill [8]byte
	raw, err := c.store.cache.Cell(&c.offHint, c.offExt.Start+int64(i)*4, 8, offSpill[:0])
	if err != nil {
		return value.Value{}, err
	}
	start := binary.LittleEndian.Uint32(raw[:4])
	end := binary.LittleEndian.Uint32(raw[4:])
	if end < start || int64(end) > c.dataExt.Len {
		return value.Value{}, fmt.Errorf("store: corrupt offsets %d..%d", start, end)
	}
	// A value that straddles pages is copied into a stack buffer unless
	// oversized: the decoded string is the one heap object a fetch costs.
	var spill [128]byte
	enc, err := c.store.cache.Cell(&c.heapHint, c.dataExt.Start+int64(start), int(end-start), spill[:0])
	if err != nil {
		return value.Value{}, err
	}
	v, _, err := in.Decode(enc)
	return v, err
}

// Kind implements Column.
func (c *VarColumn) Kind() value.Kind { return c.kind }

// Extents exposes the column's offset-array and heap flash locations (see
// FixedColumn.Extent).
func (c *VarColumn) Extents() (off, data flash.Extent) { return c.offExt, c.dataExt }

// Len implements Column.
func (c *VarColumn) Len() int { return c.n }

// Bytes implements Column.
func (c *VarColumn) Bytes() int64 { return c.offExt.Len + c.dataExt.Len }

// IDColumn is a packed array of uint32 row identifiers — the building
// block of Subtree Key Tables. Sorted access patterns hit the page cache.
type IDColumn struct {
	store *Store
	ext   flash.Extent
	n     int
	hint  flash.Hint
}

// BuildIDColumn writes ids as a packed uint32 array in the main space.
func (s *Store) BuildIDColumn(ids []uint32) (*IDColumn, error) {
	buf := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	ext, err := s.AppendRegion(buf)
	if err != nil {
		return nil, err
	}
	return &IDColumn{store: s, ext: ext, n: len(ids)}, nil
}

// Get returns element i (0-based).
func (c *IDColumn) Get(i int) (uint32, error) {
	if i < 0 || i >= c.n {
		return 0, fmt.Errorf("store: ID element %d of %d", i, c.n)
	}
	var spill [4]byte
	raw, err := c.store.cache.Cell(&c.hint, c.ext.Start+int64(i)*4, 4, spill[:0])
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(raw), nil
}

// Len reports the element count.
func (c *IDColumn) Len() int { return c.n }

// Bytes reports the flash footprint.
func (c *IDColumn) Bytes() int64 { return c.ext.Len }

// Extent exposes the storage location (for sequential scans).
func (c *IDColumn) Extent() flash.Extent { return c.ext }

// DecodeColumn reads the n-row column file of kind at off (a string
// column's offset array, its heap at data) out of a flash image, whose
// reads verify every page's checksum. Recovery decodes with it.
func DecodeColumn(img storage.Image, kind value.Kind, n int, off, data flash.Extent) (value.Column, error) {
	w, err := fixedWidth(kind)
	size := int64(n) * int64(w)
	if kind == value.String {
		w, size = 4, int64(n+1)*4 // offsets: one more than the rows
	} else if err != nil {
		return value.Column{}, fmt.Errorf("store: %w", err)
	}
	if size > off.Len {
		return value.Column{}, fmt.Errorf("store: %s column extent %d B short of %d rows", kind, off.Len, n)
	}
	buf := make([]byte, size)
	if err := img.ReadAt(buf, off.Start); err != nil {
		return value.Column{}, err
	}
	if kind != value.String {
		c := value.Column{Kind: kind, Words: make([]int64, n)}
		for i := range c.Words {
			c.Words[i] = word(buf[i*w:], w)
		}
		return c, nil
	}
	heap := make([]byte, data.Len)
	if err := img.ReadAt(heap, data.Start); err != nil {
		return value.Column{}, err
	}
	c := value.Column{Kind: value.String, Strs: make([]string, n)}
	for i := range c.Strs {
		start, end := binary.LittleEndian.Uint32(buf[i*4:]), binary.LittleEndian.Uint32(buf[(i+1)*4:])
		if end < start || int64(end) > data.Len {
			return value.Column{}, fmt.Errorf("store: string column row %d: corrupt offsets %d..%d", i, start, end)
		}
		v, _, err := value.Decode(heap[start:end])
		if err == nil && v.Kind() != value.String {
			err = fmt.Errorf("holds a %s", v.Kind())
		}
		if err != nil {
			return value.Column{}, fmt.Errorf("store: string column row %d: %w", i, err)
		}
		c.Strs[i] = v.Str()
	}
	return c, nil
}
