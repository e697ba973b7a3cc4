// Package visible is the untrusted side of GhostDB: a columnar store on
// the public server / terminal holding every non-HIDDEN column plus the
// primary keys ("primary keys as well as visible fields can be stored at
// any place, like a public server or a personal computer", Section 2).
//
// The device delegates visible selections here and receives only sorted
// ID lists and (id, value) projection streams in return — data the spy can
// already see. The PC is a "standard computer", orders of magnitude faster
// than the secure chip, so its work is not charged to the simulated clock;
// the bus transfers it triggers are.
//
// A Store is immutable once its columns are attached. The engine never
// edits one: every bulk load, CHECKPOINT, Recover and OpenPath builds a
// fresh Store from columnar data, and DML between two of those sits in
// the device's delta. That is what lets a column keep an access path
// with no invalidation: the first predicate that names a column sorts a
// permutation of its row IDs by (value, id), once, and the permutation
// lives exactly as long as the Store. A predicate is then a few binary
// searches; primary keys, dense 1..N, need not even the permutation.
//
// Select returns ascending IDs and the same errors whichever path serves
// it. The per-row scan remains for what an ordered index cannot answer
// identically: a literal value.Compare would coerce per row in a way the
// column's order does not follow (an Int column against a Float literal,
// a Date column against a string that is not a date, incomparable kinds,
// a NaN literal), and a column whose values value.Compare does not order
// totally (a NaN among floats). A column holds one kind, so which path
// runs follows from that kind, the column's values and the predicate,
// never from a setting.
package visible

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/ghostdb/ghostdb/internal/pred"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Store holds the visible tables.
type Store struct {
	tables map[string]*Table
	order  []string
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: map[string]*Table{}}
}

// Table is one visible table: dense 1-based row IDs, columnar values.
type Table struct {
	Name string
	n    int
	cols map[string]*Column
}

// Column is one visible column.
type Column struct {
	Name string
	Kind value.Kind
	n    int
	data value.Column // unset for a dense key

	dense bool      // primary key: row i holds Int(i+1)
	once  sync.Once // guards the one build of ix
	ix    *index    // nil once built: the values have no total order, scan
}

// at returns the value of row i (0-based).
func (c *Column) at(i int) value.Value {
	if c.dense {
		return value.NewInt(int64(i + 1))
	}
	return c.data.Value(i)
}

// CreateTable registers a table with the given cardinality.
func (s *Store) CreateTable(name string, rows int) (*Table, error) {
	key := strings.ToLower(name)
	if _, dup := s.tables[key]; dup {
		return nil, fmt.Errorf("visible: duplicate table %s", name)
	}
	if rows < 0 {
		return nil, fmt.Errorf("visible: negative cardinality for %s", name)
	}
	t := &Table{Name: name, n: rows, cols: map[string]*Column{}}
	s.tables[key] = t
	s.order = append(s.order, name)
	return t, nil
}

// Table returns the named table (case-insensitive).
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// Tables returns the tables in creation order.
func (s *Store) Tables() []*Table {
	out := make([]*Table, 0, len(s.order))
	for _, n := range s.order {
		t, _ := s.Table(n)
		out = append(out, t)
	}
	return out
}

// AddColumn attaches c (one cell per row, in ID order) as a column. The
// data is retained, not copied, and must not change while the Store is in
// use: the engine replaces the whole Store when the data changes (see the
// package comment), and the column's index relies on it.
func (t *Table) AddColumn(name string, c value.Column) error {
	if c.Len() != t.n {
		return fmt.Errorf("visible: %s.%s has %d values for %d rows", t.Name, name, c.Len(), t.n)
	}
	return t.addColumn(&Column{Name: name, Kind: c.Kind, n: t.n, data: c})
}

// AddKeyColumn attaches the table's primary key: an Int column whose row
// i holds i+1 by construction, so it stores nothing and predicates on it
// are answered by arithmetic on the literal.
func (t *Table) AddKeyColumn(name string) error {
	return t.addColumn(&Column{Name: name, Kind: value.Int, n: t.n, dense: true})
}

func (t *Table) addColumn(c *Column) error {
	key := strings.ToLower(c.Name)
	if _, dup := t.cols[key]; dup {
		return fmt.Errorf("visible: duplicate column %s.%s", t.Name, c.Name)
	}
	t.cols[key] = c
	return nil
}

// Rows reports the table cardinality.
func (t *Table) Rows() int { return t.n }

// Column returns the named column.
func (t *Table) Column(name string) (*Column, bool) {
	c, ok := t.cols[strings.ToLower(name)]
	return c, ok
}

// Value returns the value of column col for row id (1-based).
func (t *Table) Value(col string, id uint32) (value.Value, error) {
	c, ok := t.Column(col)
	if !ok {
		return value.Value{}, fmt.Errorf("visible: no column %s.%s", t.Name, col)
	}
	return c.Value(id)
}

// Value returns the column's value for row id (1-based).
func (c *Column) Value(id uint32) (value.Value, error) {
	if id == 0 || int(id) > c.n {
		return value.Value{}, fmt.Errorf("visible: id %d out of 1..%d", id, c.n)
	}
	return c.at(int(id) - 1), nil
}

// Select evaluates p over the column and returns the matching IDs in
// ascending order.
func (t *Table) Select(col string, p pred.P) ([]uint32, error) {
	ids, _, err := t.SelectPath(col, p)
	return ids, err
}

// SelectPath is Select that also reports whether the column's index
// served the call (true) or the per-row scan did. IDs and error are the
// same either way.
func (t *Table) SelectPath(col string, p pred.P) ([]uint32, bool, error) {
	c, ok := t.Column(col)
	if !ok {
		return nil, false, fmt.Errorf("visible: no column %s.%s", t.Name, col)
	}
	if ids, ok := c.lookup(p); ok {
		return ids, true, nil
	}
	ids, err := c.scan(p)
	if err != nil {
		return nil, false, fmt.Errorf("visible: %s.%s: %w", t.Name, col, err)
	}
	return ids, false, nil
}

// scan evaluates p row by row (rows are stored in ID order, so the
// result is sorted).
func (c *Column) scan(p pred.P) ([]uint32, error) {
	var out []uint32
	for i := range c.n {
		match, err := p.Eval(c.at(i))
		if err != nil {
			return nil, err
		}
		if match {
			out = append(out, uint32(i+1))
		}
	}
	return out, nil
}

// KV is one element of a projection stream.
type KV struct {
	ID  uint32
	Val value.Value
}

// ProjectSorted returns (id, value) pairs for the given sorted IDs, in
// ascending ID order — the stream the device merges against its result
// rows during the projection phase. A nil ids selects all rows.
func (t *Table) ProjectSorted(col string, ids []uint32) ([]KV, error) {
	c, ok := t.Column(col)
	if !ok {
		return nil, fmt.Errorf("visible: no column %s.%s", t.Name, col)
	}
	if ids == nil {
		out := make([]KV, t.n)
		for i := range out {
			out[i] = KV{ID: uint32(i + 1), Val: c.at(i)}
		}
		return out, nil
	}
	if !slices.IsSorted(ids) {
		return nil, fmt.Errorf("visible: projection IDs must be sorted")
	}
	out := make([]KV, 0, len(ids))
	for _, id := range ids {
		if id == 0 || int(id) > t.n {
			return nil, fmt.Errorf("visible: id %d out of 1..%d", id, t.n)
		}
		out = append(out, KV{ID: id, Val: c.at(int(id) - 1)})
	}
	return out, nil
}

// IntersectSorted intersects two ascending ID lists — the PC-side
// combination of several visible predicates on the same table.
func IntersectSorted(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
