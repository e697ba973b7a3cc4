// Package schema is GhostDB's catalog: tables, typed columns, the HIDDEN
// attribute partitioning columns between the public store and the smart
// USB device, and the foreign-key tree the paper's indexing model (Subtree
// Key Tables, climbing indexes) requires.
//
// Terminology follows the paper's Figure 3: the *root* of the tree is the
// fact table (Prescription) — the table no other table references. A
// table's *children* are the tables it references through foreign keys;
// its *parent* is the unique table referencing it. "Climbing" moves from a
// table toward the root (Doctor → Visit → Prescription).
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/ghostdb/ghostdb/internal/value"
)

// Type is a column's declared type.
type Type struct {
	Kind value.Kind
	Size int // declared CHAR(n) width; 0 when unsized
}

// String renders the type as SQL.
func (t Type) String() string {
	if t.Kind == value.String && t.Size > 0 {
		return fmt.Sprintf("CHAR(%d)", t.Size)
	}
	return t.Kind.String()
}

// Column describes one column.
type Column struct {
	Name       string
	Type       Type
	Hidden     bool   // declared HIDDEN: stored only on the device
	PrimaryKey bool   // at most one per table; replicated on the device
	RefTable   string // non-empty for a foreign key
	RefColumn  string
}

// IsForeignKey reports whether the column references another table.
func (c *Column) IsForeignKey() bool { return c.RefTable != "" }

// Table is a named collection of columns with exactly one primary key.
type Table struct {
	Name    string
	Columns []Column

	pk       int
	colIndex map[string]int
	ord      int // position in the owning schema's declaration order

	// The catalog never changes after NewTable, so the column subsets
	// are computed once; callers must treat them as read-only.
	fks, hidden, visible []*Column
}

// NewTable builds a table, validating column names and the primary key.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, errors.New("schema: empty table name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("schema: table %s has no columns", name)
	}
	t := &Table{Name: name, Columns: cols, pk: -1, colIndex: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("schema: table %s has an unnamed column", name)
		}
		key := strings.ToLower(c.Name)
		if _, dup := t.colIndex[key]; dup {
			return nil, fmt.Errorf("schema: table %s: duplicate column %s", name, c.Name)
		}
		t.colIndex[key], t.colIndex[c.Name] = i, i
		if c.PrimaryKey {
			if t.pk >= 0 {
				return nil, fmt.Errorf("schema: table %s: multiple primary keys", name)
			}
			if c.Type.Kind != value.Int {
				return nil, fmt.Errorf("schema: table %s: primary key %s must be INTEGER", name, c.Name)
			}
			if c.Hidden {
				return nil, fmt.Errorf("schema: table %s: primary key %s cannot be HIDDEN (keys are replicated on the device)", name, c.Name)
			}
			t.pk = i
		}
		if c.Type.Kind == value.Invalid {
			return nil, fmt.Errorf("schema: table %s: column %s has no type", name, c.Name)
		}
	}
	if t.pk < 0 {
		return nil, fmt.Errorf("schema: table %s has no primary key", name)
	}
	for i := range t.Columns {
		c := &t.Columns[i]
		if c.IsForeignKey() {
			t.fks = append(t.fks, c)
		}
		if c.Hidden {
			t.hidden = append(t.hidden, c)
		} else {
			t.visible = append(t.visible, c)
		}
	}
	return t, nil
}

// fold looks name up in a catalog map that holds every entry under both
// its declared and its lower-cased spelling, so a lookup in either one —
// all the engine itself ever uses — allocates nothing.
func fold[V any](m map[string]V, name string) (V, bool) {
	if v, ok := m[name]; ok {
		return v, true
	}
	v, ok := m[strings.ToLower(name)]
	return v, ok
}

// Column returns the named column (case-insensitive).
func (t *Table) Column(name string) (*Column, bool) {
	i, ok := fold(t.colIndex, name)
	if !ok {
		return nil, false
	}
	return &t.Columns[i], true
}

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	i, ok := fold(t.colIndex, name)
	if !ok {
		return -1
	}
	return i
}

// PrimaryKey returns the table's primary key column.
func (t *Table) PrimaryKey() *Column { return &t.Columns[t.pk] }

// PrimaryKeyIndex returns the position of the primary key column.
func (t *Table) PrimaryKeyIndex() int { return t.pk }

// Ordinal returns the table's position in its schema's declaration
// order (the index of the table in Schema.Tables); 0 before AddTable.
func (t *Table) Ordinal() int { return t.ord }

// ForeignKeys returns the foreign-key columns in declaration order. The
// slice is shared: read-only.
func (t *Table) ForeignKeys() []*Column { return t.fks }

// HiddenColumns returns the columns stored only on the device. The slice
// is shared: read-only.
func (t *Table) HiddenColumns() []*Column { return t.hidden }

// VisibleColumns returns the columns stored on the public side. The
// slice is shared: read-only.
func (t *Table) VisibleColumns() []*Column { return t.visible }

// Schema is an ordered catalog of tables. Call Freeze after the last
// AddTable to validate the tree shape and enable navigation queries.
type Schema struct {
	tables map[string]*Table
	order  []*Table

	frozen   bool
	rootName string
	parent   map[string]string // table -> referencing table (toward the root)
	parentFK map[string]string // table -> FK column in the parent
	children map[string][]string
	depth    map[string]int // root has the maximum depth... no: root depth 0, leaves deepest
}

// New returns an empty schema.
func New() *Schema {
	return &Schema{tables: map[string]*Table{}}
}

// AddTable adds a table. Referenced tables must already exist (the DDL
// declares dimension tables before fact tables, as in the paper's demo).
func (s *Schema) AddTable(t *Table) error {
	if s.frozen {
		return errors.New("schema: AddTable after Freeze")
	}
	key := strings.ToLower(t.Name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("schema: duplicate table %s", t.Name)
	}
	for i := range t.Columns {
		c := &t.Columns[i]
		if !c.IsForeignKey() {
			continue
		}
		ref, ok := s.Table(c.RefTable)
		if !ok {
			return fmt.Errorf("schema: table %s: %s references unknown table %s", t.Name, c.Name, c.RefTable)
		}
		if c.RefColumn == "" {
			c.RefColumn = ref.PrimaryKey().Name
		}
		rc, ok := ref.Column(c.RefColumn)
		if !ok {
			return fmt.Errorf("schema: table %s: %s references unknown column %s.%s", t.Name, c.Name, c.RefTable, c.RefColumn)
		}
		if !rc.PrimaryKey {
			return fmt.Errorf("schema: table %s: %s must reference the primary key of %s", t.Name, c.Name, c.RefTable)
		}
		// Normalize to catalog casing.
		c.RefTable = ref.Name
		c.RefColumn = rc.Name
	}
	s.tables[key], s.tables[t.Name] = t, t
	t.ord = len(s.order)
	s.order = append(s.order, t)
	return nil
}

// Table returns the named table (case-insensitive).
func (s *Schema) Table(name string) (*Table, bool) { return fold(s.tables, name) }

// Tables returns all tables in declaration order; a table's index is its
// Ordinal. The slice is shared (capped, so an append copies): read-only.
func (s *Schema) Tables() []*Table { return s.order[:len(s.order):len(s.order)] }

// Freeze validates the tree shape: every table is referenced by at most
// one other table, exactly one table is referenced by none and references
// others transitively covering the whole schema (single tree), and marks
// the schema immutable.
func (s *Schema) Freeze() error {
	if s.frozen {
		return nil
	}
	if len(s.order) == 0 {
		return errors.New("schema: empty")
	}
	parent := map[string]string{}
	parentFK := map[string]string{}
	children := map[string][]string{}
	for _, t := range s.Tables() {
		for _, fk := range t.ForeignKeys() {
			child := fk.RefTable
			if p, dup := parent[child]; dup {
				return fmt.Errorf("schema: not a tree: %s is referenced by both %s and %s", child, p, t.Name)
			}
			if strings.EqualFold(child, t.Name) {
				return fmt.Errorf("schema: self reference on %s", t.Name)
			}
			parent[child] = t.Name
			parentFK[child] = fk.Name
			children[t.Name] = append(children[t.Name], child)
		}
	}
	var roots []string
	for _, t := range s.Tables() {
		if _, hasParent := parent[t.Name]; !hasParent {
			roots = append(roots, t.Name)
		}
	}
	if len(roots) != 1 {
		sort.Strings(roots)
		return fmt.Errorf("schema: tree must have exactly one root, found %d: %v", len(roots), roots)
	}
	// Depth-first walk from the root assigns depths and detects
	// disconnected tables (impossible given single root + unique parents,
	// but kept as an invariant check).
	depth := map[string]int{}
	var walk func(name string, d int)
	walk = func(name string, d int) {
		depth[name] = d
		for _, c := range children[name] {
			walk(c, d+1)
		}
	}
	walk(roots[0], 0)
	if len(depth) != len(s.order) {
		return fmt.Errorf("schema: %d tables unreachable from root %s", len(s.order)-len(depth), roots[0])
	}
	s.rootName = roots[0]
	s.parent = parent
	s.parentFK = parentFK
	s.children = children
	s.depth = depth
	s.frozen = true
	return nil
}

// Frozen reports whether Freeze has completed.
func (s *Schema) Frozen() bool { return s.frozen }

func (s *Schema) mustFrozen() {
	if !s.frozen {
		panic("schema: navigation before Freeze")
	}
}

// Root returns the tree root (the fact table).
func (s *Schema) Root() *Table {
	s.mustFrozen()
	t, _ := s.Table(s.rootName)
	return t
}

// Parent returns the table referencing t (one step toward the root) and
// the foreign-key column in that parent pointing at t. For the root it
// returns (nil, nil).
func (s *Schema) Parent(table string) (*Table, *Column) {
	s.mustFrozen()
	t, ok := s.Table(table)
	if !ok {
		return nil, nil
	}
	pname, ok := s.parent[t.Name]
	if !ok {
		return nil, nil
	}
	p, _ := s.Table(pname)
	fk, _ := p.Column(s.parentFK[t.Name])
	return p, fk
}

// Children returns the tables t references, in FK declaration order.
func (s *Schema) Children(table string) []*Table {
	s.mustFrozen()
	t, ok := s.Table(table)
	if !ok {
		return nil
	}
	var out []*Table
	for _, c := range s.children[t.Name] {
		ct, _ := s.Table(c)
		out = append(out, ct)
	}
	return out
}

// Depth returns the table's distance from the root (root = 0), or -1 for
// unknown tables.
func (s *Schema) Depth(table string) int {
	s.mustFrozen()
	t, ok := s.Table(table)
	if !ok {
		return -1
	}
	return s.depth[t.Name]
}

// PathToRoot returns [t, parent(t), ..., root].
func (s *Schema) PathToRoot(table string) []*Table {
	s.mustFrozen()
	t, ok := s.Table(table)
	if !ok {
		return nil
	}
	path := []*Table{t}
	for {
		p, _ := s.Parent(path[len(path)-1].Name)
		if p == nil {
			return path
		}
		path = append(path, p)
	}
}

// IsAncestor reports whether anc lies strictly between table and the root
// (or is the root) on table's climbing path.
func (s *Schema) IsAncestor(anc, table string) bool {
	path := s.PathToRoot(table)
	for _, t := range path[1:] {
		if strings.EqualFold(t.Name, anc) {
			return true
		}
	}
	return false
}

// Subtree returns the table and all its descendants (the tables whose
// climbing paths pass through it), in a stable pre-order.
func (s *Schema) Subtree(table string) []*Table {
	s.mustFrozen()
	t, ok := s.Table(table)
	if !ok {
		return nil
	}
	out := []*Table{t}
	for _, c := range s.Children(t.Name) {
		out = append(out, s.Subtree(c.Name)...)
	}
	return out
}

// QueryRoot returns the unique table in the set of which every other
// table in the set is a descendant — the table whose tuples define the
// result granularity of an SPJ query over the set.
func (s *Schema) QueryRoot(tables []string) (*Table, error) {
	s.mustFrozen()
	if len(tables) == 0 {
		return nil, errors.New("schema: empty FROM set")
	}
	best := tables[0]
	for i, name := range tables {
		if _, ok := s.Table(name); !ok {
			return nil, fmt.Errorf("schema: unknown table %s", name)
		}
		if i > 0 && s.Depth(name) < s.Depth(best) {
			best = name
		}
	}
	for _, name := range tables {
		if strings.EqualFold(name, best) {
			continue
		}
		if !s.IsAncestor(best, name) {
			return nil, fmt.Errorf("schema: %s is not reachable from %s along foreign keys; GhostDB supports tree (star/snowflake) queries", name, best)
		}
	}
	t, _ := s.Table(best)
	return t, nil
}

// HiddenValueSet collects, for auditing, a predicate that recognizes the
// values stored in hidden columns. The engine populates it at load time.
type HiddenValueSet struct {
	vals map[value.Value]struct{}
}

// NewHiddenValueSet returns an empty set.
func NewHiddenValueSet() *HiddenValueSet {
	return &HiddenValueSet{vals: map[value.Value]struct{}{}}
}

// Add records a hidden value.
func (h *HiddenValueSet) Add(v value.Value) { h.vals[v] = struct{}{} }

// Contains reports whether v occurs in any hidden column.
func (h *HiddenValueSet) Contains(v value.Value) bool {
	_, ok := h.vals[v]
	return ok
}

// Len reports the number of distinct hidden values.
func (h *HiddenValueSet) Len() int { return len(h.vals) }
