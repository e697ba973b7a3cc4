package core

// The table image is what every rebuild of a device takes: the bulk load,
// CHECKPOINT, Recover / OpenPath and the shard split produce it, loadState
// alone consumes it. Cells are coerced and checked once, at the boundary
// (appendRows), exactly as a live INSERT checks its rows (checkRow).

import (
	"fmt"
	"math"
	"slices"

	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/value"
)

// tableImage is one table's rows (a database's image: one per table, by
// ordinal). A foreign key holds row identifiers; the primary key is not
// stored: it is 1..n by construction.
type tableImage struct {
	n    int
	cols []value.Column // by schema position; unset on the key and the foreign keys
	fks  [][]uint32     // by schema position; set on the foreign keys only
}

// newTableImage returns an empty image of t with room for n rows.
func newTableImage(t *schema.Table, n int) tableImage {
	im := tableImage{cols: make([]value.Column, len(t.Columns)), fks: make([][]uint32, len(t.Columns))}
	for ci, c := range t.Columns {
		switch {
		case c.PrimaryKey:
		case c.IsForeignKey():
			im.fks[ci] = make([]uint32, 0, n)
		default:
			im.cols[ci] = value.MakeColumn(c.Type.Kind, n)
		}
	}
	return im
}

// appendFrom appends row r of src, an image of the same table t.
func (im *tableImage) appendFrom(t *schema.Table, src *tableImage, r int) {
	for ci := range t.Columns {
		switch c := &t.Columns[ci]; {
		case c.PrimaryKey:
		case c.IsForeignKey():
			im.fks[ci] = append(im.fks[ci], src.fks[ci][r])
		default:
			im.cols[ci].Append(src.cols[ci].Value(r))
		}
	}
	im.n++
}

// checkRow checks one INSERT row the way every INSERT row is checked — its
// arity, no unbound placeholder, each literal coerced to its column's
// kind, the key continuing the dense sequence at want and, when live is
// set, each foreign key naming a row live accepts — and leaves the coerced
// row in out. ri is the row's 0-based position in its statement; errors
// count rows from 1.
func checkRow(t *schema.Table, row, out []value.Value, ri int, want int64, live func(ci int, id uint32) bool) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("core: %s expects %d values, got %d", t.Name, len(t.Columns), len(row))
	}
	for ci, v := range row {
		if v.IsParam() {
			return fmt.Errorf("core: INSERT into %s carries an unbound '?' placeholder; bind arguments first", t.Name)
		}
		c := &t.Columns[ci]
		cv, err := value.Coerce(v, c.Type.Kind)
		if err != nil {
			return fmt.Errorf("core: %s.%s row %d: %w", t.Name, c.Name, ri+1, err)
		}
		out[ci] = cv
	}
	if pk := out[t.PrimaryKeyIndex()]; pk.Int() != want {
		return fmt.Errorf("core: %s primary key must be dense: row %d needs key %d, got %s",
			t.Name, ri+1, want, pk)
	}
	for ci := range t.Columns {
		c, ref := &t.Columns[ci], out[ci]
		if live != nil && c.IsForeignKey() && (ref.Kind() != value.Int || ref.Int() < 1 || ref.Int() > math.MaxUint32 || !live(ci, uint32(ref.Int()))) {
			return fmt.Errorf("core: %s row %d: foreign key %s = %s references no live %s row",
				t.Name, ri+1, c.Name, ref, c.RefTable)
		}
	}
	return nil
}

// appendRows is the bulk load's boundary: it checks the rows of one
// statement (row(r) is row r, 0-based) exactly as a live INSERT does — a
// foreign key must name a row of its referenced table's image so far,
// refRows — and appends all of them, or none.
func (im *tableImage) appendRows(t *schema.Table, rows int, row func(r int) []value.Value, refRows func(table string) int) error {
	out := make([]value.Value, len(t.Columns))
	live := func(ci int, id uint32) bool { return int(id) <= refRows(t.Columns[ci].RefTable) }
	// Rows go to a copy whose headers alone are new: a failed statement
	// leaves im as it was.
	next := tableImage{n: im.n, cols: slices.Clone(im.cols), fks: slices.Clone(im.fks)}
	for r := 0; r < rows; r++ {
		if err := checkRow(t, row(r), out, r, int64(next.n)+1, live); err != nil {
			return err
		}
		for ci := range t.Columns {
			switch c := &t.Columns[ci]; {
			case c.PrimaryKey:
			case c.IsForeignKey():
				next.fks[ci] = append(next.fks[ci], uint32(out[ci].Int()))
			default:
				next.cols[ci].Append(out[ci])
			}
		}
		next.n++
	}
	*im = next
	return nil
}

// appendColumns is appendRows for a statement given as columns, cols[ci]
// one cell a row. Into an empty image whose every cell already has its
// column's kind, with the keys dense and the foreign keys naming staged
// rows — a generated dataset — the columns are packed one at a time, which
// is what appendRows would do; anything else takes the rows through
// appendRows, which coerces them and names the first bad cell.
func (im *tableImage) appendColumns(t *schema.Table, cols [][]value.Value, refRows func(table string) int) error {
	rows := len(cols[0])
	next, typed := newTableImage(t, rows), im.n == 0
	for ci := 0; ci < len(cols) && typed; ci++ {
		switch c := &t.Columns[ci]; {
		case c.PrimaryKey:
			for r, v := range cols[ci] {
				typed = typed && v.Kind() == value.Int && v.Int() == int64(r+1)
			}
		case c.IsForeignKey():
			refN := int64(refRows(c.RefTable))
			for _, v := range cols[ci] {
				if typed = typed && v.Kind() == value.Int && v.Int() >= 1 && v.Int() <= refN; typed {
					next.fks[ci] = append(next.fks[ci], uint32(v.Int()))
				}
			}
		default:
			for _, v := range cols[ci] {
				if typed = typed && v.Kind() == c.Type.Kind; typed {
					next.cols[ci].Append(v)
				}
			}
		}
	}
	if typed {
		next.n = rows
		*im = next
		return nil
	}
	row := make([]value.Value, len(cols))
	return im.appendRows(t, rows, func(r int) []value.Value {
		for ci, col := range cols {
			row[ci] = col[r]
		}
		return row
	}, refRows)
}

// intColumn is an INTEGER column of n cells, cell r holding word(r).
func intColumn(n int, word func(r int) int64) value.Column {
	c := value.Column{Kind: value.Int, Words: make([]int64, n)}
	for r := range c.Words {
		c.Words[r] = word(r)
	}
	return c
}
