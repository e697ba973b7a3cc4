package value

// Column is one column of a table image: every cell of the one Kind,
// unboxed. A fixed-width kind keeps its payload words (Word / FromWord, the
// stored form of column files), a String column its strings; the other
// slice stays empty.
type Column struct {
	Kind  Kind
	Words []int64  // Int, Date, Bool, Float
	Strs  []string // String
}

// MakeColumn returns an empty column of kind k with room for n cells.
func MakeColumn(k Kind, n int) Column {
	if k == String {
		return Column{Kind: k, Strs: make([]string, 0, n)}
	}
	return Column{Kind: k, Words: make([]int64, 0, n)}
}

// Len reports the number of cells.
func (c Column) Len() int { return len(c.Words) + len(c.Strs) }

// Value returns cell i as a Value.
func (c Column) Value(i int) Value {
	if c.Kind == String {
		return NewString(c.Strs[i])
	}
	return FromWord(c.Kind, c.Words[i])
}

// Append adds v, which must have the column's kind (it panics otherwise).
func (c *Column) Append(v Value) {
	if v.kind != c.Kind {
		panic("value: " + v.kind.String() + " appended to a " + c.Kind.String() + " column")
	}
	if c.Kind == String {
		c.Strs = append(c.Strs, v.s)
	} else {
		c.Words = append(c.Words, v.Word())
	}
}
