package value

import "encoding/binary"

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

// AppendRange adds cells lo..hi-1 of src, a column of the same kind (it
// panics otherwise), in one copy.
func (c *Column) AppendRange(src Column, lo, hi int) {
	if src.Kind != c.Kind {
		panic("value: " + src.Kind.String() + " cells appended to a " + c.Kind.String() + " column")
	}
	if c.Kind == String {
		c.Strs = append(c.Strs, src.Strs[lo:hi]...)
	} else {
		c.Words = append(c.Words, src.Words[lo:hi]...)
	}
}

// EncodedSize reports the number of bytes AppendEncoded appends.
func (c Column) EncodedSize() int {
	n := 0
	switch c.Kind {
	case String:
		for _, s := range c.Strs {
			n += 1 + uvarintLen(uint64(len(s))) + len(s)
		}
	case Float:
		n = 9 * len(c.Words)
	default:
		for _, w := range c.Words {
			n += 1 + varintLen(w)
		}
	}
	return n
}

// AppendEncoded appends every cell in the canonical encoding, in row
// order — what Value(i).Append appends for each i — without building a
// Value per cell.
func (c Column) AppendEncoded(dst []byte) []byte {
	switch c.Kind {
	case String:
		for _, s := range c.Strs {
			dst = append(dst, byte(String))
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	case Float:
		for _, w := range c.Words {
			dst = append(dst, byte(Float))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(w))
		}
	default:
		for _, w := range c.Words {
			dst = append(dst, byte(c.Kind))
			dst = binary.AppendVarint(dst, w)
		}
	}
	return dst
}
