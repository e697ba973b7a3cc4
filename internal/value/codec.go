package value

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Append serializes v onto dst in the canonical wire/flash encoding and
// returns the extended slice. The encoding is a kind byte followed by:
//
//	Int, Date, Bool: zig-zag varint payload
//	Float:           8-byte little-endian IEEE bits
//	String:          uvarint length + raw bytes
func (v Value) Append(dst []byte) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case Int, Date, Bool:
		dst = binary.AppendVarint(dst, v.i)
	case Float:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.i))
	case String:
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		dst = append(dst, v.s...)
	case Invalid:
		// kind byte alone
	default:
		panic(fmt.Sprintf("value: Append of unknown kind %d", v.kind))
	}
	return dst
}

// EncodedSize reports the number of bytes Append would produce for v.
func (v Value) EncodedSize() int {
	switch v.kind {
	case Int, Date, Bool:
		return 1 + varintLen(v.i)
	case Float:
		return 9
	case String:
		return 1 + uvarintLen(uint64(len(v.s))) + len(v.s)
	default:
		return 1
	}
}

// Decode parses one encoded value from src, returning the value and the
// number of bytes consumed.
func Decode(src []byte) (Value, int, error) { return (*Interner)(nil).Decode(src) }

// Interner serves the repeated strings of one scan from a table, so a
// column of few distinct values costs one heap string per value instead
// of one per row. Its zero value is ready; a nil *Interner interns
// nothing. It is scoped to the scan that declares it and never pooled:
// what it holds must die with the scan's result.
type Interner struct {
	m    map[string]string
	seen int // strings handed out before the table exists
}

const (
	// internAfter strings go by before the table is built: a scan of a
	// handful of rows (a point lookup) is not worth a map.
	internAfter = 8
	// internCap bounds the table. Past it strings allocate as without an
	// interner, so a high-cardinality column cannot grow the table with
	// its row count.
	internCap = 1024
)

func (in *Interner) str(b []byte) string {
	if in == nil {
		return string(b)
	}
	if in.m == nil {
		if in.seen++; in.seen <= internAfter {
			return string(b)
		}
		in.m = map[string]string{}
	}
	if s, ok := in.m[string(b)]; ok { // the compiler elides this conversion: a hit allocates nothing
		return s
	}
	s := string(b)
	if len(in.m) < internCap {
		in.m[s] = s
	}
	return s
}

// Decode is the package-level Decode with string payloads interned.
func (in *Interner) Decode(src []byte) (Value, int, error) {
	if len(src) == 0 {
		return Value{}, 0, fmt.Errorf("value: decode of empty buffer")
	}
	k := Kind(src[0])
	switch k {
	case Int, Date, Bool:
		i, n := binary.Varint(src[1:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: corrupt varint payload")
		}
		return Value{kind: k, i: i}, 1 + n, nil
	case Float:
		if len(src) < 9 {
			return Value{}, 0, fmt.Errorf("value: short float payload")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(src[1:9]))), 9, nil
	case String:
		l, n := binary.Uvarint(src[1:])
		if n <= 0 {
			return Value{}, 0, fmt.Errorf("value: corrupt string length")
		}
		start := 1 + n
		end := start + int(l)
		if end > len(src) {
			return Value{}, 0, fmt.Errorf("value: short string payload")
		}
		return Value{kind: k, s: in.str(src[start:end])}, end, nil
	case Invalid:
		return Value{}, 1, nil
	default:
		return Value{}, 0, fmt.Errorf("value: unknown kind byte %d", src[0])
	}
}

func varintLen(v int64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutVarint(buf[:], v)
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
