package core

import (
	"encoding/binary"

	"github.com/ghostdb/ghostdb/internal/value"
)

// projStore holds one execution's display-side projected values by
// (projection, sequence number) as columns of words, not of value.Values:
// one pointer-free slab carries every projection's 8-byte payload words
// followed by their kind bytes — 9 bytes a cell the collector never scans,
// against the 32 of a value.Value it must — and a projection gets a string
// column the first time it meets a string. A cell never set reads as the
// zero Value.
type projStore struct {
	rows  int
	words []byte     // len(strs)*rows little-endian payload words...
	kinds []byte     // ...and, in the same allocation, as many kind bytes
	strs  [][]string // per projection; nil until the projection meets a string
}

// reset empties the store for nproj projections, keeping only the
// per-projection header slice.
func (p *projStore) reset(nproj int) {
	clear(p.strs)
	if cap(p.strs) < nproj {
		p.strs = make([][]string, nproj)
	}
	p.strs = p.strs[:nproj]
	p.rows, p.words, p.kinds = 0, nil, nil
}

// size allocates the store for sequence numbers below rows.
func (p *projStore) size(rows int) {
	cells := len(p.strs) * rows
	slab := make([]byte, 9*cells)
	p.rows, p.words, p.kinds = rows, slab[:8*cells], slab[8*cells:]
}

func (p *projStore) set(j int, seq uint32, v value.Value) {
	cell := j*p.rows + int(seq)
	switch k := v.Kind(); k {
	case value.Invalid:
	case value.String:
		if p.strs[j] == nil {
			p.strs[j] = make([]string, p.rows)
		}
		p.strs[j][seq] = v.Str()
		p.kinds[cell] = byte(k)
	default:
		binary.LittleEndian.PutUint64(p.words[8*cell:], uint64(v.Word()))
		p.kinds[cell] = byte(k)
	}
}

func (p *projStore) get(j, seq int) value.Value {
	cell := j*p.rows + seq
	switch k := value.Kind(p.kinds[cell]); k {
	case value.Invalid:
		return value.Value{}
	case value.String:
		return value.NewString(p.strs[j][seq])
	default:
		return value.FromWord(k, int64(binary.LittleEndian.Uint64(p.words[8*cell:])))
	}
}
