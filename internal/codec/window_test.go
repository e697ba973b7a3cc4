package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

// pagedReader is a WindowReader over data cut into pages at the given
// offsets: Window lends the rest of the current page, ReadByte crosses
// into the next one — the shape of flash.Reader without a device.
type pagedReader struct {
	data []byte
	cuts []int // ascending page starts inside data, 0 excluded
	off  int
}

func newPagedReader(data []byte, cuts []int) *pagedReader {
	return &pagedReader{data: data, cuts: cuts}
}

func (p *pagedReader) pageEnd() int {
	for _, c := range p.cuts {
		if c > p.off {
			return min(c, len(p.data))
		}
	}
	return len(p.data)
}

func (p *pagedReader) Window() ([]byte, error) {
	if p.off >= len(p.data) {
		return nil, io.EOF
	}
	return p.data[p.off:p.pageEnd()], nil
}

func (p *pagedReader) Advance(n int) { p.off += n }

func (p *pagedReader) ReadByte() (byte, error) {
	if p.off >= len(p.data) {
		return 0, io.EOF
	}
	p.off++
	return p.data[p.off-1], nil
}

// decodeWindowVsPlain decodes count IDs from data through a ListDecoder
// over the paged reader and through binary.ReadUvarint over a plain
// io.ByteReader — the loop ListDecoder.Next was — and reports the first
// disagreement on an ID, on where the first error falls or on its text.
func decodeWindowVsPlain(data []byte, count int, cuts []int) error {
	d := NewListDecoder(newPagedReader(data, cuts), count)
	plain := bytes.NewReader(data)
	var prev uint32
	for i := 0; i < count; i++ {
		v, wantErr := binary.ReadUvarint(plain)
		prev += uint32(v) // the first ID is a delta from zero
		id, ok, err := d.Next()
		switch {
		case wantErr != nil:
			if err == nil || !errors.Is(err, wantErr) || err.Error() != "codec: ID list read: "+wantErr.Error() {
				return fmt.Errorf("ID %d: error %v, plain reader says %v", i, err, wantErr)
			}
			return nil
		case err != nil || !ok:
			return fmt.Errorf("ID %d: ok=%v err=%v, plain reader decodes %d", i, ok, err, prev)
		case id != prev:
			return fmt.Errorf("ID %d = %d, plain reader decodes %d", i, id, prev)
		}
	}
	if id, ok, err := d.Next(); ok || err != nil {
		return fmt.Errorf("past the count: %d ok=%v err=%v", id, ok, err)
	}
	return nil
}

// TestListDecoderWindow holds the windowed decoder to the byte-at-a-time
// loop on the cases a page boundary makes: a varint cut by it at every
// byte, a list ending mid-page, a truncated and an overlong varint in the
// window and across the cut.
func TestListDecoderWindow(t *testing.T) {
	ids := []uint32{3, 130, 131, 1 << 14, 1<<21 + 5, 1 << 28, 1<<32 - 1}
	enc := AppendIDList(nil, ids)
	overlong := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	for cut := 0; cut <= len(enc); cut++ {
		for _, cuts := range [][]int{{cut}, {cut, cut + 1}, {cut, cut + 2, cut + 3}} {
			if err := decodeWindowVsPlain(enc, len(ids), cuts); err != nil {
				t.Errorf("cuts %v: %v", cuts, err)
			}
			if err := decodeWindowVsPlain(enc, len(ids)+1, cuts); err != nil {
				t.Errorf("cuts %v, count past the list: %v", cuts, err)
			}
			if cut > 0 {
				if err := decodeWindowVsPlain(enc[:cut], len(ids), cuts); err != nil {
					t.Errorf("truncated at %d, cuts %v: %v", cut, cuts, err)
				}
			}
		}
		if cut <= len(overlong) {
			bad := append(append([]byte{5}, overlong...), 7)
			if err := decodeWindowVsPlain(bad, 3, []int{cut}); err != nil {
				t.Errorf("overlong varint, cut %d: %v", cut, err)
			}
		}
	}
}

// FuzzListDecoderWindow: arbitrary bytes, count and page cuts.
func FuzzListDecoderWindow(f *testing.F) {
	f.Add(AppendIDList(nil, []uint32{1, 2, 300, 70000}), 4, uint16(3), uint16(2))
	f.Add([]byte{0x80, 0x80}, 1, uint16(1), uint16(0))
	f.Add(append(bytes.Repeat([]byte{0xff}, 10), 1), 2, uint16(4), uint16(9))
	f.Add([]byte{}, 1, uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, count int, cutA, cutB uint16) {
		if count < 0 || count > 4*len(data)+2 {
			return
		}
		// Pages of cutA+1 bytes, the first one cutB bytes shorter or so:
		// every alignment of a varint to a page edge comes up.
		var cuts []int
		for c := int(cutB) % (int(cutA) + 1); c < len(data); c += int(cutA) + 1 {
			if c > 0 {
				cuts = append(cuts, c)
			}
		}
		if err := decodeWindowVsPlain(data, count, cuts); err != nil {
			t.Fatal(err)
		}
	})
}
