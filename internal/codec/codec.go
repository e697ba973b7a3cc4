// Package codec implements the compact encodings GhostDB uses for index
// payloads on flash: delta-encoded varint lists of sorted row identifiers
// (the posting lists of climbing indexes) and small framing helpers.
//
// Lists are encoded as the first ID as a uvarint followed by uvarint deltas
// to the previous ID. The element count is stored out of band (in the index
// dictionary), which keeps the stream free of headers and lets a decoder
// stop exactly at the right element.
package codec

import (
	"encoding/binary"
	"fmt"
	"io"
)

// AppendIDList appends the delta-varint encoding of ids (which must be
// sorted ascending) to dst and returns the extended slice. Duplicate IDs
// are preserved (encoded as zero deltas).
func AppendIDList(dst []byte, ids []uint32) []byte {
	prev := uint32(0)
	for i, id := range ids {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(id))
		} else {
			if id < prev {
				panic(fmt.Sprintf("codec: unsorted ID list: %d after %d", id, prev))
			}
			dst = binary.AppendUvarint(dst, uint64(id-prev))
		}
		prev = id
	}
	return dst
}

// IDListSize reports the encoded size of ids in bytes without encoding.
func IDListSize(ids []uint32) int {
	n := 0
	prev := uint32(0)
	for i, id := range ids {
		d := uint64(id)
		if i > 0 {
			d = uint64(id - prev)
		}
		n += uvarintLen(d)
		prev = id
	}
	return n
}

// DecodeIDList decodes count IDs from src. It is the slice-based
// counterpart of ListDecoder, used by tests and bulk loading.
func DecodeIDList(src []byte, count int) ([]uint32, error) {
	out := make([]uint32, 0, count)
	prev := uint32(0)
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(src)
		if n <= 0 {
			return nil, fmt.Errorf("codec: corrupt ID list at element %d", i)
		}
		src = src[n:]
		if i == 0 {
			prev = uint32(v)
		} else {
			prev += uint32(v)
		}
		out = append(out, prev)
	}
	return out, nil
}

// WindowReader is a buffered byte stream that can lend its unread bytes:
// Window returns what is buffered at the current position without
// consuming it (io.EOF at the end of the stream) and Advance consumes a
// prefix of it. flash.Reader, with its one-page buffer, is the
// implementation the engine uses.
type WindowReader interface {
	io.ByteReader
	Window() ([]byte, error)
	Advance(n int)
}

// ListDecoder streams a delta-varint ID list from a WindowReader —
// typically a flash extent reader with a one-page buffer, so decoding a
// long posting list never needs more than a page of RAM. Varints are
// decoded in the lent window; only one that the window cuts short (it
// crosses a page boundary, or the stream ends inside it) is read byte by
// byte, which is also what words the error of a truncated or overlong one.
type ListDecoder struct {
	r         WindowReader
	win       []byte // undecoded rest of the window r lent
	lent      int    // length of that window when it was lent
	remaining int
	prev      uint32 // the last ID; the first is a delta from zero
}

// NewListDecoder returns a decoder that will yield count IDs from r.
func NewListDecoder(r WindowReader, count int) *ListDecoder {
	d := &ListDecoder{}
	d.Reset(r, count)
	return d
}

// Reset re-initializes the decoder to yield count IDs from r, so embedded
// decoder values can be set up without a separate allocation.
func (d *ListDecoder) Reset(r WindowReader, count int) {
	*d = ListDecoder{r: r, remaining: count}
}

// Next returns the next ID. ok is false when the list is exhausted.
func (d *ListDecoder) Next() (id uint32, ok bool, err error) {
	if d.remaining <= 0 {
		return 0, false, nil
	}
	v, n := binary.Uvarint(d.win)
	if n > 0 {
		d.win = d.win[n:]
	} else if v, err = d.refill(); err != nil {
		return 0, false, fmt.Errorf("codec: ID list read: %w", err)
	}
	d.prev += uint32(v)
	d.remaining--
	return d.prev, true, nil
}

// refill decodes the varint the lent window does not hold whole: it hands
// back what was decoded of that window, then decodes from the next one,
// or through the byte reader when that one cuts the varint short too.
func (d *ListDecoder) refill() (uint64, error) {
	d.r.Advance(d.lent - len(d.win))
	d.win, d.lent = nil, 0
	win, err := d.r.Window()
	if err != nil {
		return 0, err
	}
	if v, n := binary.Uvarint(win); n > 0 {
		d.win, d.lent = win[n:], len(win)
		return v, nil
	}
	return binary.ReadUvarint(d.r)
}

// Remaining reports how many IDs are left to decode.
func (d *ListDecoder) Remaining() int { return d.remaining }

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}
