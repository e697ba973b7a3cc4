package codec

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestIDListRoundTrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{},
		{0},
		{1},
		{1, 2, 3},
		{5, 5, 5}, // duplicates allowed
		{0, 1 << 20, 1 << 30, 1<<32 - 1},
		// the last and first delta of each varint length
		cumulative(1<<7-1, 1<<7, 1<<14-1, 1<<14, 1<<21-1, 1<<21, 1<<28),
	}
	for _, ids := range cases {
		enc := AppendIDList(nil, ids)
		if got := IDListSize(ids); got != len(enc) {
			t.Errorf("IDListSize(%v) = %d, want %d", ids, got, len(enc))
		}
		put := make([]byte, 5*len(ids))
		if n := PutIDList(put, ids); string(put[:n]) != string(enc) {
			t.Errorf("PutIDList(%v) = %x, want %x", ids, put[:n], enc)
		}
		dec, err := DecodeIDList(enc, len(ids))
		if err != nil {
			t.Fatalf("DecodeIDList(%v): %v", ids, err)
		}
		if len(dec) != len(ids) {
			t.Fatalf("decoded %d ids, want %d", len(dec), len(ids))
		}
		for i := range ids {
			if dec[i] != ids[i] {
				t.Errorf("ids[%d] = %d, want %d", i, dec[i], ids[i])
			}
		}
	}
}

// cumulative returns the ascending IDs whose deltas, from 0, are deltas.
func cumulative(deltas ...uint32) []uint32 {
	ids := make([]uint32, len(deltas))
	prev := uint32(0)
	for i, d := range deltas {
		prev += d
		ids[i] = prev
	}
	return ids
}

func TestUnsortedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unsorted input")
		}
	}()
	AppendIDList(nil, []uint32{5, 3})
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeIDList([]byte{0x80}, 1); err == nil {
		t.Error("corrupt varint must error")
	}
	if _, err := DecodeIDList(nil, 2); err == nil {
		t.Error("short buffer must error")
	}
}

func TestListDecoderStreams(t *testing.T) {
	ids := []uint32{2, 7, 7, 100, 1 << 25}
	enc := AppendIDList(nil, ids)
	d := NewListDecoder(newPagedReader(enc, nil), len(ids))
	for i, want := range ids {
		if got := d.Remaining(); got != len(ids)-i {
			t.Errorf("Remaining = %d, want %d", got, len(ids)-i)
		}
		id, ok, err := d.Next()
		if err != nil || !ok {
			t.Fatalf("Next[%d]: ok=%v err=%v", i, ok, err)
		}
		if id != want {
			t.Errorf("Next[%d] = %d, want %d", i, id, want)
		}
	}
	if _, ok, err := d.Next(); ok || err != nil {
		t.Errorf("exhausted decoder: ok=%v err=%v", ok, err)
	}
}

func TestListDecoderTruncated(t *testing.T) {
	enc := AppendIDList(nil, []uint32{1, 2, 3})
	d := NewListDecoder(newPagedReader(enc[:1], nil), 3)
	if _, ok, err := d.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if _, _, err := d.Next(); err == nil {
		t.Error("truncated stream must error")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		ids := append([]uint32(nil), raw...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		enc := AppendIDList(nil, ids)
		dec, err := DecodeIDList(enc, len(ids))
		if err != nil || len(dec) != len(ids) {
			return false
		}
		for i := range ids {
			if dec[i] != ids[i] {
				return false
			}
		}
		// Streaming decoder must agree with the slice decoder.
		sd := NewListDecoder(newPagedReader(enc, nil), len(ids))
		for i := 0; ; i++ {
			id, ok, err := sd.Next()
			if err != nil {
				return false
			}
			if !ok {
				return i == len(ids)
			}
			if id != ids[i] {
				return false
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
