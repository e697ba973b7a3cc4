package storage

import "fmt"

// memImage is the host-memory Image a Device snapshots itself into, so
// recovery never touches the live medium. Only blocks holding programmed
// pages consume host memory.
type memImage struct {
	p      Params
	blocks []*imageBlock
}

type imageBlock struct {
	data  []byte // PagesPerBlock * PageSize; unprogrammed pages are not filled in
	pages []pageState
}

// Params returns the imaged device's geometry.
func (img *memImage) Params() Params { return img.p }

// page returns the imaged page's state and stored bytes; programmed is
// false (and the rest meaningless) for erased and out-of-range pages.
func (img *memImage) page(page int) (st pageState, stored []byte) {
	if page < 0 || page >= img.p.PageCount() {
		return st, nil
	}
	b := img.blocks[page/img.p.PagesPerBlock]
	if b == nil {
		return st, nil
	}
	slot := page % img.p.PagesPerBlock
	return b.pages[slot], b.data[slot*img.p.PageSize : (slot+1)*img.p.PageSize]
}

// PageProgrammed reports whether the imaged page holds programmed data.
func (img *memImage) PageProgrammed(page int) bool {
	st, _ := img.page(page)
	return st.Programmed
}

// read copies the page's bytes from off on into dst, verifying a
// programmed page against its OOB checksum first — on every call: an
// image is read a few times by recovery, not on a query path.
func (img *memImage) read(page, off int, dst []byte) error {
	st, stored := img.page(page)
	if !st.Programmed {
		fillFF(dst)
		return nil
	}
	if st.HasCRC && PageCRC(stored, img.p.PageSize) != st.CRC {
		return fmt.Errorf("%w: page %d (block %d, page %d in block)", ErrCorrupt, page, page/img.p.PagesPerBlock, page%img.p.PagesPerBlock)
	}
	copy(dst, stored[off:])
	return nil
}

// ReadAt fills dst from the image at byte offset addr, verifying the OOB
// checksum of every page it touches. Erased bytes read as 0xFF.
func (img *memImage) ReadAt(dst []byte, addr int64) error {
	if addr < 0 || addr+int64(len(dst)) > img.p.TotalBytes() {
		return fmt.Errorf("%w: read [%d, %d) of image [0, %d)", ErrOutOfRange, addr, addr+int64(len(dst)), img.p.TotalBytes())
	}
	ps := int64(img.p.PageSize)
	for len(dst) > 0 {
		off := int(addr % ps)
		n := min(img.p.PageSize-off, len(dst))
		if err := img.read(int(addr/ps), off, dst[:n]); err != nil {
			return err
		}
		dst = dst[n:]
		addr += int64(n)
	}
	return nil
}

// ReadPage returns a verified copy of one full page. The second result
// reports whether the page was programmed (an unprogrammed page reads as
// all 0xFF).
func (img *memImage) ReadPage(page int) ([]byte, bool, error) {
	if page < 0 || page >= img.p.PageCount() {
		return nil, false, fmt.Errorf("%w: page %d of %d", ErrOutOfRange, page, img.p.PageCount())
	}
	buf := make([]byte, img.p.PageSize)
	programmed := img.PageProgrammed(page)
	if err := img.read(page, 0, buf); err != nil {
		return nil, programmed, err
	}
	return buf, programmed, nil
}
