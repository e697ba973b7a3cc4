package filedev

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/ghostdb/ghostdb/internal/storage"
)

// FuzzOpen opens a device directory whose geometry file and first
// segment — its out-of-band table and its length — are whatever the
// fuzzer made of a real device's. Open must answer with ErrGeometry or
// with a device on which every page reads as data, as erased 0xFF, or as
// storage.ErrCorrupt: no panic, no hang, no other error.
func FuzzOpen(f *testing.F) {
	p := testParams()
	src := filepath.Join(f.TempDir(), "dev")
	d, err := Open(src, p, false)
	if err != nil {
		f.Fatal(err)
	}
	for _, page := range []int{0, 1, 5, 8, 9, 63} {
		data := bytes.Repeat([]byte{byte(page + 1)}, p.PageSize)
		if page == 1 {
			data = data[:7]
		}
		if err := d.ProgramPage(page, data); err != nil {
			f.Fatal(err)
		}
	}
	if err := d.EraseBlock(2); err != nil { // pages 8 and 9 back to erased, their data left in place
		f.Fatal(err)
	}
	if err := d.Close(); err != nil {
		f.Fatal(err)
	}
	geom, err := os.ReadFile(filepath.Join(src, geometryFile))
	if err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(src, "seg-0000.dat"))
	if err != nil {
		f.Fatal(err)
	}
	oob := seg[:p.PageCount()*oobEntry]
	dataStart := len(seg) - 64*p.PageSize // page 63 is programmed, so the file ends with the last page

	f.Add(geom, oob, len(seg))
	f.Add(geom, oob, len(oob)/2)                                 // cut inside the out-of-band table
	f.Add(geom, oob, dataStart+p.PageSize/2)                     // cut inside page 0
	f.Add(geom, oob, 0)                                          // empty segment
	f.Add(geom, bytes.Repeat([]byte{0xFF}, len(oob)), len(seg))  // every flag of every page set
	f.Add(geom, bytes.Repeat([]byte{0x01}, len(oob)), dataStart) // programmed, no checksum, no data
	f.Add(geom, bytes.Repeat([]byte{0x02}, len(oob)), len(seg))  // checksum without the programmed flag
	f.Add(bytes.Replace(geom, []byte(`"version": 1`), []byte(`"version": 7`), 1), oob, len(seg))
	f.Add(bytes.Replace(geom, []byte(`"blocks": 16`), []byte(`"blocks": -16`), 1), oob, len(seg))
	f.Add([]byte(`{"version":1,"page_size":1e99}`), oob, len(seg))
	f.Add([]byte(`[]`), oob, len(seg))
	f.Add([]byte{}, oob, len(seg))

	f.Fuzz(func(t *testing.T, geometry, oob []byte, segLen int) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, geometryFile), geometry, 0o644); err != nil {
			t.Fatal(err)
		}
		// The segment: the real one under the fuzzed table, cut or
		// zero-extended (at most doubled) to the fuzzed length.
		img := make([]byte, 2*len(seg))
		copy(img, seg)
		copy(img, oob)
		if segLen < 0 {
			segLen = -(segLen + 1)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-0000.dat"), img[:segLen%(len(img)+1)], 0o644); err != nil {
			t.Fatal(err)
		}

		d, err := Open(dir, p, false)
		if err != nil {
			if !errors.Is(err, ErrGeometry) {
				t.Fatalf("Open: %v, want ErrGeometry", err)
			}
			return
		}
		defer d.Close()
		snapshot, err := d.Image()
		if err != nil {
			t.Fatalf("Image: %v", err)
		}
		erased := bytes.Repeat([]byte{0xFF}, p.PageSize)
		buf := make([]byte, p.PageSize)
		for page := 0; page < p.PageCount(); page++ {
			err := d.ReadPage(page, buf)
			if err != nil && !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("page %d: %v", page, err)
			}
			if err == nil && !d.PageProgrammed(page) && !bytes.Equal(buf, erased) {
				t.Fatalf("erased page %d reads % x", page, buf[:8])
			}
			got, _, ierr := snapshot.ReadPage(page)
			if (ierr == nil) != (err == nil) || ierr != nil && !errors.Is(ierr, storage.ErrCorrupt) {
				t.Fatalf("page %d: device says %v, its image %v", page, err, ierr)
			}
			if err == nil && !bytes.Equal(got, buf) {
				t.Fatalf("page %d: device reads % x, its image % x", page, buf[:8], got[:8])
			}
		}
	})
}
