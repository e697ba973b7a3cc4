package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/storage"
)

// rebuildTrace is what a bulk load and two CHECKPOINTs left behind: the
// flash image digest after each, and at the end every engine's flash
// counters and simulated clock and every segment file's size.
type rebuildTrace struct {
	digests []string
	stats   []storage.Stats
	clocks  []time.Duration
	files   map[string]int64 // segment file -> size (file backend)
}

// rebuildAt loads 5 000 prescriptions on the backend and runs two keyed
// 90-statement rounds, each absorbed by a CHECKPOINT, at GOMAXPROCS procs.
func rebuildAt(t *testing.T, b backendCase, procs int) rebuildTrace {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	db, dir := b.open(t)
	defer db.Close()
	if err := db.LoadDataset(datagen.Generate(datagen.WithScale(5_000))); err != nil {
		t.Fatal(err)
	}
	tr := rebuildTrace{digests: flashImageStages(t, db), files: map[string]int64{}}
	for _, e := range db.shards.engines {
		e.mu.Lock()
		tr.stats = append(tr.stats, e.dev.Flash.Stats())
		tr.clocks = append(tr.clocks, e.clock.Now())
		e.mu.Unlock()
	}
	if dir != "" {
		if err := db.shards.engines[0].dev.Flash.Sync(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, "seg-*.dat"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segment files %v, %v", segs, err)
		}
		for _, seg := range segs {
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			tr.files[filepath.Base(seg)] = info.Size()
		}
	}
	return tr
}

// TestRebuildIndependentOfWorkers: loadState encodes climbing indexes on
// GOMAXPROCS workers, and the worker count changes nothing the device
// sees — not a programmed byte, a counter, a charge or a file size.
func TestRebuildIndependentOfWorkers(t *testing.T) {
	for _, b := range bothBackends {
		t.Run(b.name, func(t *testing.T) {
			one, eight := rebuildAt(t, b, 1), rebuildAt(t, b, 8)
			if !slices.Equal(one.digests, eight.digests) {
				t.Errorf("flash images at GOMAXPROCS 1 / 8:\n%v\n%v", one.digests, eight.digests)
			}
			if !slices.Equal(one.stats, eight.stats) {
				t.Errorf("flash stats at GOMAXPROCS 1 / 8:\n%+v\n%+v", one.stats, eight.stats)
			}
			if !slices.Equal(one.clocks, eight.clocks) {
				t.Errorf("simulated clocks at GOMAXPROCS 1 / 8: %v / %v", one.clocks, eight.clocks)
			}
			if len(one.files) != len(eight.files) {
				t.Fatalf("segment files at GOMAXPROCS 1 / 8: %v / %v", one.files, eight.files)
			}
			for seg, size := range one.files {
				if eight.files[seg] != size {
					t.Errorf("%s is %d bytes at GOMAXPROCS 1, %d at 8", seg, size, eight.files[seg])
				}
			}
		})
	}
}

// TestCorruptImageRefusedBeforeProgram: a recovered image whose foreign
// key points past its table is refused with ErrCorruptState before the
// rebuild programs a page, whatever the worker count.
func TestCorruptImageRefusedBeforeProgram(t *testing.T) {
	for _, b := range bothBackends {
		for _, procs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", b.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				db, _ := b.open(t)
				defer db.Close()
				if err := db.LoadDataset(datagen.Generate(datagen.WithScale(600))); err != nil {
					t.Fatal(err)
				}
				img := heldImage(t, db)
				// The last table's first foreign key, on its last row.
				last := db.sch.Tables()[len(img)-1]
				ci := slices.IndexFunc(last.Columns, func(c schema.Column) bool { return c.IsForeignKey() })
				rows := img[len(img)-1].fks[ci]
				rows[len(rows)-1] = 1 << 20
				e := db.shards.engines[0]
				e.mu.Lock()
				before := e.dev.Flash.Stats()
				_, err := e.loadState(img)
				after := e.dev.Flash.Stats()
				e.mu.Unlock()
				const want = "core: recovered state is inconsistent: Prescription.MedID row 600: foreign key 1048576 out of 1..2"
				if !errors.Is(err, ErrCorruptState) || err.Error() != want {
					t.Fatalf("loadState = %v, want %q", err, want)
				}
				if after != before {
					t.Fatalf("the refused image reached the device: %+v, then %+v", before, after)
				}
			})
		}
	}
}
