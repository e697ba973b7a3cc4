package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/device"
)

// flashImageDigest hashes every programmed page of the commit-record
// blocks and both main halves of every device of db — page number, then
// page bytes, in page order. Scratch is left out: it holds query spills,
// not the database.
func flashImageDigest(t *testing.T, db *DB) string {
	t.Helper()
	h := sha256.New()
	for _, c := range db.shards.engines {
		c.mu.Lock()
		img, err := c.dev.Flash.Image()
		fp := c.dev.Profile.Flash
		mainPages := (fp.Blocks - c.dev.Profile.ScratchBlocks) * fp.PagesPerBlock
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for page := 0; page < mainPages; page++ {
			if !img.PageProgrammed(page) {
				continue
			}
			data, _, err := img.ReadPage(page)
			if err != nil {
				t.Fatal(err)
			}
			var no [4]byte
			binary.LittleEndian.PutUint32(no[:], uint32(page))
			h.Write(no[:])
			h.Write(data)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// flashImageCase is one database whose flash image is pinned.
type flashImageCase struct {
	scale, shards int
	small         bool // the 16 KB device profile
}

func (c flashImageCase) name() string {
	prof := "default"
	if c.small {
		prof = "16KB"
	}
	return fmt.Sprintf("scale=%d/shards=%d/%s", c.scale, c.shards, prof)
}

func (c flashImageCase) open(t *testing.T) *DB {
	p := device.SmartUSB2007()
	if c.small {
		p = SmallProfileForTest()
	}
	return loadScale(t, c.scale, WithProfile(p), WithShards(c.shards))
}

// flashImageCases: Tiny and 5 000 prescriptions, one and two devices, the
// default and the 16 KB profile.
func flashImageCases() (cases []flashImageCase) {
	for _, scale := range []int{datagen.Tiny().Prescriptions, 5_000} {
		for _, shards := range []int{1, 2} {
			for _, small := range []bool{false, true} {
				cases = append(cases, flashImageCase{scale, shards, small})
			}
		}
	}
	return cases
}

// flashImageStages returns the image digest of a freshly loaded case after
// the bulk load and after each of two 90-statement keyed rounds + CHECKPOINT.
func flashImageStages(t *testing.T, db *DB) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(22))
	stages := []string{flashImageDigest(t, db)}
	for round := 0; round < 2; round++ {
		keyedRound(t, db, rng, 90)
		if n, err := db.Checkpoint(); err != nil || n != 90 {
			t.Fatalf("checkpoint %d: n=%d err=%v", round, n, err)
		}
		stages = append(stages, flashImageDigest(t, db))
	}
	return stages
}

// TestFlashImagePinned replays testdata/flashimage_golden.txt, written at
// 2d3e060 — the last commit whose rebuild numbered values through
// map[value.Value], grew inverted edges by append and carried a 40-byte
// Value — before the first non-test edit of the change that replaced
// them. Whatever the rebuild does host-side, bulk load and CHECKPOINT
// must program the same bytes into the same pages. Never regenerate the
// file to make a failure go away.
func TestFlashImagePinned(t *testing.T) {
	f, err := os.Open("testdata/flashimage_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		want[fields[0]] = fields[1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := flashImageCases()
	if len(want) != len(cases) {
		t.Fatalf("golden holds %d cases, want %d", len(want), len(cases))
	}
	for _, c := range cases {
		t.Run(c.name(), func(t *testing.T) {
			db := c.open(t)
			defer db.Close()
			got := flashImageStages(t, db)
			w := want[c.name()]
			if len(w) != len(got) {
				t.Fatalf("golden has %d stages, want %d", len(w), len(got))
			}
			for i, stage := range []string{"bulk load", "first CHECKPOINT", "second CHECKPOINT"} {
				if got[i] != w[i] {
					t.Errorf("flash image after %s drifted from 2d3e060: %s, want %s", stage, got[i], w[i])
				}
			}
		})
	}
}
