package main

import (
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/bench"
	"github.com/ghostdb/ghostdb/internal/core"
)

// TestExperiments runs every experiment the command lists, at the scale
// CI uses, and checks that a name it no longer knows — an experiment
// that moved to benchmark/, or a typo — fails with the list of those it
// does. loadgen is left to CI's zero-drop step: it boots an HTTP server
// and a thousand clients.
func TestExperiments(t *testing.T) {
	cfg := bench.Config{Scale: 2000, Seed: 42}
	var shared *core.DB
	sharedDB := func() *core.DB {
		if shared == nil {
			db, _, err := bench.BuildDB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			shared = db
		}
		return shared
	}
	for _, name := range experimentOrder {
		if name == "loadgen" {
			continue
		}
		if err := run(name, cfg, sharedDB); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, gone := range []string{"shard", "faults", "all-typo"} {
		err := run(gone, cfg, sharedDB)
		if err == nil {
			t.Errorf("%s: ran, want an unknown-experiment error", gone)
			continue
		}
		for _, name := range experimentOrder {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not list %s", gone, err, name)
			}
		}
	}
}
