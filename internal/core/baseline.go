package core

import (
	"github.com/ghostdb/ghostdb/internal/baseline"
	"github.com/ghostdb/ghostdb/internal/climbing"
)

// BaselineEngine exposes the loaded database to the baseline join
// algorithms (experiment E4): they run on the same device, hidden store
// and visible store, but without Subtree Key Tables or transitive
// climbing lists.
//
// It runs on engine 0 — the device of a single-device database — and
// drives its device, clock and RAM arena directly, outside the device
// gate, so — unlike DB.Query — it is NOT safe to run concurrently with
// queries or sessions on this DB. It is a
// single-threaded experiment harness: load the database, then run the
// baselines from one goroutine.
func (db *DB) BaselineEngine() *baseline.Engine {
	e := db.shards.engines[0]
	return &baseline.Engine{
		Dev:  e.dev,
		Env:  e.env,
		Sch:  e.sch,
		Hid:  e.hid,
		Vis:  e.vis,
		Rows: e.rowCounts,
		Translator: func(table string) (*climbing.Index, error) {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.translator(table)
		},
		ValueIndex: e.Index,
	}
}
