package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// TestRepeatedInLiteralsLookedUpOnce holds an IN list with a repeated
// value, written out or passed twice as '?' arguments, to the list that
// names it once: the binder keeps the first of equal literals, so the
// climbing walk looks the value up once and the query returns the same
// rows with the same report — ClimbingIndex tuples, flash page reads,
// simulated time — on one device and on four. Only the statement text
// the terminal sends differs in length, and its share of the bus bytes
// and of the clock is taken out of the comparison.
func TestRepeatedInLiteralsLookedUpOnce(t *testing.T) {
	const once = `SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Purpose IN ('Sclerosis')`
	forms := []struct {
		name string
		sql  string
		args []value.Value
	}{
		{"once", once, nil},
		{"literal twice", `SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Purpose IN ('Sclerosis', 'Sclerosis')`, nil},
		{"argument twice", `SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Purpose IN (?, ?)`,
			[]value.Value{value.NewString("Sclerosis"), value.NewString("Sclerosis")}},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var want *Result
			var wantDB *DB
			for _, f := range forms {
				// A fresh database per form: the page cache starts cold
				// each time, so the flash reads compare.
				db, _, _ := loadShardedTiny(t, shards)
				cq, err := db.Compile(f.sql)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				res, err := cq.Run(f.args)
				if err != nil {
					t.Fatalf("%s: %v", f.name, err)
				}
				if set := res.Query.Preds[0].P.Set; len(set) != 1 {
					t.Errorf("%s: the bound IN list holds %v, want one value", f.name, set)
				}
				if want == nil {
					want, wantDB = res, db
					if len(res.Rows) == 0 {
						t.Fatal("no Sclerosis visit: the case compares nothing")
					}
					continue
				}
				if !reflect.DeepEqual(res.Rows, want.Rows) {
					t.Errorf("%s: rows %v, want %v", f.name, res.Rows, want.Rows)
				}
				if got, exp := reportView(db, res), reportView(wantDB, want); got != exp {
					t.Errorf("%s: report\n%s\nwant\n%s", f.name, got, exp)
				}
			}
		})
	}
}

// reportView renders the report of every engine a query contacted, net
// of the one thing the three forms may differ in: the statement text the
// terminal sends (its bytes on the device wire and the transfer time of
// its two messages).
func reportView(db *DB, res *Result) string {
	text := len(res.Query.SQL)
	var textTime time.Duration
	for _, to := range []trace.Party{trace.Device, trace.Server} {
		p, ok := db.shards.engines[0].net.Profile(trace.Terminal, to)
		if !ok {
			panic("no link from the terminal to " + string(to))
		}
		textTime += p.TransferTime(text)
	}
	out := ""
	for s, r := range res.ShardReports {
		if r == nil {
			continue
		}
		out += fmt.Sprintf("[%d] plan=%s time=%d ram=%d flash=%+v bus=%d/%d rows=%d\n",
			s, r.PlanLabel, int64(r.TotalTime-textTime), r.RAMHigh, r.Flash, r.BusBytes-int64(text), r.BusMsgs, r.ResultRows)
		for _, op := range r.Ops {
			out += fmt.Sprintf("  %s %s in=%d out=%d ram=%d time=%d\n", op.Name, op.Detail, op.TuplesIn, op.TuplesOut, op.RAMBytes, int64(op.Time))
		}
	}
	return out
}
