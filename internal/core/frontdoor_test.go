package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/testenv"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// Every database is a front door over n >= 1 device engines. These tests
// pin what the front door reports about its devices at one and at several.

// TestFatalErrorNamesDeadShard: a dead device takes the database's
// FatalError with it at every shard count — wrapped with its shard
// number, still a device death to errors.Is, IsDeviceDead and
// IsFaultFatal — and the next query that needs it fails with that very
// error.
func TestFatalErrorNamesDeadShard(t *testing.T) {
	for _, tc := range []struct{ shards, dead int }{{1, 0}, {4, 2}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			kill := &fault.Plan{CutAtOp: 1}
			kill.SetShard(tc.dead)
			db, _, _ := loadShardedTiny(t, tc.shards, WithFaultPlan(kill))
			if err := db.FatalError(); err != nil {
				t.Fatalf("healthy database reports %v", err)
			}
			const scan = `SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity > 20`
			if _, err := db.Query(scan); err == nil {
				t.Fatal("a scan over the dying device succeeded")
			}
			fatal := db.FatalError()
			if fatal == nil {
				t.Fatal("FatalError is nil with a dead device")
			}
			if !strings.Contains(fatal.Error(), fmt.Sprintf("shard %d", tc.dead)) {
				t.Fatalf("FatalError %q does not name shard %d", fatal, tc.dead)
			}
			if !errors.Is(fatal, fault.ErrPowerCut) || !IsDeviceDead(fatal) || !IsFaultFatal(fatal) {
				t.Fatalf("FatalError %q lost its cause", fatal)
			}
			if _, err := db.Query(scan); !errors.Is(err, fatal) {
				t.Fatalf("the next scan: %v, want the latched %v", err, fatal)
			}
		})
	}
}

// TestPublicDeviceIsEngineZero: Device, Clock and Recorder report engine
// 0 — the device of a single-device database, shard 0 of a sharded one —
// so a spy audit through them checks real traffic at every shard count.
func TestPublicDeviceIsEngineZero(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, _ := loadShardedTiny(t, shards, WithCapture(trace.CaptureFull))
			res, err := db.Query(paperQuery)
			if err != nil {
				t.Fatal(err)
			}
			if db.Recorder().Len() == 0 || len(db.Recorder().SpyView()) == 0 {
				t.Fatal("the public recorder saw no traffic after a query")
			}
			info := db.ShardInfos()[0]
			if db.Clock().Now() == 0 || db.Clock().Now() != info.SimTime {
				t.Fatalf("public clock %v, engine 0 %v", db.Clock().Now(), info.SimTime)
			}
			// The device also read what the optimizer's statistics probes
			// read, which the execution report leaves out.
			if got, want := db.Device().Flash.Stats().PageReads, res.ShardReports[0].Flash.PageReads; want == 0 || got < want {
				t.Fatalf("public device read %d pages, engine 0's report says %d", got, want)
			}
			auditEveryDevice(t, db)
		})
	}
}

// auditEveryDevice runs the spy audit over every engine's trace.
func auditEveryDevice(t *testing.T, db *DB) {
	t.Helper()
	for s, e := range db.shards.engines {
		if leaks := trace.Audit(e.rec.Events(), db.HiddenValues().Contains); len(leaks) != 0 {
			t.Fatalf("shard %d leaked hidden values: %v", s, leaks[0])
		}
	}
}

// TestHiddenValuesSameAtEveryShardCount: the audit set is the database's,
// kept once by the front door — the same after the same DML whatever the
// shard count. A hidden value joins it when a row holds it: an UPDATE that
// matched nothing stores nothing.
func TestHiddenValuesSameAtEveryShardCount(t *testing.T) {
	script := append(append([]string{}, singleDeviceScript...), singleDeviceEmpty...)
	script = append(script, `UPDATE Visit SET Purpose = 'Never Stored' WHERE VisID = 999`)
	var probes []value.Value
	for _, s := range []string{"Canary Purpose", "Hidden Update", "Never Stored"} {
		probes = append(probes, value.NewString(s))
	}
	var wantLen int
	var want []bool
	for _, shards := range []int{1, 2, 4} {
		db, _, ds := loadShardedTiny(t, shards)
		if shards == 1 {
			for _, tb := range db.Schema().Tables() {
				for ci, c := range tb.Columns {
					if c.Hidden && c.Type.Kind == value.String {
						probes = append(probes, ds.Table(tb.Name).Cols[ci]...)
					}
				}
			}
		}
		for _, stmt := range script {
			var err error
			if strings.HasPrefix(stmt, "SELECT") {
				_, err = db.Query(stmt)
			} else {
				_, err = db.Exec(stmt)
			}
			if err != nil {
				t.Fatalf("shards=%d %q: %v", shards, stmt, err)
			}
		}
		hv := db.HiddenValues()
		got := make([]bool, len(probes))
		for i, v := range probes {
			got[i] = hv.Contains(v)
		}
		if shards == 1 {
			wantLen, want = hv.Len(), got
			if !hv.Contains(value.NewString("Canary Purpose")) || hv.Contains(value.NewString("Never Stored")) {
				t.Fatal("the audit set does not hold what the rows hold")
			}
			continue
		}
		if hv.Len() != wantLen {
			t.Fatalf("shards=%d: %d hidden values, one device has %d", shards, hv.Len(), wantLen)
		}
		for i := range probes {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: Contains(%v) = %v, one device says %v", shards, probes[i], got[i], want[i])
			}
		}
	}
}

// TestFrontDoorAllocationFloor pins what the front door may cost. A
// root-key UPDATE allocates no more at one device or at four than the
// single-device engine did before it had a front door (18 objects,
// testing.AllocsPerRun over the same statement on the same 20 000-row
// database): the delta gauges sum the engines' counters, the target set
// uses pooled scratch. A point lookup at one device (BenchmarkShardPoint's
// hit) stays within two objects of that engine's 39.
func TestFrontDoorAllocationFloor(t *testing.T) {
	testenv.SkipFloorUnderRace(t)
	const updateFloor, pointFloor = 18, 41
	for _, shards := range []int{1, 4} {
		db := loadScale(t, 20_000, WithShards(shards))
		cd, _, err := db.compileDMLCached(mustParseScript(t, `UPDATE Prescription SET Quantity = 5 WHERE PreID = ?`)[0])
		if err != nil {
			t.Fatal(err)
		}
		params := []value.Value{value.NewInt(100)}
		ctx := context.Background()
		got := testing.AllocsPerRun(200, func() {
			if _, err := cd.exec(ctx, params); err != nil {
				t.Fatal(err)
			}
		})
		db.Close()
		t.Logf("shards=%d: %.1f objects per root-key UPDATE", shards, got)
		if got > updateFloor {
			t.Errorf("shards=%d: a root-key UPDATE allocates %.1f objects, floor %d", shards, got, updateFloor)
		}
	}

	const scale = 50_000
	db := loadScale(t, scale)
	defer db.Close()
	cq, _, err := db.compileCached(`SELECT Pre.PreID, Pre.Quantity, Pre.WhenWritten FROM Prescription Pre WHERE Pre.PreID = ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []value.Value{value.NewInt(scale / 3)}
	got := testing.AllocsPerRun(200, func() {
		if res, err := cq.Run(params); err != nil || len(res.Rows) != 1 {
			t.Fatalf("%v, %v", res, err)
		}
	})
	t.Logf("%.1f objects per point lookup", got)
	if got > pointFloor {
		t.Errorf("a point lookup on one device allocates %.1f objects, floor %d", got, pointFloor)
	}
}
