package core

import (
	"fmt"
	"testing"

	"github.com/ghostdb/ghostdb/internal/fault"
)

// tortureRounds is the number of DML+CHECKPOINT batches in the torture
// schedule; committed versions run 0 (fresh build) through tortureRounds.
const tortureRounds = 5

// tortureSchedule runs the deterministic DML schedule: per batch two
// inserts, an update, a delete, then CHECKPOINT. capture (when non-nil)
// is called with each committed version number, 0 first. It returns the
// number of committed checkpoints and whether the device died; any
// non-fault error fails the test.
func tortureSchedule(t *testing.T, db *DB, capture func(version int)) (committed int, died bool) {
	t.Helper()
	if capture != nil {
		capture(0)
	}
	for b := 1; b <= tortureRounds; b++ {
		rows := db.RowCount("Visit")
		nextVis := rows + 1
		stmts := []string{
			fmt.Sprintf(`INSERT INTO Visit VALUES (%d, DATE '2007-06-%02d', 'Torture%d', %d.5, %d)`,
				nextVis, (b%28)+1, b, b, (b%3)+1),
			fmt.Sprintf(`UPDATE Visit SET Purpose = 'Round%d' WHERE VisID = %d`, b, (b%rows)+1),
			fmt.Sprintf(`DELETE FROM Visit WHERE VisID = %d`, (b*2)%nextVis+1),
			fmt.Sprintf(`INSERT INTO Visit VALUES (%d, DATE '2007-07-%02d', 'Extra%d', %d.25, %d)`,
				nextVis+1, (b%28)+1, b, b, ((b+1)%3)+1),
		}
		for _, s := range stmts {
			if _, err := db.Exec(s); err != nil {
				if IsFaultFatal(err) {
					return committed, true
				}
				t.Fatalf("batch %d %q: %v", b, s, err)
			}
		}
		if _, err := db.Checkpoint(); err != nil {
			if IsFaultFatal(err) {
				return committed, true
			}
			t.Fatalf("batch %d checkpoint: %v", b, err)
		}
		committed++
		if capture != nil {
			capture(committed)
		}
	}
	return committed, false
}

// maxShardOps returns the largest per-device op count — the sweep range
// for cutop, which triggers on each shard's own counter.
func maxShardOps(db *DB) int64 {
	var m int64
	for _, c := range db.shards.engines {
		if n := c.inj.Ops(); n > m {
			m = n
		}
	}
	return m
}

// runPowerCutTorture is the crash-consistency acceptance gate: sweep
// power cuts across the whole operational op range, and after every
// single one, Recover from a flash snapshot must land on exactly the
// state of the last successful CHECKPOINT — never a torn mix, never a
// lost commit.
func runPowerCutTorture(t *testing.T, shards, trials int) {
	opts := []Option{}
	if shards > 1 {
		opts = append(opts, WithShards(shards))
	}

	// Oracle: the same schedule fault-free, capturing the query corpus
	// at every committed version.
	oracle := buildRecoverDB(t, opts...)
	corpora := make([][]string, 0, tortureRounds+1)
	if c, died := tortureSchedule(t, oracle, func(int) {
		corpora = append(corpora, corpusOf(t, oracle))
	}); died || c != tortureRounds {
		t.Fatalf("oracle run died=%v committed=%d", died, c)
	}

	// Probe: count the operational device ops the schedule consumes (an
	// empty plan injects nothing but counts), so cuts sweep the full
	// range with a tail of trials that outlive the schedule.
	probe := buildRecoverDB(t, append(opts[:len(opts):len(opts)], WithFaultPlan(&fault.Plan{}))...)
	tortureSchedule(t, probe, nil)
	opRange := maxShardOps(probe) + maxShardOps(probe)/20 + 2

	for i := 0; i < trials; i++ {
		cutop := 1 + int64(i)*opRange/int64(trials)
		plan := &fault.Plan{CutAtOp: cutop}
		db := buildRecoverDB(t, append(opts[:len(opts):len(opts)], WithFaultPlan(plan))...)
		committed, died := tortureSchedule(t, db, nil)
		if !died && committed != tortureRounds {
			t.Fatalf("cutop=%d: alive but committed %d/%d", cutop, committed, tortureRounds)
		}
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatalf("cutop=%d: snapshot: %v", cutop, err)
		}
		ndb, info, err := Recover(snap)
		if err != nil {
			t.Fatalf("cutop=%d (died=%v, committed=%d): recover: %v", cutop, died, committed, err)
		}
		if int(info.Version) != committed {
			t.Fatalf("cutop=%d: recovered version %d, want %d (died=%v, shard versions %v)",
				cutop, info.Version, committed, died, info.ShardVersions)
		}
		got := corpusOf(t, ndb)
		want := corpora[committed]
		for q := range want {
			if got[q] != want[q] {
				t.Fatalf("cutop=%d: recovered corpus diverged at version %d, query %d:\nwant %s\ngot  %s",
					cutop, committed, q, want[q], got[q])
			}
		}
	}
}

func tortureTrials(t *testing.T) int {
	if testing.Short() {
		return 12
	}
	return 100
}

func TestPowerCutTortureSingle(t *testing.T)  { runPowerCutTorture(t, 1, tortureTrials(t)) }
func TestPowerCutTortureSharded(t *testing.T) { runPowerCutTorture(t, 4, tortureTrials(t)) }

// TestTransientFaultsDifferential is the fault-plan differential gate: a
// plan of transient-only faults must change nothing except the
// simulated time the retries cost — every query and DML result stays
// bit-identical to the fault-free run, and the retry counters prove the
// plan actually fired.
func TestTransientFaultsDifferential(t *testing.T) {
	oracle := buildRecoverDB(t)
	var want [][]string
	if c, died := tortureSchedule(t, oracle, func(int) {
		want = append(want, corpusOf(t, oracle))
	}); died || c != tortureRounds {
		t.Fatalf("oracle run died=%v committed=%d", died, c)
	}

	plan, err := fault.ParsePlan("seed=7,read.transient=0.01,prog.transient=0.01,erase.transient=0.005,bus.transient=0.01")
	if err != nil {
		t.Fatal(err)
	}
	db := buildRecoverDB(t, WithFaultPlan(plan))
	var got [][]string
	if c, died := tortureSchedule(t, db, func(int) {
		got = append(got, corpusOf(t, db))
	}); died || c != tortureRounds {
		t.Fatalf("transient run died=%v committed=%d (transient faults must never kill the device)", died, c)
	}
	for v := range want {
		for q := range want[v] {
			if got[v][q] != want[v][q] {
				t.Fatalf("version %d query %d diverged under transient faults:\nwant %s\ngot  %s",
					v, q, want[v][q], got[v][q])
			}
		}
	}
	injected, retried := db.shards.engines[0].inj.Stats()
	if injected == 0 || retried == 0 {
		t.Fatalf("plan never fired: injected=%d retried=%d", injected, retried)
	}
	if err := db.FatalError(); err != nil {
		t.Fatalf("transient faults latched a fatal error: %v", err)
	}
}

// TestOneShotPermanentFault checks that a single permanent fault fails
// the operation with a typed error but leaves the device usable: the
// next query succeeds, and no fatal state is latched.
func TestOneShotPermanentFault(t *testing.T) {
	db := buildRecoverDB(t, WithFaultPlan(&fault.Plan{FailAtOp: 2}))
	_, err := db.Query(recoverQueries[1])
	if err == nil {
		t.Fatal("query over the one-shot fault succeeded")
	}
	if !IsFaultFatal(err) || IsDeviceDead(err) {
		t.Fatalf("error = %v, want a permanent (non-dead) fault", err)
	}
	if db.FatalError() != nil {
		t.Fatalf("one-shot fault latched the device dead: %v", db.FatalError())
	}
	res, err := db.Query(recoverQueries[1])
	if err != nil {
		t.Fatalf("query after one-shot fault: %v", err)
	}
	clean := buildRecoverDB(t)
	want, _ := clean.Query(recoverQueries[1])
	if fmt.Sprintf("%v", res.Rows) != fmt.Sprintf("%v", want.Rows) {
		t.Fatalf("post-fault rows diverge: %v vs %v", res.Rows, want.Rows)
	}
}

// TestDegradedReads kills one shard of four and checks the routing
// contract: root-involving queries fail fast naming the dead shard,
// while dimension-rooted queries are served from surviving replicas
// when WithDegradedReads is on — and fail fast when it is off.
func TestDegradedReads(t *testing.T) {
	kill := &fault.Plan{CutAtOp: 1}
	kill.SetShard(2)

	for _, degraded := range []bool{true, false} {
		db := buildRecoverDB(t, WithShards(4), WithFaultPlan(kill), WithDegradedReads(degraded))
		// First root query scatters to all shards and trips the cut.
		if _, err := db.Query(recoverQueries[1]); err == nil {
			t.Fatalf("degraded=%v: root query on a dying shard succeeded", degraded)
		}
		dimQ := `SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'`
		res, err := db.Query(dimQ)
		if degraded {
			if err != nil {
				t.Fatalf("degraded reads: dimension query not served from survivors: %v", err)
			}
			if len(res.Rows) != 2 {
				t.Fatalf("degraded dimension rows = %v", res.Rows)
			}
		} else if err == nil {
			t.Fatal("without degraded reads, a dimension query on a broken DB must fail fast")
		}
		// Root queries keep failing fast either way, naming the shard.
		if _, err := db.Query(recoverQueries[1]); err == nil {
			t.Fatalf("degraded=%v: root query with a dead shard succeeded", degraded)
		}
	}
}
