package core

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/sim"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// sweepLiveness is the chain-liveness memo CHECKPOINT used to sweep
// whole tables with: a dense state array per table (0 unknown, 1 live,
// 2 dead) over 0..maxID, a map beyond it, one tombstone probe charged
// per fresh evaluation. It is kept as the reference the delta-driven
// prepare is held to.
type sweepLiveness struct {
	e      *engine
	dense  [][]uint8
	sparse map[uint64]uint8
}

func newSweepLiveness(e *engine) *sweepLiveness {
	l := &sweepLiveness{e: e, sparse: map[uint64]uint8{}, dense: make([][]uint8, len(e.views))}
	for ord, tv := range e.views {
		l.dense[ord] = make([]uint8, e.maxID(tv)+1)
	}
	return l
}

func (l *sweepLiveness) live(ord int, id uint32) bool {
	key := uint64(ord)<<32 | uint64(id)
	var cell *uint8
	var state uint8
	if int(id) < len(l.dense[ord]) {
		cell = &l.dense[ord][id]
		state = *cell
	} else {
		state = l.sparse[key]
	}
	if state != 0 {
		return state == 1
	}
	l.e.dev.CPU.Charge(sim.CyclesTombstone)
	l.e.metrics.tombstoneProbes.Inc()
	state = 2
	if l.computeLive(l.e.views[ord], id) {
		state = 1
	}
	if cell != nil {
		*cell = state
	} else {
		l.sparse[key] = state
	}
	return state == 1
}

func (l *sweepLiveness) computeLive(tv *tableView, id uint32) bool {
	if id == 0 {
		return false
	}
	var img []value.Value
	if d := l.e.deltaOf(tv); d != nil {
		if d.Tombstoned(id) {
			return false
		}
		img, _ = d.Row(id)
	}
	if int(id) > tv.baseN && img == nil {
		return false
	}
	for _, ci := range tv.fks {
		cid, err := l.e.fkOf(tv, img, ci, id)
		if err != nil || !l.live(tv.cols[ci].ref, cid) {
			return false
		}
	}
	return true
}

// sweepPrepareLocked is the reference CHECKPOINT prepare: pass 1 probes
// the liveness of every identifier of every table, pass 2 rebuilds every
// surviving cell as a value.Value, row by row.
func (e *engine) sweepPrepareLocked(ctx context.Context) (*ckptPending, error) {
	if e.delta.Entries() == 0 {
		return nil, nil
	}
	p := &ckptPending{}
	if err := e.net.Send(trace.Terminal, trace.Device, trace.KindDML, len("CHECKPOINT"), "CHECKPOINT", nil); err != nil {
		e.noteDeviceErr(err)
		return nil, err
	}
	lv := newSweepLiveness(e)
	oldIDs := make([][]uint32, len(e.views))
	renumber := make([][]uint32, len(e.views))
	for ord, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		maxID := e.maxID(tv)
		ids := make([]uint32, 0, maxID)
		remap := make([]uint32, maxID+1)
		for id := uint32(1); id <= maxID; id++ {
			if lv.live(ord, id) {
				ids = append(ids, id)
				remap[id] = uint32(len(ids))
			}
		}
		oldIDs[ord], renumber[ord] = ids, remap
	}
	img := make([]tableImage, len(e.views))
	for ord, tv := range e.views {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: CHECKPOINT canceled: %w", err)
		}
		t, ids := tv.t, oldIDs[ord]
		tim := newTableImage(t, len(ids))
		for _, oldID := range ids {
			row := e.image(tv, oldID)
			for ci := range t.Columns {
				switch c := &t.Columns[ci]; {
				case c.PrimaryKey:
				case c.IsForeignKey():
					oldChild, err := e.fkOf(tv, row, ci, oldID)
					if err != nil {
						return nil, err
					}
					remap := renumber[tv.cols[ci].ref]
					if int(oldChild) >= len(remap) || remap[oldChild] == 0 {
						return nil, fmt.Errorf("core: checkpoint: %s.%s row %d dangles", t.Name, c.Name, oldID)
					}
					tim.fks[ci] = append(tim.fks[ci], remap[oldChild])
				default:
					v, err := e.valueOf(tv, row, ci, oldID)
					if err != nil {
						e.noteDeviceErr(err)
						return nil, err
					}
					tim.cols[ci].Append(v)
				}
			}
		}
		tim.n = len(ids)
		img[ord] = tim
	}
	p.survivors = oldIDs[e.sch.Root().Ordinal()]
	p.img = img
	return p, nil
}

// prepareOutcome is what one engine's prepare produced and cost.
type prepareOutcome struct {
	survivors []uint32
	img       []tableImage
	err       string
	cost      string
}

// prepareWith runs prepare on every engine of db, with the engine lock
// held, and records its product and the device's counters afterwards.
func prepareWith(db *DB, prepare func(e *engine) (*ckptPending, error)) []prepareOutcome {
	out := make([]prepareOutcome, len(db.shards.engines))
	for s, e := range db.shards.engines {
		e.mu.Lock()
		p, err := prepare(e)
		o := &out[s]
		if err != nil {
			o.err = err.Error()
		}
		if p != nil {
			o.survivors, o.img = p.survivors, p.img
		}
		fs := e.dev.Flash.Stats()
		injected, retried := e.inj.Stats()
		o.cost = fmt.Sprintf("clock=%d probes=%d flash=%+v cache=%d/%d faults=%d/%d",
			int64(e.clock.Now()), e.metrics.tombstoneProbes.Value(), fs,
			e.hid.Cache().Hits(), e.hid.Cache().Misses(), injected, retried)
		e.mu.Unlock()
	}
	return out
}

// baseFK reads the committed foreign key col of base row id of table
// (a dimension table: every engine holds the same replica).
func baseFK(db *DB, table, col string, id uint32) uint32 {
	e := db.shards.engines[0]
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.mustTable(table)
	return e.views[t.Ordinal()].cols[t.ColumnIndex(col)].fk[id-1]
}

// ckptScenario returns round r's named statements of
// TestCheckpointPrepareMatchesSweep; nextPre is the Prescription key the
// round's INSERTs continue from. Each statement must touch a row.
func ckptScenario(db *DB, r int, nextPre int) []string {
	docs, visits := db.RowCount("Doctor"), db.RowCount("Visit")
	switch r {
	case 0:
		// Visit 10 moves off its doctor, visit y onto it; then that
		// doctor goes (a cascading DELETE): visit 10 survives on its
		// image, y dies through its image, the doctor's other visits and
		// their prescriptions through the inverted edges.
		doomed := baseFK(db, "Visit", "DocID", 10)
		other := doomed%uint32(docs) + 1
		y := uint32(11)
		for baseFK(db, "Visit", "DocID", y) == doomed {
			y++
		}
		return []string{
			fmt.Sprintf(`UPDATE Visit SET DocID = %d WHERE VisID = 10`, other),
			fmt.Sprintf(`UPDATE Visit SET DocID = %d WHERE VisID = %d`, doomed, y),
			fmt.Sprintf(`DELETE FROM Doctor WHERE DocID = %d`, doomed),
			// An INSERT references a delta-inserted visit whose parent,
			// a delta-inserted doctor, is then deleted.
			fmt.Sprintf(`INSERT INTO Doctor VALUES (%d, 'Jarre', 'Urology', 75001, 'Italy')`, docs+1),
			fmt.Sprintf(`INSERT INTO Visit VALUES (%d, DATE '2007-05-05', 'Relapse', %d, 1)`, visits+1, docs+1),
			fmt.Sprintf(`INSERT INTO Prescription VALUES (%d, 4, 2, DATE '2007-05-06', 1, %d), (%d, 9, 1, DATE '2007-05-07', 2, 10)`, nextPre, visits+1, nextPre+1),
			fmt.Sprintf(`DELETE FROM Doctor WHERE DocID = %d`, docs+1),
			// A DELETE of a delta-inserted row.
			fmt.Sprintf(`DELETE FROM Prescription WHERE PreID = %d`, nextPre+1),
		}
	case 1:
		// A prescription moves onto visit 9, which then goes with its
		// base prescriptions (a cascading DELETE of a Visit row); a
		// medicine goes, and a dimension row is updated in place.
		return []string{
			fmt.Sprintf(`UPDATE Prescription SET VisID = 9 WHERE PreID = %d`, nextPre-1),
			`DELETE FROM Visit WHERE VisID = 9`,
			`DELETE FROM Medicine WHERE MedID = 2`,
			`UPDATE Patient SET Age = 33 WHERE PatID = 2`,
		}
	default:
		// Every root row dies, with every visit.
		return []string{`DELETE FROM Visit WHERE VisID > 0`}
	}
}

// randomKeyedDML returns n seeded keyed statements over Prescription and
// Patient — INSERTs continuing the key sequence, UPDATEs of hidden,
// visible and foreign-key columns, DELETEs (some of rows already gone,
// which touch none) — and the next Prescription key.
func randomKeyedDML(rng *rand.Rand, db *DB, n int) ([]string, int) {
	pres, visits, meds, pats := db.RowCount("Prescription"), db.RowCount("Visit"), db.RowCount("Medicine"), db.RowCount("Patient")
	var out []string
	next := pres + 1
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0:
			out = append(out, fmt.Sprintf("INSERT INTO Prescription VALUES (%d, %d, %d, DATE '2007-%02d-%02d', %d, %d)",
				next, 1+rng.Intn(100), 1+rng.Intn(4), 1+rng.Intn(12), 1+rng.Intn(28), 1+rng.Intn(meds), 1+rng.Intn(visits)))
			next++
		case 1:
			out = append(out, fmt.Sprintf("UPDATE Prescription SET Quantity = %d WHERE PreID = %d", 1+rng.Intn(100), 1+rng.Intn(pres)))
		case 2:
			out = append(out, fmt.Sprintf("UPDATE Prescription SET VisID = %d, Frequency = %d WHERE PreID = %d", 1+rng.Intn(visits), 1+rng.Intn(4), 1+rng.Intn(pres)))
		case 3:
			out = append(out, fmt.Sprintf("UPDATE Patient SET BodyMassIndex = %d WHERE PatID = %d", 15+rng.Intn(20), 1+rng.Intn(pats)))
		default:
			out = append(out, fmt.Sprintf("DELETE FROM Prescription WHERE PreID = %d", 1+rng.Intn(next-1)))
		}
	}
	return out, next
}

// ckptRounds is the number of rounds TestCheckpointPrepareMatchesSweep
// runs; the last one kills every root row.
const ckptRounds = 3

// TestCheckpointPrepareMatchesSweep holds the delta-driven CHECKPOINT
// prepare to the table sweep it replaced: two identical databases take
// the same seeded DML, one prepares with the sweep and the other with
// checkpointPrepareLocked, and the survivors, every image column and
// foreign-key array, the clock, the tombstone probe count, the flash
// statistics, the page cache's hits and misses and the fault injector's
// counters must all agree. Both then commit the same (real) CHECKPOINT
// and go on to the next round. A plan of transient read faults fires
// during the prepares. Shards 1 and 4, sim and file backends, the
// default page cache and a one-frame one; -short runs fewer seeded
// statements a round.
func TestCheckpointPrepareMatchesSweep(t *testing.T) {
	for _, backend := range []string{"sim", "file"} {
		for _, shards := range []int{1, 4} {
			for _, frames := range []int{device.SmartUSB2007().CacheFrames, 1} {
				t.Run(fmt.Sprintf("%s/shards=%d/frames=%d", backend, shards, frames), func(t *testing.T) {
					testPrepareMatchesSweep(t, backend, shards, frames)
				})
			}
		}
	}
}

// testPrepareMatchesSweep is one configuration of
// TestCheckpointPrepareMatchesSweep. With one page-cache frame every
// switch between two hidden columns' pages is a miss, so the hit and
// miss counts pin the order of the hidden reads, not only their number.
func testPrepareMatchesSweep(t *testing.T, backend string, shards, frames int) {
	open := func() *DB {
		plan, err := fault.ParsePlan("seed=11,read.transient=0.05")
		if err != nil {
			t.Fatal(err)
		}
		prof := device.SmartUSB2007()
		prof.CacheFrames = frames
		opts := []Option{WithShards(shards), WithFaultPlan(plan), WithProfile(prof)}
		if backend == "file" {
			opts = append(opts, WithBackend(storage.File(filepath.Join(t.TempDir(), "dev"), false)))
		}
		return loadScale(t, 5_000, opts...)
	}
	ref, got := open(), open()
	defer ref.Close()
	defer got.Close()
	rng := rand.New(rand.NewSource(int64(7 + shards)))
	random := 40 // seeded statements a round, before its named ones
	if testing.Short() {
		random = 10
	}
	faultsSeen := false
	for round := 0; round < ckptRounds; round++ {
		stmts, next := randomKeyedDML(rng, got, random)
		named := ckptScenario(got, round, next)
		for i, stmt := range append(stmts, named...) {
			n1, err1 := ref.Exec(stmt)
			n2, err2 := got.Exec(stmt)
			if n1 != n2 || fmt.Sprint(err1) != fmt.Sprint(err2) {
				t.Fatalf("round %d: %s: %d %v against %d %v", round, stmt, n1, err1, n2, err2)
			}
			if i >= len(stmts) && (err2 != nil || n2 == 0) {
				t.Fatalf("round %d: %s touched no row (err=%v)", round, stmt, err2)
			}
		}
		before := prepareWith(got, func(*engine) (*ckptPending, error) { return nil, nil })
		want := prepareWith(ref, func(e *engine) (*ckptPending, error) { return e.sweepPrepareLocked(context.Background()) })
		have := prepareWith(got, func(e *engine) (*ckptPending, error) { return e.checkpointPrepareLocked(context.Background()) })
		for s := range want {
			w, h := &want[s], &have[s]
			if w.err != "" || h.err != "" {
				t.Fatalf("round %d shard %d: err %q, sweep %q", round, s, h.err, w.err)
			}
			if w.cost != h.cost {
				t.Fatalf("round %d shard %d: device after prepare\n got %s\nwant %s", round, s, h.cost, w.cost)
			}
			if !slices.Equal(w.survivors, h.survivors) || w.survivors == nil || h.survivors == nil {
				t.Fatalf("round %d shard %d: %d survivors, sweep %d", round, s, len(h.survivors), len(w.survivors))
			}
			if err := sameImage(got.sch, w.img, h.img); err != nil {
				t.Fatalf("round %d shard %d: image differs from the sweep's: %v", round, s, err)
			}
			if faults := func(cost string) string { return cost[strings.Index(cost, "faults="):] }; faults(before[s].cost) != faults(h.cost) {
				faultsSeen = true
			}
			if root := got.sch.Root().Ordinal(); round == ckptRounds-1 && h.img[root].n != 0 {
				t.Fatalf("shard %d: the last round leaves %d root rows, want none", s, h.img[root].n)
			}
		}
		for _, db := range []*DB{ref, got} {
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("round %d: CHECKPOINT: %v", round, err)
			}
		}
	}
	if !faultsSeen {
		t.Fatal("no transient read fault fired during a prepare")
	}
}
