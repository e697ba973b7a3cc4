package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/value"
)

const (
	writeScale   = 20_000
	roundDML     = 90 // 45 INSERT, 23 UPDATE, 22 DELETE: well inside the 64 KB delta budget
	dirtyEvery   = 9  // a query over the dirty delta after every ninth statement
	warmupRounds = 2  // fixed rounds of the warm-up: the exact simulated and flash figures come from them
	tailDML      = 20 // statements left uncheckpointed before the close, which the reopen must lose

	qTable = `SELECT Pre.PreID, Pre.Quantity, Pre.Frequency, Pre.WhenWritten, Pre.MedID, Pre.VisID FROM Prescription Pre`
)

// dirtyQueries run over the non-empty delta, in rotation.
var dirtyQueries = []struct{ name, sql string }{
	{"agg_count", qAggCount}, {"rows_wide", qRowsWide}, {"demo", qDemo},
}

// shadow is the benchmark's own image of the Prescription table under
// keyed DML. The oracle takes 19 ms per keyed statement at this scale —
// a hundred times the engine — so it cannot follow the measured phase;
// it checks the first round in lockstep (engine = oracle = shadow) and
// the shadow, which costs nothing, carries the expectation from there.
// Prescription is the schema root, so a delete cascades nowhere.
type shadow struct {
	rows [][]value.Value // PreID, Quantity, Frequency, WhenWritten, MedID, VisID; row i has PreID i+1
	dead []bool
	live int

	demoVisit []bool // by VisID: the demo query's two Visit predicates hold
	demoMed   []bool // by MedID: the demo query's Medicine predicate holds
}

func newShadow(ds *datagen.Dataset) *shadow {
	pre, vis, med := ds.Table("Prescription"), ds.Table("Visit"), ds.Table("Medicine")
	s := &shadow{dead: make([]bool, pre.N), live: pre.N,
		demoVisit: make([]bool, vis.N+1), demoMed: make([]bool, med.N+1)}
	for i := 0; i < pre.N; i++ {
		row := make([]value.Value, len(pre.Cols))
		for c := range pre.Cols {
			row[c] = pre.Cols[c][i]
		}
		s.rows = append(s.rows, row)
	}
	cutoff := datagen.PaperDateLiteral().DateDays()
	for i := 0; i < vis.N; i++ {
		s.demoVisit[i+1] = vis.Col("Date")[i].DateDays() > cutoff && vis.Col("Purpose")[i].Str() == datagen.DemoPurpose
	}
	for i := 0; i < med.N; i++ {
		s.demoMed[i+1] = med.Col("Type")[i].Str() == datagen.DemoMedType
	}
	return s
}

func (s *shadow) insert(row []value.Value) {
	s.rows, s.dead, s.live = append(s.rows, row), append(s.dead, false), s.live+1
}

func (s *shadow) update(k int, qty value.Value) { s.rows[k-1][1] = qty }

func (s *shadow) delete(k int) { s.dead[k-1], s.live = true, s.live-1 }

// checkpoint drops the dead rows and renumbers the survivors densely,
// as the engine's flash merge does.
func (s *shadow) checkpoint() {
	kept := s.rows[:0]
	for i, row := range s.rows {
		if !s.dead[i] {
			row[0] = value.NewInt(int64(len(kept) + 1))
			kept = append(kept, row)
		}
	}
	s.rows, s.dead = kept, make([]bool, len(kept))
}

// table returns the live rows in key order.
func (s *shadow) table() [][]value.Value {
	out := make([][]value.Value, 0, s.live)
	for i, row := range s.rows {
		if !s.dead[i] {
			out = append(out, row)
		}
	}
	return out
}

// expect is what a dirty query must return: the COUNT(*) value for
// agg_count, the number of rows for the other two.
func (s *shadow) expect(query string) int64 {
	var n int64
	for i, row := range s.rows {
		if s.dead[i] {
			continue
		}
		var hit bool
		switch query {
		case "agg_count":
			hit = row[1].Int() > 2
		case "rows_wide":
			hit = row[1].Int() < 10
		case "demo":
			hit = s.demoMed[row[4].Int()] && s.demoVisit[row[5].Int()]
		}
		if hit {
			n++
		}
	}
	return n
}

// dml is one generated statement with what it does to the shadow.
type dml struct {
	kind string // insert | update | delete
	sql  string
	key  int
	row  []value.Value // insert: the new row; update: {new quantity}
}

// writeCkpt is writes beside reads on one executor, on the real-file
// backend with fsync on: rounds of keyed DML with queries over the dirty
// delta, each round closed by a CHECKPOINT; then a close with work left
// in the delta and a reopen from disk.
type writeCkpt struct {
	cfg config
	t   *tally
	ds  *datagen.Dataset
	dir string

	db       *core.DB
	sess     *core.Session
	sh       *shadow
	rng      *rand.Rand
	round    int
	lockstep bool // the oracle has not yet checked a round in this run
	l        *layers

	tmplSim     map[string]time.Duration
	pagesPerRow float64

	// What the rounds of the measured phase cost, for the traced run.
	dirtyMs, cleanMs    []float64 // dirty queries, and the same templates right after a checkpoint
	reopenMs            []float64
	roundWall           time.Duration
	dmlSim              time.Duration
	dmlCount, tracedDML int64
	deltaBytes          int64
	deltaRows           int
	ckpt                ckptCosts
	dirBytes, metaBytes int64
	recovered           bool
	media               metrics
}

// ckptCosts collects one value per CHECKPOINT of each thing it costs.
type ckptCosts struct {
	wallMs, simMs, pages, erases, bytes, syscall, absorbed []float64
}

func newWriteCkpt(cfg config, t *tally) (*writeCkpt, error) {
	if cfg.scale == 0 {
		cfg.scale = writeScale
	}
	return &writeCkpt{cfg: cfg, t: t, ds: genDataset(cfg.scale, cfg.seed), lockstep: true,
		dir: filepath.Join(cfg.tmpDir, "write_ckpt-"+strconv.Itoa(os.Getpid()))}, nil
}

func (w *writeCkpt) tailPercentile() float64 { return 99 }

func (w *writeCkpt) simByTemplate() map[string]time.Duration { return w.tmplSim }

func (w *writeCkpt) setup() error {
	if err := os.MkdirAll(w.cfg.tmpDir, 0o755); err != nil {
		return err
	}
	// Open with a file backend creates the device, wiping what the
	// previous repetition left in the directory.
	db, err := buildDB(w.ds, core.WithBackend(storage.File(w.dir, true)))
	if err != nil {
		return err
	}
	w.db = db
	w.sess, err = db.NewSession()
	// Every repetition replays the same statements from the same state.
	w.sh, w.rng, w.round, w.l = newShadow(w.ds), rand.New(rand.NewSource(w.cfg.seed)), 0, newLayers()
	return err
}

// generate draws n statements against the current shadow state. Update
// and delete keys are distinct live base rows, so each statement affects
// exactly one row and a round's checkpoint absorbs exactly n entries.
func (w *writeCkpt) generate(n int) []dml {
	base, next := len(w.sh.rows), len(w.sh.rows)+1
	used := map[int]bool{}
	key := func() int {
		for {
			if k := 1 + w.rng.Intn(base); !used[k] && !w.sh.dead[k-1] {
				used[k] = true
				return k
			}
		}
	}
	meds, visits := w.ds.Table("Medicine").N, w.ds.Table("Visit").N
	out := make([]dml, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%2 == 0:
			row := []value.Value{value.NewInt(int64(next)), value.NewInt(int64(1 + w.rng.Intn(100))),
				value.NewInt(int64(1 + w.rng.Intn(4))), value.NewDate(2007, 1+w.rng.Intn(12), 1+w.rng.Intn(28)),
				value.NewInt(int64(1 + w.rng.Intn(meds))), value.NewInt(int64(1 + w.rng.Intn(visits)))}
			lits := make([]string, len(row))
			for c, v := range row {
				lits[c] = v.SQL()
			}
			out = append(out, dml{kind: "insert", key: next, row: row,
				sql: "INSERT INTO Prescription VALUES (" + strings.Join(lits, ", ") + ")"})
			next++
		case i%4 == 1:
			k, qty := key(), value.NewInt(int64(1+w.rng.Intn(100)))
			out = append(out, dml{kind: "update", key: k, row: []value.Value{qty},
				sql: fmt.Sprintf("UPDATE Prescription SET Quantity = %d WHERE PreID = %d", qty.Int(), k)})
		default:
			k := key()
			out = append(out, dml{kind: "delete", key: k, sql: fmt.Sprintf("DELETE FROM Prescription WHERE PreID = %d", k)})
		}
	}
	return out
}

func (w *writeCkpt) apply(d *dml) {
	switch d.kind {
	case "insert":
		w.sh.insert(d.row)
	case "update":
		w.sh.update(d.key, d.row[0])
	case "delete":
		w.sh.delete(d.key)
	}
}

// runRound executes one round — roundDML statements, a dirty query after
// every dirtyEvery-th, then CHECKPOINT — and returns each statement's
// wall time in milliseconds. orc, when set, follows in lockstep and
// every result is compared to it in full; full also compares the whole
// table to the shadow after the checkpoint.
func (w *writeCkpt) runRound(tr *tracer, orc *oracle.Oracle, full bool) []float64 {
	stmts := w.generate(roundDML)
	var request, root int64
	if tr != nil {
		request, root = tr.newID(), tr.newID()
	}
	samples := make([]float64, 0, len(stmts))
	roundStart := time.Now()
	for i := range stmts {
		d := &stmts[i]
		sim0, start := w.db.Clock().Now(), time.Now()
		n, err := w.sess.Exec(d.sql)
		end := time.Now()
		w.dmlSim += w.db.Clock().Now() - sim0
		w.dmlCount++
		samples = append(samples, ms(end.Sub(start)))
		if tr != nil {
			w.tracedDML++
			tr.record(tr.newID(), root, request, "dml."+d.kind, start, end)
		}
		// A refused statement (say, ram: budget exceeded) is a failed op;
		// the shadow skips it too, so later expectations still hold.
		if !w.t.check(err == nil, "write_ckpt: %s: %v", d.sql, err) {
			continue
		}
		w.t.check(n == 1, "write_ckpt: %s affected %d rows, want 1", d.sql, n)
		w.apply(d)
		if orc != nil {
			on, oerr := orc.Exec(d.sql)
			w.t.check(oerr == nil && on == n, "write_ckpt: oracle: %s affected %d rows (%v), engine %d", d.sql, on, oerr, n)
		}
		if i%dirtyEvery == dirtyEvery-1 {
			w.dirtyQuery(tr, root, request, orc, (w.round*roundDML+i)/dirtyEvery%len(dirtyQueries), &w.dirtyMs)
		}
	}
	sum := w.db.DeltaSummary()
	w.deltaBytes, w.deltaRows = max(w.deltaBytes, sum.DeviceBytes), max(w.deltaRows, sum.Rows+sum.Tombstones)
	w.checkpoint(tr, root, request, len(stmts))
	if orc != nil {
		_, oerr := orc.Checkpoint()
		w.t.check(oerr == nil, "write_ckpt: oracle checkpoint: %v", oerr)
	}
	roundEnd := time.Now()
	w.roundWall += roundEnd.Sub(roundStart)
	if tr != nil {
		tr.record(root, 0, request, "round", roundStart, roundEnd)
		// The same templates over the now-empty delta: the base of
		// delta.dirty_over_clean. Outside the round's span and wall.
		for q := range dirtyQueries {
			w.dirtyQuery(nil, 0, 0, nil, q, &w.cleanMs)
		}
	}
	if full {
		w.checkTable(w.db, orc, "after checkpoint")
	}
	w.round++
	return samples
}

// dirtyQuery runs one of the rotation's queries and checks it against
// the shadow (and, in lockstep, row for row against the oracle).
func (w *writeCkpt) dirtyQuery(tr *tracer, root, request int64, orc *oracle.Oracle, q int, into *[]float64) {
	dq := dirtyQueries[q]
	var res *core.Result
	var err error
	start := time.Now()
	if tr != nil {
		id := tr.newID()
		res, _, err = tracedQuery(tr, w.l, w.sess, id, request, dq.sql, nil)
		tr.record(id, root, request, "dirty.query", start, time.Now())
	} else {
		res, err = w.sess.Query(dq.sql)
	}
	*into = append(*into, ms(time.Since(start)))
	if !w.t.check(err == nil, "write_ckpt: %s: %v", dq.name, err) {
		return
	}
	got, want := int64(len(res.Rows)), w.sh.expect(dq.name)
	if dq.name == "agg_count" && len(res.Rows) == 1 {
		got = res.Rows[0][0].Int()
	}
	w.t.check(got == want, "write_ckpt: %s over the delta: %d, the shadow says %d", dq.name, got, want)
	if orc != nil {
		_, rows, oerr := orc.Query(dq.sql)
		w.t.check(oerr == nil && digestRows(rows) == digestRows(res.Rows),
			"write_ckpt: %s over the delta differs from the oracle (%d rows vs %d, %v)", dq.name, len(res.Rows), len(rows), oerr)
	}
}

// checkpoint runs CHECKPOINT, timing the foreground stall and reading
// what it cost the device and the file system.
func (w *writeCkpt) checkpoint(tr *tracer, root, request int64, want int) {
	flash0, sim0, io0 := w.db.Device().Flash.Stats(), w.db.Clock().Now(), procWriteBytes()
	start := time.Now()
	n, err := w.sess.Checkpoint()
	end := time.Now()
	if tr != nil {
		tr.record(tr.newID(), root, request, "ckpt", start, end)
	}
	flash, c := w.db.Device().Flash.Stats().Sub(flash0), &w.ckpt
	c.wallMs = append(c.wallMs, ms(end.Sub(start)))
	c.simMs = append(c.simMs, ms(w.db.Clock().Now()-sim0))
	c.pages = append(c.pages, float64(flash.PagesProgrammed))
	c.erases = append(c.erases, float64(flash.BlockErases))
	c.bytes = append(c.bytes, float64(flash.BytesProgrammed))
	c.syscall = append(c.syscall, float64(procWriteBytes()-io0))
	c.absorbed = append(c.absorbed, float64(n))
	if w.t.check(err == nil, "write_ckpt: CHECKPOINT: %v", err) {
		w.t.check(int(n) == want, "write_ckpt: CHECKPOINT absorbed %d entries, want %d", n, want)
		w.sh.checkpoint()
		w.t.check(w.db.RowCount("Prescription") == w.sh.live, "write_ckpt: %d rows after CHECKPOINT, the shadow has %d",
			w.db.RowCount("Prescription"), w.sh.live)
	}
}

// checkTable compares the whole Prescription table to the shadow (and to
// the oracle when it is following).
func (w *writeCkpt) checkTable(db *core.DB, orc *oracle.Oracle, when string) bool {
	res, err := db.Query(qTable)
	if !w.t.check(err == nil, "write_ckpt: reading the table %s: %v", when, err) {
		return false
	}
	got := digestRows(res.Rows)
	ok := w.t.check(got == digestRows(w.sh.table()), "write_ckpt: table %s differs from the shadow (%d rows vs %d)", when, len(res.Rows), w.sh.live)
	if orc != nil {
		_, rows, oerr := orc.Query(qTable)
		ok = w.t.check(oerr == nil && digestRows(rows) == got, "write_ckpt: table %s differs from the oracle (%d rows vs %d, %v)", when, len(res.Rows), len(rows), oerr) && ok
	}
	return ok
}

func (w *writeCkpt) warmup() (float64, error) {
	var orc *oracle.Oracle
	if w.lockstep {
		var err error
		if orc, err = newOracle(w.db, w.ds); err != nil {
			return 0, err
		}
		w.lockstep = false
	}
	flash0, sim0, dml0 := w.db.Device().Flash.Stats(), w.db.Clock().Now(), w.dmlSim
	for r := 0; r < warmupRounds; r++ {
		w.runRound(nil, orc, true)
		orc = nil // one lockstep round proves engine = oracle = shadow
	}
	total := w.db.Clock().Now() - sim0
	dmlSim := w.dmlSim - dml0
	w.tmplSim = map[string]time.Duration{"dml": dmlSim, "queries_and_ckpt": total - dmlSim}
	acked := float64(warmupRounds * roundDML)
	w.pagesPerRow = float64(w.db.Device().Flash.Stats().Sub(flash0).PagesProgrammed) / acked
	// The warm-up's timings are not measurements.
	w.dirtyMs, w.cleanMs, w.roundWall, w.ckpt = nil, nil, 0, ckptCosts{}
	return ms(total) / acked, nil
}

// A DML statement is the op, a round the unit.
func (w *writeCkpt) opsPerUnit() int { return roundDML }

func (w *writeCkpt) measure(d time.Duration, tr *tracer) (opMs, unitMs []float64) {
	deadline := time.Now().Add(d)
	for len(unitMs) == 0 || time.Now().Before(deadline) {
		start := time.Now()
		opMs = append(opMs, w.runRound(tr, nil, false)...)
		unitMs = append(unitMs, ms(time.Since(start)))
	}
	return opMs, unitMs
}

// finish leaves tailDML statements in the delta, closes without a
// checkpoint, reopens from disk and checks the database is exactly the
// one the last CHECKPOINT committed.
func (w *writeCkpt) finish(tr *tracer) error {
	w.dirBytes, w.metaBytes = dirSize(w.dir)
	for _, d := range w.generate(tailDML) {
		_, err := w.sess.Exec(d.sql)
		w.t.check(err == nil, "write_ckpt: %s: %v", d.sql, err)
	}
	err := w.sess.Close()
	if cerr := w.db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	start := time.Now()
	db, info, err := core.OpenPath(w.dir)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	w.reopenMs = append(w.reopenMs, ms(time.Since(start)))
	next, nerr := db.NextID("Prescription")
	gone := w.t.check(nerr == nil && int(next) == w.sh.live+1 && !info.RolledBack,
		"write_ckpt: reopened database continues at key %d (rolled back: %v, %v), want %d", next, info.RolledBack, nerr, w.sh.live+1)
	w.recovered = w.checkTable(db, nil, "after reopen") && gone
	err = db.Close()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	if tr != nil && err == nil {
		w.media, err = fileMedia(filepath.Join(w.cfg.tmpDir, "media-"+strconv.Itoa(os.Getpid())))
	}
	w.db, w.sess = nil, nil
	return err
}

// dirSize sums the device directory's file sizes, and the sidecar's alone.
func dirSize(dir string) (total, meta int64) {
	// A directory that cannot be walked reads as empty; the metric then
	// says so, which is the right report for a benchmark.
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
			if d.Name() == "meta.json" {
				meta += info.Size()
			}
		}
		return nil
	})
	return total, meta
}

// procWriteBytes reads wchar from /proc/self/io: the bytes this process
// has passed to write-like system calls. Zero where /proc is missing.
func procWriteBytes() int64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "wchar: "); ok {
			n, _ := strconv.ParseInt(rest, 10, 64)
			return n
		}
	}
	return 0
}

func (w *writeCkpt) layerMetrics(tr *tracer, m metrics) {
	w.l.emit(m, float64(w.tracedDML))
	lt := groupSpans(tr.spans)
	m["dml.insert_p50_us"] = p50us(lt.dur["dml.insert"])
	m["dml.update_p50_us"] = p50us(lt.dur["dml.update"])
	m["dml.delete_p50_us"] = p50us(lt.dur["dml.delete"])
	m["dml.sim_ms_per_stmt"] = ms(w.dmlSim) / float64(w.dmlCount)
	m["delta.device_bytes_peak"] = float64(w.deltaBytes)
	m["delta.rows_peak"] = float64(w.deltaRows)
	if clean := median(w.cleanMs); clean > 0 {
		m["delta.dirty_over_clean"] = median(w.dirtyMs) / clean
	}
	lt.emitQueryStages(m)
	m["ckpt.sim_ms"] = median(w.ckpt.simMs)
	m["ckpt.pages_programmed"] = median(w.ckpt.pages)
	m["ckpt.block_erases"] = median(w.ckpt.erases)
	m["ckpt.bytes_programmed"] = median(w.ckpt.bytes)
	m["ckpt.syscall_write_bytes"] = median(w.ckpt.syscall)
	m["ckpt.rows_absorbed"] = median(w.ckpt.absorbed)
	m["ckpt.stall_share"] = sum(w.ckpt.wallMs) / ms(w.roundWall)
	m["sidecar.meta_bytes"] = float64(w.metaBytes)
	m["filedev.dir_bytes"] = float64(w.dirBytes)
	if w.recovered {
		m["recover.rolled_back_ok"] = 1
	}
	m["dirty_query_p50_ms"] = median(w.dirtyMs)
	m["ckpt_p50_ms"] = median(w.ckpt.wallMs)
	m["reopen_ms"] = median(w.reopenMs)
	m["flash_pages_per_row"] = w.pagesPerRow
	m["disk_bytes_per_row"] = float64(w.dirBytes) / float64(w.sh.live)
	for name, v := range w.media {
		m[name] = v
	}
}
