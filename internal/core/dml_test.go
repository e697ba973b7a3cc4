package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/plan"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// TestInsertDenseKeyRowNumber is the regression test for the dense-PK
// violation message: a failing row in a multi-row INSERT must be
// reported with its own 1-based row index, not the expected key.
func TestInsertDenseKeyRowNumber(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE T (ID INTEGER PRIMARY KEY, X INTEGER)`); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`INSERT INTO T VALUES (1, 10), (2, 20), (7, 30)`)
	if err == nil {
		t.Fatal("non-dense third row accepted")
	}
	if !strings.Contains(err.Error(), "row 3 needs key 3") {
		t.Fatalf("error = %q, want it to report row 3 needing key 3", err)
	}
	// A staged statement applies whole or not at all, as a live one does.
	if id, err := db.NextID("T"); err != nil || id != 1 {
		t.Fatalf("after the failed statement NextID = %d, %v; want 1", id, err)
	}
	if _, err := db.Exec(`INSERT INTO T VALUES (1, 10), (2, 20)`); err != nil {
		t.Fatal(err)
	}

	// Same contract on the live (post-build) insert path.
	if err := db.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	_, err = db.Exec(`INSERT INTO T VALUES (3, 1), (4, 2), (9, 3)`)
	if err == nil {
		t.Fatal("non-dense live insert accepted")
	}
	if !strings.Contains(err.Error(), "row 3 needs key 5") {
		t.Fatalf("live-path error = %q, want it to report row 3 needing key 5", err)
	}
}

// TestLiveDMLBasic walks the whole live-DML lifecycle on a small
// hand-written database: post-build INSERT, UPDATE, DELETE with virtual
// cascade, CHECKPOINT compaction with dense renumbering.
func TestLiveDMLBasic(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	script := `
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`
	if err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}

	// Live INSERT: immediately visible.
	n, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-03-03', 'Sclerosis', 2)`)
	if err != nil || n != 1 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	res, err := db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("after insert rows = %v", res.Rows)
	}

	// UPDATE a hidden column: the base index answers stale, the delta
	// merge must correct it.
	n, err = db.Exec(`UPDATE Visit SET Purpose = 'Flu' WHERE VisID = 2`)
	if err != nil || n != 1 {
		t.Fatalf("update: n=%d err=%v", n, err)
	}
	res, err = db.Query(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 3 || res.Rows[1][0].Int() != 4 {
		t.Fatalf("after update rows = %v", res.Rows)
	}

	// DELETE a doctor: visits referencing it die virtually (cascade).
	n, err = db.Exec(`DELETE FROM Doctor WHERE Country = 'Spain'`)
	if err != nil || n != 1 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	res, err = db.Query(`SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Date > 2005-01-01`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // visits 2 and 4 referenced doctor 2
		t.Fatalf("after cascade rows = %v", res.Rows)
	}

	// RowsAffected counts live rows only: doctor 2 is already dead.
	n, err = db.Exec(`DELETE FROM Doctor WHERE Country = 'Spain'`)
	if err != nil || n != 0 {
		t.Fatalf("re-delete: n=%d err=%v", n, err)
	}

	// CHECKPOINT: merge to flash, renumber densely.
	clockBefore := db.Clock().Now()
	absorbed, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if absorbed == 0 {
		t.Fatal("checkpoint absorbed nothing")
	}
	if db.Clock().Now() <= clockBefore {
		t.Fatal("checkpoint charged no simulated time (erase/program must be paid)")
	}
	if db.RowCount("Visit") != 2 || db.RowCount("Doctor") != 1 {
		t.Fatalf("post-checkpoint counts: visit=%d doctor=%d", db.RowCount("Visit"), db.RowCount("Doctor"))
	}
	res, err = db.Query(`SELECT Vis.VisID, Vis.Purpose, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("post-checkpoint rows = %v", res.Rows)
	}
	// Survivors renumbered 1..N in old-ID order: old visits 1 and 3.
	if res.Rows[0][0].Int() != 1 || res.Rows[1][0].Int() != 2 {
		t.Fatalf("post-checkpoint renumbering: %v", res.Rows)
	}
	if res.Rows[0][1].Str() != "Checkup" || res.Rows[1][1].Str() != "Sclerosis" {
		t.Fatalf("post-checkpoint values: %v", res.Rows)
	}

	// The delta is empty again and its RAM grant fully released.
	if got := db.DeltaStats(); len(got) != 0 {
		t.Fatalf("delta stats after checkpoint: %+v", got)
	}
	for _, u := range db.Device().RAM.Snapshot() {
		if strings.HasPrefix(u.Label, "delta:") {
			t.Fatalf("delta RAM grant leaked after checkpoint: %+v", u)
		}
	}

	// Identifiers continue densely from the compacted state.
	if _, err := db.Exec(`INSERT INTO Visit VALUES (3, DATE '2007-05-05', 'Checkup', 1)`); err != nil {
		t.Fatalf("post-checkpoint insert: %v", err)
	}
}

// TestLimitZeroEndToEnd checks the standard zero-row probe across plain,
// aggregate and ordered queries, against the oracle.
func TestLimitZeroEndToEnd(t *testing.T) {
	db, orc, _ := loadTiny(t)
	queries := []string{
		`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity > 20 LIMIT 0`,
		`SELECT Pre.PreID FROM Prescription Pre LIMIT 0`,
		`SELECT COUNT(*) FROM Visit Vis WHERE Vis.Date > 2005-06-01 LIMIT 0`,
		`SELECT Pat.Country, COUNT(*) FROM Patient Pat GROUP BY Pat.Country ORDER BY COUNT(*) DESC LIMIT 0`,
		`SELECT DISTINCT Med.Type FROM Medicine Med LIMIT 0`,
	}
	for _, sqlText := range queries {
		res := checkAgainstOracle(t, db, orc, sqlText)
		if len(res.Rows) != 0 {
			t.Fatalf("%s returned %d rows", sqlText, len(res.Rows))
		}
	}
	// All plans agree on the probe.
	q, err := db.Prepare(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range db.Plans(q) {
		r, err := db.QueryWithPlan(q, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label, err)
		}
		if len(r.Rows) != 0 {
			t.Fatalf("plan %s returned rows under LIMIT 0", spec.Label)
		}
	}
}

// TestExplainShowsDelta checks that EXPLAIN surfaces the delta and
// tombstone cardinalities once DML happened.
func TestExplainShowsDelta(t *testing.T) {
	db, _, _ := loadTiny(t)
	if n, err := db.Exec(`DELETE FROM Prescription WHERE Quantity > 50`); err != nil || n == 0 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	q, err := db.Prepare(`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity > 10`)
	if err != nil {
		t.Fatal(err)
	}
	text := db.Explain(q, db.Plans(q)[0])
	if !strings.Contains(text, "delta:") || !strings.Contains(text, "tombstones") {
		t.Fatalf("Explain missing delta cardinalities:\n%s", text)
	}
	if !strings.Contains(text, "delta merge:") {
		t.Fatalf("Explain missing delta merge footprint:\n%s", text)
	}
}

// dmlGen extends the query generator with randomized INSERT / UPDATE /
// DELETE / CHECKPOINT statements that are valid against the current
// oracle state (the oracle is the source of truth for live IDs and the
// next dense key; the engine must agree or the differential fails).
type dmlGen struct {
	*queryGen
	sch *schema.Schema
	orc *oracle.Oracle
}

// tableCols returns the generator's predicate columns for one table.
func (g *dmlGen) tableCols(table string) []genCol {
	var out []genCol
	for _, c := range g.cols() {
		if c.table == table {
			out = append(out, c)
		}
	}
	return out
}

var dmlTables = []string{"Doctor", "Patient", "Medicine", "Visit", "Prescription"}

// nextDML produces one random mutation statement, or "" when the drawn
// shape is impossible in the current state (caller retries).
func (g *dmlGen) nextDML() string {
	table := dmlTables[g.rng.Intn(len(dmlTables))]
	switch g.rng.Intn(4) {
	case 0:
		return g.genInsert(table)
	case 1:
		return g.genDelete(table)
	default:
		return g.genUpdate(table)
	}
}

func (g *dmlGen) genInsert(table string) string {
	t, _ := g.sch.Table(table)
	id := g.orc.NextID(table)
	nRows := 1 + g.rng.Intn(2)
	var rows []string
	for r := 0; r < nRows; r++ {
		var vals []string
		for _, c := range t.Columns {
			switch {
			case c.PrimaryKey:
				vals = append(vals, fmt.Sprint(id+uint32(r)))
			case c.IsForeignKey():
				live := g.orc.LiveIDs(c.RefTable)
				if len(live) == 0 {
					return ""
				}
				vals = append(vals, fmt.Sprint(live[g.rng.Intn(len(live))]))
			default:
				vals = append(vals, g.sample(table, c.Name).SQL())
			}
		}
		rows = append(rows, "("+join(vals, ", ")+")")
	}
	return "INSERT INTO " + table + " VALUES " + join(rows, ", ")
}

func (g *dmlGen) genDelete(table string) string {
	cols := g.tableCols(table)
	preds := g.wherePreds([]genCol{cols[g.rng.Intn(len(cols))]})
	return "DELETE FROM " + table + " WHERE " + join(preds, " AND ")
}

func (g *dmlGen) genUpdate(table string) string {
	t, _ := g.sch.Table(table)
	cols := g.tableCols(table)
	// 1-2 assignments over non-PK columns: dataset-pool literals, or a
	// live foreign-key retarget.
	var sets []string
	seen := map[string]bool{}
	for len(sets) < 1+g.rng.Intn(2) {
		var c *schema.Column
		nonPK := make([]*schema.Column, 0, len(t.Columns))
		for i := range t.Columns {
			if !t.Columns[i].PrimaryKey {
				nonPK = append(nonPK, &t.Columns[i])
			}
		}
		c = nonPK[g.rng.Intn(len(nonPK))]
		if seen[c.Name] {
			continue
		}
		seen[c.Name] = true
		if c.IsForeignKey() {
			live := g.orc.LiveIDs(c.RefTable)
			if len(live) == 0 {
				return ""
			}
			sets = append(sets, fmt.Sprintf("%s = %d", c.Name, live[g.rng.Intn(len(live))]))
		} else {
			sets = append(sets, fmt.Sprintf("%s = %s", c.Name, g.sample(table, c.Name).SQL()))
		}
	}
	preds := g.wherePreds([]genCol{cols[g.rng.Intn(len(cols))]})
	return "UPDATE " + table + " SET " + join(sets, ", ") + " WHERE " + join(preds, " AND ")
}

// TestPropertyDMLOracleDifferential is the live-DML differential
// property: >=500 randomized interleavings of INSERT / UPDATE / DELETE /
// CHECKPOINT with plain and post-operator (aggregate / ORDER BY /
// DISTINCT) queries, every query checked exactly against the mutable
// oracle and every mutation's RowsAffected compared. Runs under -race in
// CI.
func TestPropertyDMLOracleDifferential(t *testing.T) {
	db, orc, ds := loadTiny(t, WithCapture(trace.CaptureFull))
	g := &dmlGen{
		queryGen: &queryGen{rng: rand.New(rand.NewSource(47)), ds: ds},
		sch:      db.Schema(),
		orc:      orc,
	}

	iterations := 520
	if testing.Short() {
		iterations = 80
	}
	queries, mutations, affectedTotal := 0, 0, int64(0)
	for i := 0; i < iterations; i++ {
		switch roll := g.rng.Intn(10); {
		case roll < 4: // plain SPJ query
			sqlText := g.next()
			checkAgainstOracle(t, db, orc, sqlText)
			queries++
		case roll < 6: // post-operator query (aggregates, ORDER BY, DISTINCT)
			sqlText := g.nextPostOp()
			checkAgainstOracle(t, db, orc, sqlText)
			queries++
		case roll == 9 && i%37 == 0: // occasional checkpoint
			en, eerr := db.Exec("CHECKPOINT")
			on, oerr := orc.Exec("CHECKPOINT")
			if eerr != nil || oerr != nil {
				t.Fatalf("iter %d checkpoint: engine %v, oracle %v", i, eerr, oerr)
			}
			if en != on {
				t.Fatalf("iter %d checkpoint absorbed %d, oracle %d", i, en, on)
			}
		default: // mutation
			stmt := g.nextDML()
			if stmt == "" {
				continue
			}
			en, eerr := db.Exec(stmt)
			on, oerr := orc.Exec(stmt)
			if (eerr == nil) != (oerr == nil) {
				t.Fatalf("iter %d %q: engine err %v, oracle err %v", i, stmt, eerr, oerr)
			}
			if eerr != nil {
				t.Fatalf("iter %d %q: %v", i, stmt, eerr)
			}
			if en != on {
				t.Fatalf("iter %d %q: engine affected %d, oracle %d", i, stmt, en, on)
			}
			mutations++
			affectedTotal += en
		}
	}
	if queries < iterations/5 || mutations < iterations/5 {
		t.Fatalf("corpus degenerate: %d queries, %d mutations", queries, mutations)
	}
	if affectedTotal == 0 {
		t.Fatal("no mutation affected any row; generator miscalibrated")
	}

	// Final checkpoint: both sides agree, and the delta RAM grant is
	// fully released.
	en, eerr := db.Checkpoint()
	on, oerr := orc.Checkpoint()
	if eerr != nil || oerr != nil || en != on {
		t.Fatalf("final checkpoint: engine (%d, %v), oracle (%d, %v)", en, eerr, on, oerr)
	}
	for _, u := range db.Device().RAM.Snapshot() {
		if strings.HasPrefix(u.Label, "delta:") {
			t.Fatalf("delta RAM grant leaked: %+v", u)
		}
	}
	// Queries still agree on the compacted state.
	for i := 0; i < 20; i++ {
		checkAgainstOracle(t, db, orc, g.next())
		checkAgainstOracle(t, db, orc, g.nextPostOp())
	}

	// The whole mutating session leaks nothing and keeps the device's
	// one-way flow invariant.
	leaks := trace.Audit(db.Recorder().Events(), db.HiddenValues().Contains)
	if len(leaks) != 0 {
		t.Fatalf("DML session leaked: %v", leaks[0])
	}
	for _, e := range db.Recorder().Events() {
		if e.From == trace.Device && e.To != trace.Display {
			t.Fatalf("device sent %s to %s", e.Kind, e.To)
		}
	}
}

// TestDMLPlanCacheCounted: the plan cache holds SELECTs only. Prepared
// UPDATEs bind per call and leave the DB registry, PlanCacheStats and the
// session at zero; a SELECT afterwards counts one miss in all three.
func TestDMLPlanCacheCounted(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	update := mustParseScript(t, `UPDATE Prescription SET Quantity = ? WHERE PreID = ?`)
	for i := 1; i <= 3; i++ {
		if n, err := s.ExecContext(context.Background(), update, []value.Value{value.NewInt(int64(40 + i)), value.NewInt(int64(i))}); err != nil || n != 1 {
			t.Fatalf("exec %d: n=%d err=%v", i, n, err)
		}
	}
	check := func(when string, misses int64) {
		t.Helper()
		snap := db.MetricsSnapshot()
		for name, want := range map[string]int64{"plan_cache_hits_total": 0, "plan_cache_misses_total": misses} {
			if v, ok := snap.Get(name); !ok || v.Value != want {
				t.Errorf("%s: DB registry %s = %+v, want %d", when, name, v, want)
			}
		}
		if st := db.PlanCacheStats(); st.Hits != 0 || st.Misses != misses || st.Entries != int(misses) {
			t.Errorf("%s: PlanCacheStats %+v, want %d misses and entries", when, st, misses)
		}
		if st := s.Stats().PlanCache; st.Hits != 0 || st.Misses != misses {
			t.Errorf("%s: session %+v, want %d misses", when, st, misses)
		}
	}
	check("after DML", 0)
	if _, err := s.Query(`SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity = 41`); err != nil {
		t.Fatal(err)
	}
	check("after a SELECT", 1)
}

// TestDMLPreparedAndCached checks the bind-many DML path: one parsed
// UPDATE run with fresh args from two sessions.
func TestDMLPreparedAndCached(t *testing.T) {
	db, orc, _ := loadTiny(t)
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	update := mustParseScript(t, `UPDATE Prescription SET Quantity = ? WHERE PreID = ?`)
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		n, err := s.ExecContext(ctx, update, []value.Value{value.NewInt(int64(40 + i)), value.NewInt(int64(i))})
		if err != nil || n != 1 {
			t.Fatalf("exec %d: n=%d err=%v", i, n, err)
		}
		if _, err := orc.Exec(fmt.Sprintf("UPDATE Prescription SET Quantity = %d WHERE PreID = %d", 40+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The same parsed statement through a second session.
	s2, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.ExecContext(ctx, update, []value.Value{value.NewInt(45), value.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db, orc, `SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity BETWEEN 41 AND 45`)
}

// TestDMLBindErrorIsErrBind: an argument a DELETE or UPDATE cannot take
// fails with plan.ErrBind wherever the statement sits in the script —
// alone, or followed by a CHECKPOINT — and changes nothing.
func TestDMLBindErrorIsErrBind(t *testing.T) {
	db, _, _ := loadTiny(t)
	defer db.Close()
	for _, c := range []struct {
		sql  string
		args []value.Value
	}{
		{`DELETE FROM Prescription WHERE PreID = ?`, []value.Value{value.NewString("abc")}},
		{`UPDATE Prescription SET Quantity = ? WHERE PreID = ?`, []value.Value{value.NewString("abc"), value.NewInt(1)}},
		{`UPDATE Prescription SET Quantity = 5 WHERE PreID = ?`, []value.Value{value.NewString("abc")}},
	} {
		for _, script := range []string{c.sql, c.sql + "; CHECKPOINT"} {
			n, err := db.exec(context.Background(), mustParseScript(t, script), c.args)
			if !errors.Is(err, plan.ErrBind) || n != 0 {
				t.Errorf("%s: n=%d err=%v, want plan.ErrBind", script, n, err)
			}
		}
	}
	if got := db.shards.engines[0].delta.Entries(); got != 0 {
		t.Fatalf("a rejected argument left %d delta entries", got)
	}
}

// TestDMLWithArgsBusCharge pins what a DELETE or UPDATE with args charges
// on the terminal -> device bus: the length of its text with the '?'
// placeholders, whether it is sent alone or inside a script.
func TestDMLWithArgsBusCharge(t *testing.T) {
	const (
		update = `UPDATE Prescription SET Quantity = ? WHERE PreID = ?` // 52 bytes
		del    = `DELETE FROM Prescription WHERE PreID = ?`             // 40 bytes
	)
	db, _, _ := loadTiny(t)
	defer db.Close()
	charged := func(script string, args ...value.Value) []int {
		t.Helper()
		before := len(db.Recorder().Events())
		if _, err := db.exec(context.Background(), mustParseScript(t, script), args); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		var out []int
		for _, e := range db.Recorder().Events()[before:] {
			if e.Kind == trace.KindDML {
				out = append(out, e.Bytes)
			}
		}
		return out
	}
	if got := charged(update, value.NewInt(41), value.NewInt(2)); !slices.Equal(got, []int{52}) {
		t.Errorf("UPDATE alone charged %v bytes, want [52]", got)
	}
	if got := charged(del, value.NewInt(3)); !slices.Equal(got, []int{40}) {
		t.Errorf("DELETE alone charged %v bytes, want [40]", got)
	}
	got := charged(update+"; "+del+"; CHECKPOINT", value.NewInt(43), value.NewInt(4), value.NewInt(5))
	if want := []int{52, 40, len("CHECKPOINT")}; !slices.Equal(got, want) {
		t.Errorf("script charged %v bytes, want %v", got, want)
	}
}

// TestAutoCheckpointDeltaLimit checks the deltalimit knob: the engine
// checkpoints by itself once the delta outgrows the limit.
func TestAutoCheckpointDeltaLimit(t *testing.T) {
	db, _, _ := loadTiny(t, WithDeltaLimit(8))
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(fmt.Sprintf(`DELETE FROM Prescription WHERE PreID = %d`, i*3+1)); err != nil {
			t.Fatal(err)
		}
		if got := db.shards.engines[0].delta.Entries(); got >= 8 {
			t.Fatalf("delta grew to %d entries despite deltalimit=8", got)
		}
	}
}

// mustParseScript parses a script for the exec door.
func mustParseScript(t testing.TB, script string) []sql.Statement {
	t.Helper()
	stmts, err := sql.ParseScript(script)
	if err != nil {
		t.Fatal(err)
	}
	return stmts
}

// TestIDSetMatchesMap holds the dead-row bitset to the map it replaced:
// membership of every identifier from 0 past the largest member, the
// count, and the members in ascending order.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 63, 64, 65, 500} {
		ids := make([]uint32, n)
		want := map[uint32]bool{}
		for i := range ids {
			ids[i] = 1 + uint32(rng.Intn(3*n+1))
			want[ids[i]] = true
		}
		s := newIDSet(ids)
		if (s == nil) != (n == 0) {
			t.Fatalf("%d ids: nil set %v", n, s == nil)
		}
		for id := uint32(0); id <= uint32(3*n+130); id++ {
			if s.has(id) != want[id] {
				t.Fatalf("%d ids: has(%d) = %v", n, id, s.has(id))
			}
		}
		if got := s.appendTo(nil); s.count() != len(want) || !slices.Equal(got, sortedKeys(want)) {
			t.Fatalf("%d ids: count %d, members %v, want %v", n, s.count(), got, sortedKeys(want))
		}
	}
}
