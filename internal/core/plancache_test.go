package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/ghostdb/ghostdb/internal/value"
)

// TestPlanCacheHitMiss pins the cache's accounting: first compilation of
// a shape misses, every repeat — same text, different whitespace or
// letter case — hits, and a different shape misses again.
func TestPlanCacheHitMiss(t *testing.T) {
	db, _, _ := loadTiny(t)
	const q = `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'France'`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first query: %v", st)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// Normalization: case and whitespace changes are the same shape.
	if _, err := db.Query("select   Doctor.DocID\nFROM Doctor WHERE Doctor.Country = 'France';"); err != nil {
		t.Fatal(err)
	}
	st = db.PlanCacheStats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after repeats: %v", st)
	}
	// Different literal = different shape (no parameterization).
	if _, err := db.Query(`SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'Spain'`); err != nil {
		t.Fatal(err)
	}
	st = db.PlanCacheStats()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after new shape: %v", st)
	}
	// String literals must not be case-folded by normalization.
	res, err := db.Query(`SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'FRANCE'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("'FRANCE' matched %d rows; literal was case-folded", len(res.Rows))
	}
}

// TestPlanCacheLRUEviction runs three shapes through a one-entry cache
// and checks the least recently used one is recompiled.
func TestPlanCacheLRUEviction(t *testing.T) {
	db, _, _ := loadTiny(t, WithPlanCacheSize(1))
	qa := `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'France'`
	qb := `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'Spain'`
	for _, q := range []string{qa, qb, qa} {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("1-entry cache should evict on every alternation: %v", st)
	}
	if st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("evictions/entries: %v", st)
	}
	// The resident entry still hits.
	if _, err := db.Query(qa); err != nil {
		t.Fatal(err)
	}
	if st = db.PlanCacheStats(); st.Hits != 1 {
		t.Fatalf("resident entry should hit: %v", st)
	}
}

// TestPlanCacheDisabled checks a capacity n <= 0 turns caching off.
func TestPlanCacheDisabled(t *testing.T) {
	for _, n := range []int{0, -1} {
		db, _, _ := loadTiny(t, WithPlanCacheSize(n))
		const q = `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'France'`
		for i := 0; i < 3; i++ {
			if _, err := db.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		st := db.PlanCacheStats()
		if st.Hits != 0 || st.Entries != 0 {
			t.Fatalf("capacity %d: disabled cache recorded %v", n, st)
		}
		if v, _ := db.MetricsSnapshot().Get("plan_cache_misses_total"); st.Misses != 3 || v.Value != st.Misses {
			t.Fatalf("capacity %d: PlanCacheStats misses %d, plan_cache_misses_total %d, want 3 and 3", n, st.Misses, v.Value)
		}
	}
}

// TestPlanCacheHoldsItsCapacity fills a 16-entry cache with 16 shapes and
// replays them: every replay hits and nothing was evicted.
func TestPlanCacheHoldsItsCapacity(t *testing.T) {
	const capacity = 16
	db, _, _ := loadTiny(t, WithPlanCacheSize(capacity))
	for pass := 0; pass < 2; pass++ {
		for i := 1; i <= capacity; i++ {
			if _, err := db.Query(fmt.Sprintf(`SELECT Doctor.Name FROM Doctor WHERE Doctor.DocID = %d`, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := db.PlanCacheStats(); st.Hits != capacity || st.Misses != capacity || st.Evictions != 0 || st.Entries != capacity {
		t.Fatalf("%d shapes through a %d-entry cache, twice: %+v, want %d hits, %d misses, 0 evictions, %d entries",
			capacity, capacity, st, capacity, capacity, capacity)
	}
}

// TestPlanCacheStatsIsTheRegistry checks PlanCacheStats and the DB
// registry are one tally after a lookup whose compile fails: a miss, on
// the session too. (TestPlanCacheDisabled holds them equal with the
// cache off.)
func TestPlanCacheStatsIsTheRegistry(t *testing.T) {
	db, _, _ := loadTiny(t)
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	agree := func(misses int64) {
		t.Helper()
		st, snap := db.PlanCacheStats(), db.MetricsSnapshot()
		hits, _ := snap.Get("plan_cache_hits_total")
		miss, _ := snap.Get("plan_cache_misses_total")
		if st.Hits != hits.Value || st.Misses != miss.Value || st.Misses != misses {
			t.Fatalf("PlanCacheStats %+v, registry hits %d misses %d, want %d misses in both", st, hits.Value, miss.Value, misses)
		}
	}
	if _, err := s.Query(`SELECT NoSuch.X FROM NoSuch`); err == nil {
		t.Fatal("a query over a missing table compiled")
	}
	agree(1)
	if st := s.Stats().PlanCache; st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("session %+v, want the failed lookup as 1 miss", st)
	}
	const q = `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'France'`
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	agree(2)
	if st := db.PlanCacheStats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("after a miss and a hit: %+v", st)
	}
}

// TestCompiledQueryParams checks the compile-once / bind-many / run-many
// path returns exactly what the literal path returns, for every binding.
func TestCompiledQueryParams(t *testing.T) {
	db, orc, _ := loadTiny(t)
	cq, err := db.Compile(`SELECT Visit.VisID FROM Visit WHERE Visit.Purpose = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if cq.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", cq.NumParams())
	}
	for _, purpose := range []string{"Checkup", "Sclerosis", "Flu", "NoSuchPurpose"} {
		res, err := cq.Run([]value.Value{value.NewString(purpose)})
		if err != nil {
			t.Fatalf("Run(%q): %v", purpose, err)
		}
		lit := fmt.Sprintf(`SELECT Visit.VisID FROM Visit WHERE Visit.Purpose = '%s'`, purpose)
		_, wantRows, err := orc.Query(lit)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRows(res.Rows, wantRows) {
			t.Fatalf("Run(%q) = %d rows, oracle %d", purpose, len(res.Rows), len(wantRows))
		}
	}
	// Arity is enforced.
	if _, err := cq.Run(nil); err == nil {
		t.Fatal("Run without params should fail")
	}
	if _, err := cq.Run([]value.Value{value.NewString("a"), value.NewString("b")}); err == nil {
		t.Fatal("Run with too many params should fail")
	}
	// The unbound shape refuses to execute directly.
	if _, err := db.QueryWithPlan(cq.Shape(), cq.Specs()[0]); err == nil {
		t.Fatal("QueryWithPlan on an unbound shape should fail")
	}
	// Date coercion at bind time: a BETWEEN over a DATE column accepts
	// string arguments and coerces them like date literals.
	cq2, err := db.Compile(`SELECT Visit.VisID FROM Visit WHERE Visit.Date BETWEEN ? AND ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cq2.Run([]value.Value{value.NewString("2000-01-01"), value.NewString("2020-12-31")})
	if err != nil {
		t.Fatal(err)
	}
	_, wantRows, err := orc.Query(`SELECT Visit.VisID FROM Visit WHERE Visit.Date BETWEEN '2000-01-01' AND '2020-12-31'`)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(res.Rows, wantRows) {
		t.Fatalf("date params: %d rows, oracle %d", len(res.Rows), len(wantRows))
	}
}

// TestPlanCacheConcurrentBindings shares ONE cached compiled plan across
// 16 goroutines running different parameter bindings concurrently (run
// under -race in CI). Every goroutine must see its own binding's rows,
// never another goroutine's.
func TestPlanCacheConcurrentBindings(t *testing.T) {
	db, orc, _ := loadTiny(t)
	const shape = `SELECT Visit.VisID FROM Visit WHERE Visit.Purpose = ?`
	purposes := []string{"Checkup", "Sclerosis", "Flu", "Angina"}
	want := make(map[string]int)
	for _, p := range purposes {
		_, rows, err := orc.Query(fmt.Sprintf(`SELECT Visit.VisID FROM Visit WHERE Visit.Purpose = '%s'`, p))
		if err != nil {
			t.Fatal(err)
		}
		want[p] = len(rows)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess, err := db.NewSession()
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			cq, err := sess.Compile(shape)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 6; i++ {
				p := purposes[(g+i)%len(purposes)]
				res, err := sess.QueryCompiled(cq, []value.Value{value.NewString(p)})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %q: %w", g, p, err)
					return
				}
				if len(res.Rows) != want[p] {
					errs <- fmt.Errorf("goroutine %d %q: %d rows, want %d", g, p, len(res.Rows), want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 16 sessions compiled the same shape. Compilation is not
	// single-flighted (a benign duplicate compile loses no correctness),
	// so concurrent first lookups may each miss — but one entry remains
	// and the traffic must add up.
	st := db.PlanCacheStats()
	if st.Misses < 1 || st.Hits+st.Misses != goroutines {
		t.Fatalf("cache traffic: %v", st)
	}
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestSessionPlanCacheCounters checks per-session hit/miss attribution.
func TestSessionPlanCacheCounters(t *testing.T) {
	db, _, _ := loadTiny(t)
	s1, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	const q = `SELECT Doctor.DocID FROM Doctor WHERE Doctor.Country = 'France'`
	if _, err := s1.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := s1.Stats().PlanCache; st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("s1: %v", st)
	}
	if st := s2.Stats().PlanCache; st.Misses != 0 || st.Hits != 1 {
		t.Fatalf("s2: %v", st)
	}
}

// TestNormalizeSQL pins the cache key normalization rules.
func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM T;", "select * from t"},
		{"  select\t*\n from  T ", "select * from t"},
		{"SELECT 'It''s A Mix' FROM T", "select 'It''s A Mix' from t"},
		{`SELECT "Quoted Name" FROM T`, `select "Quoted Name" from t`},
		{"SELECT X FROM T WHERE A = ?", "select x from t where a = ?"},
	}
	for _, c := range cases {
		if got := normalizeSQL(c.in); got != c.want {
			t.Errorf("normalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
