package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
)

// concurrentQueries is a mixed workload touching visible, hidden and
// join paths.
var concurrentQueries = []string{
	`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`,
	`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'`,
	paperQuery,
}

// TestConcurrentQueries runs many goroutines issuing mixed Query /
// Prepare / Plans / QueryWithPlan calls against one shared DB and checks
// every goroutine observes identical results. Run with -race.
func TestConcurrentQueries(t *testing.T) {
	db, _, _ := loadTiny(t)

	// Single-threaded baseline row counts.
	want := map[string]int{}
	for _, q := range concurrentQueries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(res.Rows)
	}

	const goroutines = 16
	const iters = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := concurrentQueries[(g+i)%len(concurrentQueries)]
				switch (g + i) % 3 {
				case 0: // optimizer path
					res, err := db.Query(q)
					if err != nil {
						errc <- err
						return
					}
					if len(res.Rows) != want[q] {
						errc <- fmt.Errorf("goroutine %d: %s: got %d rows, want %d", g, q, len(res.Rows), want[q])
						return
					}
				case 1: // prepare + forced plan path
					bound, err := db.Prepare(q)
					if err != nil {
						errc <- err
						return
					}
					specs := db.Plans(bound)
					if len(specs) == 0 {
						errc <- fmt.Errorf("goroutine %d: no plans for %s", g, q)
						return
					}
					res, err := db.QueryWithPlan(bound, specs[(g+i)%len(specs)])
					if err != nil {
						errc <- err
						return
					}
					if len(res.Rows) != want[q] {
						errc <- fmt.Errorf("goroutine %d: forced plan %s: got %d rows, want %d", g, q, len(res.Rows), want[q])
						return
					}
				case 2: // host-side-only path
					bound, err := db.Prepare(q)
					if err != nil {
						errc <- err
						return
					}
					if _, err := db.Estimate(bound, db.Plans(bound)[0]); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestConcurrentSessions drives the session layer: one session per
// goroutine, per-session stats accounted, clean Close.
func TestConcurrentSessions(t *testing.T) {
	db, _, _ := loadTiny(t)

	const goroutines = 8
	const iters = 3
	sessions := make([]*Session, goroutines)
	for i := range sessions {
		s, err := db.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	if got := db.OpenSessions(); got != goroutines {
		t.Fatalf("OpenSessions = %d, want %d", got, goroutines)
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g, s := range sessions {
		wg.Add(1)
		go func(g int, s *Session) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := concurrentQueries[(g+i)%len(concurrentQueries)]
				if _, err := s.Query(q); err != nil {
					errc <- err
					return
				}
			}
		}(g, s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for _, s := range sessions {
		st := s.Stats()
		if st.Queries != iters {
			t.Errorf("session %d: Queries = %d, want %d", s.ID(), st.Queries, iters)
		}
		if st.DeviceTime <= 0 {
			t.Errorf("session %d: no device time accounted", s.ID())
		}
		if st.LastReport == nil {
			t.Errorf("session %d: no last report", s.ID())
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Errorf("second Close = %v, want nil", err)
		}
	}
	if got := db.OpenSessions(); got != 0 {
		t.Fatalf("OpenSessions after close = %d, want 0", got)
	}
	if _, err := sessions[0].Query(concurrentQueries[0]); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("query on closed session = %v, want ErrSessionClosed", err)
	}
}

// TestCloseLifecycle checks DB.Close semantics: idempotent, fails new
// work, does not disturb finished results.
func TestCloseLifecycle(t *testing.T) {
	db, _, _ := loadTiny(t)
	res, err := db.Query(concurrentQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := db.Query(concurrentQueries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := db.Prepare(concurrentQueries[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare after Close = %v, want ErrClosed", err)
	}
	if err := s.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("session Ping after Close = %v, want ErrClosed", err)
	}
	if _, err := db.NewSession(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewSession after Close = %v, want ErrClosed", err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("pre-close result lost")
	}
}

// TestStageEnsureBuilt exercises the staged-load path: DDL and INSERTs
// across several Exec calls, finalized by EnsureBuilt.
func TestStageEnsureBuilt(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain')`); err != nil {
		t.Fatal(err)
	}
	if db.Loaded() {
		t.Fatal("loaded before EnsureBuilt")
	}
	// A staged INSERT is a DML statement like a live one; CREATE is not.
	if n := db.metrics.dmlStatements.Value(); n != 1 {
		t.Fatalf("dml_statements_total after one staged INSERT = %d, want 1", n)
	}
	if err := db.EnsureBuilt(); err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureBuilt(); err != nil {
		t.Fatalf("second EnsureBuilt = %v, want nil", err)
	}
	res, err := db.Query(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "Ellis" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Post-build INSERTs are live DML now: they land in the RAM delta and
	// are immediately visible to queries.
	if _, err := db.Exec(`INSERT INTO Doctor VALUES (3, 'Novak', 'France')`); err != nil {
		t.Fatalf("post-build INSERT: %v", err)
	}
	res, err = db.Query(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("after live INSERT rows = %v", res.Rows)
	}
	// DDL stays frozen after the bulk load.
	if _, err := db.Exec(`CREATE TABLE Late (ID INTEGER PRIMARY KEY)`); err == nil {
		t.Fatal("DDL after build should fail")
	}
}

// TestConcurrentStageAndQuery checks the load/query state machine under
// concurrency: goroutines race EnsureBuilt and queries; all queries that
// succeed must see the full dataset.
func TestConcurrentStageAndQuery(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	ds := datagen.Generate(datagen.Tiny())
	if err := db.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(concurrentQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.EnsureBuilt(); err != nil {
				errc <- err
				return
			}
			res, err := db.Query(concurrentQueries[0])
			if err != nil {
				errc <- err
				return
			}
			if len(res.Rows) != len(want.Rows) {
				errc <- fmt.Errorf("got %d rows, want %d", len(res.Rows), len(want.Rows))
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
