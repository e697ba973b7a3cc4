package driver

import (
	"context"
	"database/sql"
	"errors"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/core"
)

func TestParseDSNFaults(t *testing.T) {
	cfg, err := ParseDSN("")
	if o := resolve(cfg); err != nil || o.FaultPlan != nil || o.DegradedReads {
		t.Fatalf("defaults = %+v, %v; want no faults, degraded off", o, err)
	}
	cfg, err = ParseDSN("ghostdb://?faults=seed=42,read.transient=0.001,cutop=500&degraded=on&shards=4")
	if err != nil {
		t.Fatal(err)
	}
	if o := resolve(cfg); o.FaultPlan == nil || o.FaultPlan.Seed != 42 || o.FaultPlan.ReadTransient != 0.001 || o.FaultPlan.CutAtOp != 500 || !o.DegradedReads {
		t.Fatalf("options = %+v", o)
	}
	for _, bad := range []string{
		"ghostdb://?faults=read.transient=2",
		"ghostdb://?faults=bogus=1",
		"ghostdb://?faults=cutop=x",
		"ghostdb://?degraded=maybe",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "ghostdb driver:") && !strings.Contains(err.Error(), "fault:") {
			t.Errorf("ParseDSN(%q) error %q lacks a typed prefix", bad, err)
		}
	}
}

// TestBadConnRetry checks the driver's fault contract with the pool: a
// one-shot permanent device fault maps to driver.ErrBadConn, so
// database/sql silently evicts the connection and retries on a fresh
// one — the query succeeds with no error surfacing to the caller.
func TestBadConnRetry(t *testing.T) {
	db := openHospital(t, "ghostdb://?faults=failop=1")
	var n int
	err := db.QueryRow(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`).Scan(&n)
	if err != nil {
		t.Fatalf("query over a one-shot fault should be retried transparently: %v", err)
	}
	if n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
	eng := engineOf(t, db)
	if eng.FatalError() != nil {
		t.Fatalf("one-shot fault latched the engine dead: %v", eng.FatalError())
	}
	snap := eng.MetricsSnapshot()
	if v, ok := snap.Get("faults_injected_total"); !ok || v.Value == 0 {
		t.Fatalf("faults_injected_total = %+v, want > 0", v)
	}
}

// TestDeadDeviceSurfacesBadConn checks the other half of the contract:
// after a power cut the device never comes back, every retry fails, and
// the caller sees the fatal cause rather than a silent hang.
func TestDeadDeviceSurfacesBadConn(t *testing.T) {
	db := openHospital(t, "ghostdb://?faults=cutop=1")
	var n int
	err := db.QueryRow(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.VisID > 0`).Scan(&n)
	if err == nil {
		t.Fatal("query on a dead device succeeded")
	}
	eng := engineOf(t, db)
	if eng.FatalError() == nil {
		t.Fatal("power cut did not latch the engine's fatal error")
	}
}

// TestCanceledContextUnderFaults cancels a query mid-flight while
// transient faults are being injected and retried: the caller gets
// context.Canceled (not a fault error), the engine counts the
// cancellation, and the connection stays usable.
func TestCanceledContextUnderFaults(t *testing.T) {
	db := openHospital(t, "ghostdb://?faults=seed=3,read.transient=0.01,bus.transient=0.01")
	// Finalize the load so cancellation hits the query path.
	if _, err := db.Query(`SELECT Vis.VisID FROM Visit Vis`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The driver rejects an already-canceled context before the engine
	// runs; push one query through the raw session so the cancellation
	// lands mid-execution and the engine counts it.
	conn, err := db.Conn(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Raw(func(dc any) error {
		_, qerr := dc.(*Conn).Session().Query(
			`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`, core.WithContext(ctx))
		if !errors.Is(qerr, context.Canceled) {
			t.Fatalf("session query err = %v, want context.Canceled", qerr)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := engineOf(t, db)
	snap := eng.MetricsSnapshot()
	if v, ok := snap.Get("queries_canceled_total"); !ok || v.Value == 0 {
		t.Fatalf("queries_canceled_total = %+v, want > 0", v)
	}
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.VisID > 0`).Scan(&n); err != nil || n != 3 {
		t.Fatalf("follow-up query after cancellation: n=%d err=%v", n, err)
	}
}

// TestDegradedReadsDSN drives the degraded-read knob through the DSN:
// with one of four shards dead, dimension-rooted queries keep answering
// from surviving replicas while root queries fail fast.
func TestDegradedReadsDSN(t *testing.T) {
	db := openHospital(t, "ghostdb://?shards=4&degraded=on&faults=cutop=1,shard=2")
	// The first root query scatters to every shard and trips the cut.
	var n int
	if err := db.QueryRow(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.VisID > 0`).Scan(&n); err == nil {
		t.Fatal("root query on a dying shard succeeded")
	}
	var name string
	if err := db.QueryRow(`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'Spain'`).Scan(&name); err != nil {
		t.Fatalf("dimension query not served from survivors: %v", err)
	}
	if name != "Gall" {
		t.Fatalf("name = %q, want Gall", name)
	}
}

var _ = sql.ErrNoRows // keep database/sql imported alongside helpers
