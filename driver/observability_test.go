package driver

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/core"
)

func TestParseDSNObservability(t *testing.T) {
	cfg, err := ParseDSN("")
	if o := resolve(cfg); err != nil || o.SlowQueryThreshold != 0 || len(o.Hooks) != 0 {
		t.Fatalf("defaults = %+v, %v; want no slowquery", o, err)
	}
	cfg, err = ParseDSN("ghostdb://?slowquery=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if o := resolve(cfg); o.SlowQueryThreshold != 50*time.Millisecond || len(o.Hooks) != 1 {
		t.Fatalf("options = %+v", o)
	}
	for _, bad := range []string{
		"ghostdb://?slowquery=fast",
		"ghostdb://?slowquery=-1s",
		"ghostdb://?slowquery=0s",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "ghostdb driver:") {
			t.Errorf("ParseDSN(%q) error %q lacks driver prefix", bad, err)
		}
	}
}

// TestQueryContextCanceled checks satellite 1 end to end: a canceled
// context aborts QueryContext with ctx.Err() and the engine counts the
// cancellation.
func TestQueryContextCanceled(t *testing.T) {
	db := openHospital(t, "")
	// Finalize the load so cancellation hits the query path, not EnsureBuilt.
	if _, err := db.Query(`SELECT Vis.VisID FROM Visit Vis`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Prepared path honors the context the same way.
	stmt, err := db.Prepare(`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.QueryContext(ctx, "Sclerosis"); !errors.Is(err, context.Canceled) {
		t.Fatalf("prepared err = %v, want context.Canceled", err)
	}
	rows, err := stmt.QueryContext(context.Background(), "Sclerosis")
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
}

// TestDriverDeltaSummary checks satellite 2: delta and checkpoint state
// reachable from the driver surface, PlanCacheStats-style.
func TestDriverDeltaSummary(t *testing.T) {
	db := openHospital(t, "")
	eng := engineOf(t, db)

	// Finalize the bulk load so the INSERT below is live DML, not staging.
	if _, err := db.Query(`SELECT Vis.VisID FROM Visit Vis`); err != nil {
		t.Fatal(err)
	}
	if s := eng.DeltaSummary(); s != (core.DeltaSummary{}) {
		t.Fatalf("pristine summary = %+v", s)
	}
	if _, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-03-03', 'Flu', 2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DELETE FROM Visit WHERE VisID = 1`); err != nil {
		t.Fatal(err)
	}
	s := eng.DeltaSummary()
	if s.Tables == 0 || s.Rows != 1 || s.Tombstones != 1 || s.DeviceBytes <= 0 {
		t.Fatalf("post-DML summary = %+v, want 1 row + 1 tombstone", s)
	}
	if _, err := db.Exec(`CHECKPOINT`); err != nil {
		t.Fatal(err)
	}
	s = eng.DeltaSummary()
	if s.Rows != 0 || s.Tombstones != 0 || s.Checkpoints != 1 {
		t.Fatalf("post-CHECKPOINT summary = %+v, want empty delta, 1 checkpoint", s)
	}
}
