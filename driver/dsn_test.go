package driver

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseDSNDeterministicErrors pins the sorted-key validation order:
// a DSN with several bad parameters reports the alphabetically first
// one, every time, instead of whichever the map iteration visited.
func TestParseDSNDeterministicErrors(t *testing.T) {
	const dsn = "ghostdb://?fpr=9&metrics=off&batch=0&usb=warp&integrity=off"
	_, first := ParseDSN(dsn)
	if first == nil {
		t.Fatal("ParseDSN should fail")
	}
	if !strings.Contains(first.Error(), "batch") {
		t.Fatalf("error = %q, want the alphabetically first bad key (batch)", first)
	}
	for i := 0; i < 20; i++ {
		if _, err := ParseDSN(dsn); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: error %q differs from %q", i, err, first)
		}
	}
}

// TestParseDSNRemovedKeys: batch=, integrity= and metrics= selected code
// paths that no longer exist; a DSN still carrying one fails by name
// whatever its value, rather than being silently ignored.
func TestParseDSNRemovedKeys(t *testing.T) {
	for _, key := range []string{"batch", "integrity", "metrics"} {
		for _, val := range []string{"on", "off", "0"} {
			_, err := ParseDSN("ghostdb://?" + key + "=" + val)
			if want := fmt.Sprintf("unknown DSN parameter %q", key); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%s: error = %v, want %s", key, val, err, want)
			}
		}
	}
}

// TestConfigOptionsFaultError is the regression for the silently-dropped
// fault plan: a hand-built Config (bypassing ParseDSN) with an invalid
// Faults string must fail at options() rather than running faultless.
func TestConfigOptionsFaultError(t *testing.T) {
	cfg := defaultConfig()
	cfg.Faults = "bogus=1"
	if _, err := cfg.options(); err == nil {
		t.Fatal("options() with an invalid fault plan should fail")
	} else if !strings.Contains(err.Error(), "ghostdb driver:") {
		t.Fatalf("error %q lacks the driver prefix", err)
	}

	cfg.Faults = "seed=42,read.transient=0.001"
	if _, err := cfg.options(); err != nil {
		t.Fatalf("valid fault plan rejected: %v", err)
	}
}

// TestOpenConnectorEagerValidation checks the connector surfaces config
// errors at OpenConnector time, not at first Connect.
func TestOpenConnectorEagerValidation(t *testing.T) {
	if _, err := (&Driver{}).OpenConnector("ghostdb://?faults=read.transient=2"); err == nil {
		t.Fatal("OpenConnector with a bad fault plan should fail")
	}
	c, err := (&Driver{}).OpenConnector("ghostdb://?faults=seed=1,read.transient=0.001")
	if err != nil {
		t.Fatal(err)
	}
	if closer, ok := c.(interface{ Close() error }); ok {
		closer.Close()
	}
}

// TestOpenEngine pins the DSN-to-engine entry point used by
// cmd/ghostdb-server.
func TestOpenEngine(t *testing.T) {
	if _, err := OpenEngine("ghostdb://?usb=warp"); err == nil {
		t.Fatal("OpenEngine with a bad DSN should fail")
	}
	db, err := OpenEngine("ghostdb://?shards=2")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(hospitalDDL + hospitalRows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v, want [[2]]", res.Rows)
	}
}
