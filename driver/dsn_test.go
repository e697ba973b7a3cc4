package driver

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"net/url"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// resolve applies a parsed DSN's options to a zero core.Options, so a
// test reads exactly what the DSN sets and none of the engine's defaults.
func resolve(cfg *Config) core.Options {
	var o core.Options
	for _, opt := range cfg.opts {
		opt(&o)
	}
	return o
}

// dsnKey is one row of the DSN key table: a key, a sample value (with
// the other parameters it needs) and the With* call it stands for, and a
// value the key rejects.
type dsnKey struct {
	key, sample string
	extra       string // other parameters the sample needs
	want        core.Option
	bad         string
}

// dsn renders the row's DSN with val as the key's value.
func (r dsnKey) dsn(val string) string {
	s := "ghostdb://?" + r.key + "=" + url.QueryEscape(val)
	if r.extra != "" {
		s += "&" + r.extra
	}
	return s
}

// dsnKeys is the DSN key table, one row per key.
func dsnKeys(tb testing.TB) []dsnKey {
	plan, err := fault.ParsePlan("seed=42,read.transient=0.001,cutop=500")
	if err != nil {
		tb.Fatal(err)
	}
	return []dsnKey{
		{"profile", "smartusb2007", "", core.WithProfile(device.SmartUSB2007()), "cray1"},
		{"usb", "high", "", core.WithUSB(bus.USBHighSpeed()), "warp"},
		{"fpr", "0.05", "", core.WithTargetFPR(0.05), "2"},
		{"capture", "full", "", core.WithCapture(trace.CaptureFull), "everything"},
		{"deviceindex", "Doctor.Country", "", core.WithDeviceIndex("Doctor", "Country"), "Too.Many.Dots"},
		{"plancache", "0", "", core.WithPlanCacheSize(0), "-3"},
		{"deltalimit", "50", "", core.WithDeltaLimit(50), "0"},
		{"slowquery", "50ms", "", core.WithSlowQuery(50*time.Millisecond, nil), "fast"},
		{"shards", "4", "", core.WithShards(4), "0"},
		{"faults", "seed=42,read.transient=0.001,cutop=500", "", core.WithFaultPlan(plan), "bogus=1"},
		{"degraded", "on", "", core.WithDegradedReads(true), "maybe"},
		{"backend", "sim", "", core.WithBackend(storage.Sim()), "bogus"},
		{"path", "/tmp/x", "backend=file", core.WithBackend(storage.File("/tmp/x", false)), ""},
		{"fsync", "on", "backend=file&path=%2Ftmp%2Fx", core.WithBackend(storage.File("/tmp/x", true)), "maybe"},
	}
}

// TestDSNKeysEqualOptions holds every DSN key to the core option it
// stands for: one row per key, whose sample value must resolve to the
// same core.Options as the row's With* call, and whose bad value must
// fail with the driver's prefix. The keys in ParseDSN's doc comment and
// in README's DSN table must be exactly the table's keys.
func TestDSNKeysEqualOptions(t *testing.T) {
	rows := dsnKeys(t)
	var keys []string
	for _, r := range rows {
		keys = append(keys, r.key)
		cfg, err := ParseDSN(r.dsn(r.sample))
		if err != nil {
			t.Errorf("%s=%s: %v", r.key, r.sample, err)
			continue
		}
		got := resolve(cfg)
		var want core.Options
		r.want(&want)
		if len(got.Hooks) != len(want.Hooks) {
			t.Errorf("%s=%s: %d hooks, want %d", r.key, r.sample, len(got.Hooks), len(want.Hooks))
		}
		if (got.FaultPlan == nil) != (want.FaultPlan == nil) || got.FaultPlan != nil && !reflect.DeepEqual(*got.FaultPlan, *want.FaultPlan) {
			t.Errorf("%s=%s: fault plan %+v, want %+v", r.key, r.sample, got.FaultPlan, want.FaultPlan)
		}
		got.Hooks, want.Hooks, got.FaultPlan, want.FaultPlan = nil, nil, nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s=%s: options %+v, want %+v", r.key, r.sample, got, want)
		}
		if _, err := ParseDSN(r.dsn(r.bad)); err == nil || !strings.Contains(err.Error(), "ghostdb driver:") {
			t.Errorf("%s=%s: error = %v, want a ghostdb driver error", r.key, r.bad, err)
		}
	}
	slices.Sort(keys)

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dsn.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "ParseDSN" {
			_, params, _ := strings.Cut(fn.Doc.Text(), "Parameters:\n")
			for _, line := range strings.Split(params, "\n") {
				if line != "" && !strings.HasPrefix(line, "\t") {
					break
				}
				if fields := strings.Fields(line); len(fields) > 0 {
					doc = append(doc, fields[0])
				}
			}
		}
	}
	slices.Sort(doc)
	if !slices.Equal(doc, keys) {
		t.Errorf("ParseDSN doc comment keys = %v, want %v", doc, keys)
	}

	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "\n| DSN key |")
	var documented []string
	for i, line := range strings.Split(table, "\n") {
		if i < 2 { // the header's tail and the separator row
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break
		}
		documented = append(documented, strings.Trim(strings.TrimSpace(strings.Split(line, "|")[1]), "`"))
	}
	slices.Sort(documented)
	if !slices.Equal(documented, keys) {
		t.Errorf("README DSN table keys = %v, want %v", documented, keys)
	}
}

// manyBadDSN has several bad parameters.
const manyBadDSN = "ghostdb://?fpr=9&metrics=off&batch=0&usb=warp&integrity=off"

// removedKeys and removedValues are the retired keys and values a DSN
// may still carry.
var removedKeys, removedValues = []string{"batch", "integrity", "metrics"}, []string{"on", "off", "0"}

// TestParseDSNDeterministicErrors pins the sorted-key validation order:
// a DSN with several bad parameters reports the alphabetically first
// one, every time, instead of whichever the map iteration visited.
func TestParseDSNDeterministicErrors(t *testing.T) {
	const dsn = manyBadDSN
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
	for _, key := range removedKeys {
		for _, val := range removedValues {
			_, err := ParseDSN("ghostdb://?" + key + "=" + val)
			if want := fmt.Sprintf("unknown DSN parameter %q", key); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%s: error = %v, want %s", key, val, err, want)
			}
		}
	}
}

// The DSNs the connector and engine entry points are opened with.
const (
	badFaultsDSN = "ghostdb://?faults=read.transient=2"
	faultsDSN    = "ghostdb://?faults=seed=1,read.transient=0.001"
	badUSBDSN    = "ghostdb://?usb=warp"
	shardsDSN    = "ghostdb://?shards=2"
)

// TestOpenConnectorEagerValidation checks the connector surfaces config
// errors at OpenConnector time, not at first Connect.
func TestOpenConnectorEagerValidation(t *testing.T) {
	if _, err := (&Driver{}).OpenConnector(badFaultsDSN); err == nil {
		t.Fatal("OpenConnector with a bad fault plan should fail")
	}
	c, err := (&Driver{}).OpenConnector(faultsDSN)
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
	if _, err := OpenEngine(badUSBDSN); err == nil {
		t.Fatal("OpenEngine with a bad DSN should fail")
	}
	db, err := OpenEngine(shardsDSN)
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

// FuzzParseDSN: ParseDSN never panics; a DSN it accepts applies its
// options to a zero core.Options without panicking, and one it rejects
// says so with the driver's prefix. The seeds are every DSN the tests
// above parse.
func FuzzParseDSN(f *testing.F) {
	for _, r := range dsnKeys(f) {
		f.Add(r.dsn(r.sample))
		f.Add(r.dsn(r.bad))
	}
	for _, key := range removedKeys {
		for _, val := range removedValues {
			f.Add("ghostdb://?" + key + "=" + val)
		}
	}
	for _, dsn := range []string{"", manyBadDSN, badFaultsDSN, faultsDSN, badUSBDSN, shardsDSN} {
		f.Add(dsn)
	}
	f.Fuzz(func(t *testing.T, dsn string) {
		cfg, err := ParseDSN(dsn)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "ghostdb driver:") {
				t.Fatalf("ParseDSN(%q) error %q lacks the driver's prefix", dsn, err)
			}
			return
		}
		resolve(cfg)
	})
}
