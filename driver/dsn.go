package driver

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/core"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/fault"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// Config is a parsed DSN: the engine options it names, each built from
// its key where that key was validated. Every option it leaves out keeps
// the engine's default.
type Config struct {
	opts []core.Option
	// path is the file backend's device directory, empty on the
	// simulated backend; open reopens a database already there.
	path string
}

// ParseDSN parses a GhostDB data source name.
//
// The general form is
//
//	ghostdb://?profile=smartusb2007&usb=high&fpr=0.01&capture=full&deviceindex=Doctor.Country
//
// The empty string is a valid DSN meaning "all defaults". Parameters:
//
//	profile      device hardware profile: "smartusb2007"
//	usb          terminal-device channel: "full" (default) | "high"
//	fpr          Bloom target false-positive rate in (0, 0.5] (default 0.01)
//	capture      wire trace capture: "meta" (default) | "full"
//	deviceindex  visible column "Table.Column"; may repeat
//	plancache    compiled-plan cache entries; 0 disables (default 256)
//	deltalimit   auto-CHECKPOINT once the live-DML delta holds N entries
//	slowquery    log queries at least this slow (Go duration, e.g. 50ms)
//	shards       split the DB over N simulated devices (default 1)
//	faults       deterministic fault plan ("seed=42,read.transient=0.001,cutop=500")
//	degraded     serve dimension queries from surviving shards: "on" | "off" (default)
//	backend      storage backend: "sim" (default) | "file" (persistent real files)
//	path         file backend's device directory (required with backend=file)
//	fsync        file backend flushes at commit points: "on" | "off" (default)
//
// With backend=file, opening a DSN whose path already holds a database
// reopens it (schema, committed data and all) instead of creating a
// fresh one; a sharded engine puts each device in a shardN subdirectory.
func ParseDSN(dsn string) (*Config, error) {
	cfg := &Config{}
	if dsn == "" {
		return cfg, nil
	}
	u, err := url.Parse(dsn)
	if err != nil {
		return nil, fmt.Errorf("ghostdb driver: invalid DSN %q: %v", dsn, err)
	}
	if u.Scheme != "ghostdb" {
		return nil, fmt.Errorf("ghostdb driver: DSN scheme must be ghostdb://, got %q", dsn)
	}
	if u.Host != "" || (u.Path != "" && u.Path != "/") {
		return nil, fmt.Errorf("ghostdb driver: DSN has host/path %q; GhostDB is in-process, use ghostdb://?param=...", dsn)
	}
	params, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return nil, fmt.Errorf("ghostdb driver: invalid DSN query %q: %v", u.RawQuery, err)
	}
	// Validate in sorted key order so a DSN with several bad parameters
	// always reports the same one, instead of whichever the map
	// iteration happened to visit first.
	keys := make([]string, 0, len(params))
	for key := range params {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	// The backend, its path and fsync form one option, built once all
	// three are known.
	var backend, path string
	var fsync bool
	for _, key := range keys {
		vals := params[key]
		v := vals[len(vals)-1]
		switch strings.ToLower(key) {
		case "profile":
			if p := strings.ToLower(v); p != "smartusb2007" {
				return nil, fmt.Errorf("ghostdb driver: unknown profile %q (want smartusb2007)", p)
			}
			cfg.opts = append(cfg.opts, core.WithProfile(device.SmartUSB2007()))
		case "usb":
			switch strings.ToLower(v) {
			case "full":
				cfg.opts = append(cfg.opts, core.WithUSB(bus.USBFullSpeed()))
			case "high":
				cfg.opts = append(cfg.opts, core.WithUSB(bus.USBHighSpeed()))
			default:
				return nil, fmt.Errorf("ghostdb driver: unknown usb speed %q (want full or high)", strings.ToLower(v))
			}
		case "fpr":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f <= 0 || f > 0.5 {
				return nil, fmt.Errorf("ghostdb driver: fpr must be a float in (0, 0.5], got %q", v)
			}
			cfg.opts = append(cfg.opts, core.WithTargetFPR(f))
		case "capture":
			switch strings.ToLower(v) {
			case "meta":
				cfg.opts = append(cfg.opts, core.WithCapture(trace.CaptureMeta))
			case "full":
				cfg.opts = append(cfg.opts, core.WithCapture(trace.CaptureFull))
			default:
				return nil, fmt.Errorf("ghostdb driver: unknown capture level %q (want meta or full)", strings.ToLower(v))
			}
		case "plancache":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("ghostdb driver: plancache must be a non-negative entry count, got %q", v)
			}
			cfg.opts = append(cfg.opts, core.WithPlanCacheSize(n))
		case "deltalimit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("ghostdb driver: deltalimit must be a positive entry count, got %q", v)
			}
			cfg.opts = append(cfg.opts, core.WithDeltaLimit(n))
		case "slowquery":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("ghostdb driver: slowquery must be a positive duration, got %q", v)
			}
			cfg.opts = append(cfg.opts, core.WithSlowQuery(d, nil))
		case "shards":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("ghostdb driver: shards must be a positive shard count, got %q", v)
			}
			cfg.opts = append(cfg.opts, core.WithShards(n))
		case "faults":
			p, err := fault.ParsePlan(v)
			if err != nil {
				return nil, fmt.Errorf("ghostdb driver: %v", err)
			}
			cfg.opts = append(cfg.opts, core.WithFaultPlan(p))
		case "degraded":
			on, err := onOff("degraded", v)
			if err != nil {
				return nil, err
			}
			cfg.opts = append(cfg.opts, core.WithDegradedReads(on))
		case "backend":
			backend = strings.ToLower(v)
			if backend != "sim" && backend != "file" {
				return nil, fmt.Errorf("ghostdb driver: unknown backend %q (want sim or file)", backend)
			}
		case "path":
			path = v
		case "fsync":
			if fsync, err = onOff("fsync", v); err != nil {
				return nil, err
			}
		case "deviceindex":
			for _, v := range vals {
				dot := strings.IndexByte(v, '.')
				if dot <= 0 || dot == len(v)-1 || strings.IndexByte(v[dot+1:], '.') >= 0 {
					return nil, fmt.Errorf("ghostdb driver: deviceindex must be Table.Column, got %q", v)
				}
				cfg.opts = append(cfg.opts, core.WithDeviceIndex(v[:dot], v[dot+1:]))
			}
		default:
			return nil, fmt.Errorf("ghostdb driver: unknown DSN parameter %q", key)
		}
	}
	switch {
	case backend == "file" && path == "":
		return nil, fmt.Errorf("ghostdb driver: backend=file requires a path parameter")
	case backend != "file" && (path != "" || fsync):
		return nil, fmt.Errorf("ghostdb driver: path and fsync require backend=file")
	case backend == "file":
		cfg.path = path
		cfg.opts = append(cfg.opts, core.WithBackend(storage.File(path, fsync)))
	case backend == "sim":
		cfg.opts = append(cfg.opts, core.WithBackend(storage.Sim()))
	}
	return cfg, nil
}

// onOff parses an on/off DSN value.
func onOff(key, v string) (bool, error) {
	switch strings.ToLower(v) {
	case "on", "true", "1":
		return true, nil
	case "off", "false", "0":
		return false, nil
	}
	return false, fmt.Errorf("ghostdb driver: %s must be on or off, got %q", key, v)
}

// open builds the engine this config describes: a file-backend config
// whose path already holds a database reopens it (committed schema and
// data restored); everything else creates a fresh engine.
func (c *Config) open() (*core.DB, error) {
	if c.path != "" && core.PathHoldsDatabase(c.path) {
		db, _, err := core.OpenPath(c.path, c.opts...)
		return db, err
	}
	return core.Open(c.opts...)
}
