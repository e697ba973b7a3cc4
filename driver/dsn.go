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

// Config is a parsed DSN: the simulated hardware and engine options for
// one GhostDB instance.
type Config struct {
	// Profile names the device hardware profile. "smartusb2007" (the
	// default) is the paper's Figure 2 smart USB device.
	Profile string
	// USB selects the terminal-device channel: "full" (12 Mb/s, the
	// 2007 default) or "high" (480 Mb/s, the paper's envisioned future).
	USB string
	// FPR is the Bloom filters' target false-positive rate (default 0.01).
	FPR float64
	// Capture selects trace capture: "meta" (default) or "full" (payload
	// values, enabling the security audit).
	Capture string
	// DeviceIndexes lists visible columns ("Table.Column") that also get
	// a climbing index on the device (Figure 4's Doctor.Country index).
	DeviceIndexes []string
	// PlanCache bounds the engine's compiled-plan cache in entries.
	// -1 means the engine default (256); 0 disables caching.
	PlanCache int
	// DeltaLimit auto-checkpoints the live-DML delta once it holds this
	// many entries (rows plus tombstones). -1 (the default) disables
	// auto-checkpointing: the delta grows until an explicit CHECKPOINT
	// or until the device RAM budget rejects further mutations.
	DeltaLimit int
	// SlowQuery arms the engine's built-in slow-query logger: queries
	// whose wall-clock latency reaches this threshold are logged through
	// log/slog and counted in slow_queries_total. Zero disables it.
	SlowQuery time.Duration
	// Shards splits the database over N simulated devices with
	// scatter-gather query execution. 1 (the default) is one device.
	Shards int
	// Faults is a deterministic fault plan in the internal/fault DSN
	// grammar ("seed=42,read.transient=0.001,cutop=500,..."). Empty
	// (the default) injects nothing.
	Faults string
	// Degraded keeps a sharded database answering dimension-rooted
	// queries from surviving replicas when a shard's device dies.
	Degraded bool
	// Backend selects the storage backend under the device: "sim" (the
	// default simulated NAND with its deterministic cost model) or "file"
	// (persistent real-file pages under Path). With "file", opening a DSN
	// whose Path already holds a database REOPENS it — schema, committed
	// data and all — instead of creating a fresh one.
	Backend string
	// Path is the file backend's device directory (required for
	// backend=file; a sharded engine puts each device in a shardN
	// subdirectory).
	Path string
	// Fsync makes the file backend flush dirty segments at every commit
	// point, extending durability from process crashes to host power
	// loss. Off by default.
	Fsync bool
}

func defaultConfig() *Config {
	return &Config{Profile: "smartusb2007", USB: "full", FPR: 0.01, Capture: "meta", PlanCache: -1, DeltaLimit: -1, Shards: 1, Backend: "sim"}
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
//	usb          terminal-device channel: "full" | "high"
//	fpr          Bloom target false-positive rate in (0, 0.5]
//	capture      wire trace capture: "meta" | "full"
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
func ParseDSN(dsn string) (*Config, error) {
	cfg := defaultConfig()
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
	for _, key := range keys {
		vals := params[key]
		switch strings.ToLower(key) {
		case "profile":
			cfg.Profile = strings.ToLower(vals[len(vals)-1])
			if cfg.Profile != "smartusb2007" {
				return nil, fmt.Errorf("ghostdb driver: unknown profile %q (want smartusb2007)", cfg.Profile)
			}
		case "usb":
			cfg.USB = strings.ToLower(vals[len(vals)-1])
			if cfg.USB != "full" && cfg.USB != "high" {
				return nil, fmt.Errorf("ghostdb driver: unknown usb speed %q (want full or high)", cfg.USB)
			}
		case "fpr":
			f, err := strconv.ParseFloat(vals[len(vals)-1], 64)
			if err != nil || f <= 0 || f > 0.5 {
				return nil, fmt.Errorf("ghostdb driver: fpr must be a float in (0, 0.5], got %q", vals[len(vals)-1])
			}
			cfg.FPR = f
		case "capture":
			cfg.Capture = strings.ToLower(vals[len(vals)-1])
			if cfg.Capture != "meta" && cfg.Capture != "full" {
				return nil, fmt.Errorf("ghostdb driver: unknown capture level %q (want meta or full)", cfg.Capture)
			}
		case "plancache":
			n, err := strconv.Atoi(vals[len(vals)-1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("ghostdb driver: plancache must be a non-negative entry count, got %q", vals[len(vals)-1])
			}
			cfg.PlanCache = n
		case "deltalimit":
			n, err := strconv.Atoi(vals[len(vals)-1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("ghostdb driver: deltalimit must be a positive entry count, got %q", vals[len(vals)-1])
			}
			cfg.DeltaLimit = n
		case "slowquery":
			d, err := time.ParseDuration(vals[len(vals)-1])
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("ghostdb driver: slowquery must be a positive duration, got %q", vals[len(vals)-1])
			}
			cfg.SlowQuery = d
		case "shards":
			n, err := strconv.Atoi(vals[len(vals)-1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("ghostdb driver: shards must be a positive shard count, got %q", vals[len(vals)-1])
			}
			cfg.Shards = n
		case "faults":
			v := vals[len(vals)-1]
			if _, err := fault.ParsePlan(v); err != nil {
				return nil, fmt.Errorf("ghostdb driver: %v", err)
			}
			cfg.Faults = v
		case "degraded":
			switch strings.ToLower(vals[len(vals)-1]) {
			case "on", "true", "1":
				cfg.Degraded = true
			case "off", "false", "0":
				cfg.Degraded = false
			default:
				return nil, fmt.Errorf("ghostdb driver: degraded must be on or off, got %q", vals[len(vals)-1])
			}
		case "backend":
			cfg.Backend = strings.ToLower(vals[len(vals)-1])
			if cfg.Backend != "sim" && cfg.Backend != "file" {
				return nil, fmt.Errorf("ghostdb driver: unknown backend %q (want sim or file)", cfg.Backend)
			}
		case "path":
			cfg.Path = vals[len(vals)-1]
		case "fsync":
			switch strings.ToLower(vals[len(vals)-1]) {
			case "on", "true", "1":
				cfg.Fsync = true
			case "off", "false", "0":
				cfg.Fsync = false
			default:
				return nil, fmt.Errorf("ghostdb driver: fsync must be on or off, got %q", vals[len(vals)-1])
			}
		case "deviceindex":
			for _, v := range vals {
				dot := strings.IndexByte(v, '.')
				if dot <= 0 || dot == len(v)-1 || strings.IndexByte(v[dot+1:], '.') >= 0 {
					return nil, fmt.Errorf("ghostdb driver: deviceindex must be Table.Column, got %q", v)
				}
				cfg.DeviceIndexes = append(cfg.DeviceIndexes, v)
			}
		default:
			return nil, fmt.Errorf("ghostdb driver: unknown DSN parameter %q", key)
		}
	}
	if cfg.Backend == "file" && cfg.Path == "" {
		return nil, fmt.Errorf("ghostdb driver: backend=file requires a path parameter")
	}
	if cfg.Backend != "file" && (cfg.Path != "" || cfg.Fsync) {
		return nil, fmt.Errorf("ghostdb driver: path and fsync require backend=file")
	}
	return cfg, nil
}

// options maps the config onto core engine options. It returns an error
// when the config cannot be honored — most importantly a Faults plan
// that does not parse: a hand-built Config asking for fault injection
// must fail loudly rather than silently running with no faults armed.
func (c *Config) options() ([]core.Option, error) {
	opts := []core.Option{
		core.WithProfile(device.SmartUSB2007()),
		core.WithTargetFPR(c.FPR),
	}
	if c.USB == "high" {
		opts = append(opts, core.WithUSB(bus.USBHighSpeed()))
	} else {
		opts = append(opts, core.WithUSB(bus.USBFullSpeed()))
	}
	if c.Capture == "full" {
		opts = append(opts, core.WithCapture(trace.CaptureFull))
	}
	for _, spec := range c.DeviceIndexes {
		dot := strings.IndexByte(spec, '.')
		opts = append(opts, core.WithDeviceIndex(spec[:dot], spec[dot+1:]))
	}
	if c.PlanCache >= 0 {
		opts = append(opts, core.WithPlanCacheSize(c.PlanCache))
	}
	if c.DeltaLimit >= 1 {
		opts = append(opts, core.WithDeltaLimit(c.DeltaLimit))
	}
	if c.SlowQuery > 0 {
		opts = append(opts, core.WithSlowQuery(c.SlowQuery, nil))
	}
	if c.Shards > 1 {
		opts = append(opts, core.WithShards(c.Shards))
	}
	if c.Faults != "" {
		p, err := fault.ParsePlan(c.Faults)
		if err != nil {
			return nil, fmt.Errorf("ghostdb driver: %v", err)
		}
		opts = append(opts, core.WithFaultPlan(p))
	}
	if c.Degraded {
		opts = append(opts, core.WithDegradedReads(true))
	}
	if c.Backend == "file" {
		opts = append(opts, core.WithBackend(storage.File(c.Path, c.Fsync)))
	}
	return opts, nil
}

// open builds the engine this config describes: a file-backend config
// whose path already holds a database reopens it (committed schema and
// data restored); everything else creates a fresh engine.
func (c *Config) open() (*core.DB, error) {
	opts, err := c.options()
	if err != nil {
		return nil, err
	}
	if c.Backend == "file" && core.PathHoldsDatabase(c.Path) {
		db, _, err := core.OpenPath(c.Path, opts...)
		return db, err
	}
	return core.Open(opts...)
}
