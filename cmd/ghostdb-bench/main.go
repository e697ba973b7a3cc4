// Command ghostdb-bench regenerates every table and figure of the
// paper's evaluation (see the experiment index in internal/bench/doc.go).
// Each experiment prints one table; "all" runs them in order.
//
//	ghostdb-bench -scale 100000 all
//	ghostdb-bench -scale 1000000 fig6        # the paper's cardinality
//	ghostdb-bench sweep baselines storage
//
// Experiments: fig5 fig6 sweep baselines storage bus spy ram writes
// bloom game ablations loadgen.
//
// loadgen is the one experiment outside the paper: it boots
// ghostdb-server in-process (or targets a running one via -server-url)
// and drives it with -clients concurrent HTTP clients; its record lands
// in BENCH_server.json. Everything else about the system's own speed —
// DML, checkpoints, shards, backends, faults — is judged by benchmark/.
//
// The -debug-addr flag serves the live observability endpoint
// (/debug/vars JSON and /metrics Prometheus text) for the shared
// database while experiments run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"github.com/ghostdb/ghostdb"
	"github.com/ghostdb/ghostdb/internal/bench"
	"github.com/ghostdb/ghostdb/internal/core"
)

// benchRecord is the machine-readable result of one experiment, written
// as BENCH_<name>.json when -json is set. The files are run output, not
// history (.gitignore lists them; CI uploads what it writes as
// artifacts): the committed baseline lives in benchmark/.
type benchRecord struct {
	Name   string `json:"name"`
	Scale  int    `json:"scale"`
	Seed   int64  `json:"seed"`
	WallNS int64  `json:"wall_ns"` // host wall-clock for the experiment
	Allocs uint64 `json:"allocs"`  // host heap allocations during the experiment
	// SimNS is the simulated device time the experiment advanced on the
	// shared database's clock; 0 for experiments that build private
	// databases (bus, spy, ram, writes, bloom). The first shared-DB
	// experiment includes the one-time bulk load.
	SimNS int64 `json:"sim_ns"`
	// Server carries the HTTP loadgen result (the loadgen experiment):
	// the acceptance gate is dropped == 0.
	Server *bench.ServerReport `json:"server,omitempty"`
}

// lastServer stashes the loadgen experiment's report for the JSON writer
// (run() only returns an error).
var lastServer *bench.ServerReport

// loadgen knobs, set from flags in main.
var (
	loadClients   int
	loadPerClient int
	serverURL     string
	maxInflight   int
)

func writeBenchJSON(rec benchRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+rec.Name+".json", append(data, '\n'), 0o644)
}

var experimentOrder = []string{
	"fig6", "fig5", "sweep", "baselines", "storage", "bus", "spy",
	"ram", "writes", "bloom", "game", "ablations", "loadgen",
}

func main() {
	scale := flag.Int("scale", 100_000, "prescriptions in the synthetic dataset (paper: 1000000)")
	seed := flag.Int64("seed", 42, "dataset seed")
	jsonOut := flag.Bool("json", false, "also write BENCH_<experiment>.json records (wall ns, allocs, simulated device time)")
	debugAddr := flag.String("debug-addr", "", "serve the live /debug/vars + /metrics endpoint on this address (e.g. localhost:6060) for the shared database")
	debugHold := flag.Duration("debug-hold", 0, "with -debug-addr, keep serving this long after the experiments finish (for scraping a completed run)")
	flag.IntVar(&loadClients, "clients", 1000, "loadgen: concurrent HTTP clients")
	flag.IntVar(&loadPerClient, "requests", 20, "loadgen: requests each client completes")
	flag.StringVar(&serverURL, "server-url", "", "loadgen: drive a running ghostdb-server at this base URL instead of booting one in-process")
	flag.IntVar(&maxInflight, "max-inflight", 64, "loadgen: admission bound of the in-process server")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ghostdb-bench [-scale N] [experiment ...]\nexperiments: %v or all\n", experimentOrder)
		flag.PrintDefaults()
	}
	flag.Parse()

	wanted := flag.Args()
	if len(wanted) == 0 || (len(wanted) == 1 && wanted[0] == "all") {
		wanted = experimentOrder
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed}

	// Most experiments share one database build.
	var shared *core.DB
	sharedDB := func() *core.DB {
		if shared == nil {
			start := time.Now()
			fmt.Printf("building dataset + database at scale %d...\n", cfg.Scale)
			db, _, err := bench.BuildDB(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("loaded in %v (wall clock)\n\n", time.Since(start).Round(time.Millisecond))
			shared = db
		}
		return shared
	}

	if *debugAddr != "" {
		addr, stop, err := ghostdb.ServeDebug(*debugAddr, sharedDB())
		if err != nil {
			log.Fatalf("debug endpoint: %v", err)
		}
		defer stop()
		fmt.Printf("debug endpoint: http://%s/debug/vars and http://%s/metrics\n\n", addr, addr)
	}

	for _, name := range wanted {
		fmt.Printf("==================== %s ====================\n", name)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		var sim0 time.Duration
		if shared != nil {
			sim0 = shared.Clock().Now()
		}
		start := time.Now()
		if err := run(name, cfg, sharedDB); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		wall := time.Since(start)
		fmt.Printf("(%s took %v wall clock)\n\n", name, wall.Round(time.Millisecond))
		if *jsonOut {
			runtime.ReadMemStats(&ms)
			var sim time.Duration
			if shared != nil {
				sim = shared.Clock().Now() - sim0
			}
			rec := benchRecord{
				Name:   name,
				Scale:  cfg.Scale,
				Seed:   cfg.Seed,
				WallNS: wall.Nanoseconds(),
				Allocs: ms.Mallocs - allocs0,
				SimNS:  sim.Nanoseconds(),
			}
			if name == "loadgen" {
				// The server acceptance artifact has its own name.
				rec.Name = "server"
				rec.Server = lastServer
			}
			if err := writeBenchJSON(rec); err != nil {
				log.Fatalf("%s: writing JSON: %v", name, err)
			}
			fmt.Printf("wrote BENCH_%s.json\n\n", rec.Name)
		}
	}

	if *debugAddr != "" && *debugHold > 0 {
		fmt.Printf("experiments done; holding the debug endpoint for %v\n", *debugHold)
		time.Sleep(*debugHold)
	}
}

func run(name string, cfg bench.Config, sharedDB func() *core.DB) error {
	switch name {
	case "fig6":
		fmt.Println("E1 / Figure 6: execution time of every plan for the demo query")
		rows, err := bench.Fig6(sharedDB(), bench.DemoQuery)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatPlanRows(rows))
	case "fig5":
		fmt.Println("E2 / Figure 5: the post-filtering plan with operator popups")
		out, err := bench.Fig5(sharedDB())
		if err != nil {
			return err
		}
		fmt.Print(out)
	case "sweep":
		fmt.Println("E3: pre vs post vs cross filtering across visible selectivity")
		points, err := bench.SelectivitySweep(sharedDB(),
			[]float64{0.001, 0.01, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSweep(points))
	case "baselines":
		fmt.Println("E4: GhostDB vs last-resort joins and join indices (deep query)")
		rows, err := bench.Baselines(sharedDB())
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatBaselines(rows))
	case "storage":
		fmt.Println("E5: the flash storage cost of the indexing model")
		db := sharedDB()
		fmt.Print(bench.FormatStorage(bench.Storage(db), db.RowCount("Prescription")))
	case "bus":
		fmt.Println("E6: USB full speed (12 Mb/s) vs high speed (480 Mb/s)")
		rows, err := bench.BusSpeed(smaller(cfg))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatBus(rows))
	case "spy":
		fmt.Println("E7 / demo phase 1: the spy's view and the leak audit")
		rep, err := bench.Spy(smaller(cfg))
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatSpy(rep))
	case "ram":
		fmt.Println("E8: RAM budget 16KB..256KB")
		rows, err := bench.RAMSweep(smaller(cfg), []int{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatRAM(rows))
	case "writes":
		fmt.Println("E9: flash write/read cost ratio 3x..10x")
		rows, err := bench.WriteRatio(smaller(cfg), []float64{3, 5, 8, 10})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatWrites(rows))
	case "bloom":
		fmt.Println("E10: Bloom filter false-positive rate vs the analytic bound")
		rows, err := bench.BloomFPR([]int{10_000, 100_000, 1_000_000}, []float64{4, 8, 9.6, 12})
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatBloom(rows))
	case "game":
		fmt.Println("E11 / demo phase 3: estimated vs measured per plan")
		rows, pick, err := bench.Game(sharedDB())
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatGame(rows, pick))
	case "ablations":
		fmt.Println("Ablations: the design choices behind the numbers")
		rows, err := bench.Ablations(sharedDB())
		if err != nil {
			return err
		}
		devRow, err := bench.DeviceIndexAblation(smaller(cfg))
		if err != nil {
			return err
		}
		rows = append(rows, devRow)
		fmt.Print(bench.FormatAblations(rows))
	case "loadgen":
		fmt.Printf("HTTP serving: %d concurrent clients x %d requests against ghostdb-server\n", loadClients, loadPerClient)
		var rep *bench.ServerReport
		var err error
		if serverURL != "" {
			rep, err = bench.LoadGenURL(serverURL, loadClients, loadPerClient)
		} else {
			rep, err = bench.LoadGenLocal(smaller(cfg), loadClients, loadPerClient, maxInflight)
		}
		if err != nil {
			return err
		}
		lastServer = rep
		fmt.Print(bench.FormatServerReport(rep))
	default:
		return fmt.Errorf("unknown experiment %q (want one of %v)", name, experimentOrder)
	}
	return nil
}

// smaller caps rebuild-heavy experiments at a friendlier scale.
func smaller(cfg bench.Config) bench.Config {
	if cfg.Scale > 100_000 {
		cfg.Scale = 100_000
	}
	return cfg
}
