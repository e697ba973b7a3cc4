// Package bench implements the paper harness: one runner per table and
// figure of the paper's evaluation, plus loadgen, the many-client HTTP
// driver. cmd/ghostdb-bench prints their outputs; the repository-root
// benchmarks (bench_test.go) wrap them in testing.B. How fast the system
// itself is — DML, checkpoints, shards, backends — is benchmark/'s
// question, not this package's.
//
// # Experiment index
//
// Each experiment reports simulated device time, which is deterministic.
// The E-number is the one ghostdb-bench prints in the experiment's banner.
//
//	E    runner               ghostdb-bench  paper           what it measures
//	E1   Fig6                 fig6           Figure 6        execution time of every plan for the demo query
//	E2   Fig5                 fig5           Figure 5        the post-filtering plan with operator popups
//	E3   SelectivitySweep     sweep          -               pre vs post vs cross filtering across visible selectivity
//	E4   Baselines            baselines      -               GhostDB vs last-resort joins and join indices (deep query)
//	E5   Storage              storage        -               the flash storage cost of the indexing model
//	E6   BusSpeed             bus            -               USB full speed (12 Mb/s) vs high speed (480 Mb/s)
//	E7   Spy                  spy            demo phase 1    the spy's view and the leak audit
//	E8   RAMSweep             ram            -               RAM budget 16 KB..256 KB
//	E9   WriteRatio           writes         -               flash write/read cost ratio 3x..10x
//	E10  BloomFPR             bloom          -               Bloom filter false-positive rate vs the analytic bound
//	E11  Game                 game           demo phase 3    estimated vs measured time per plan
//	-    Ablations,           ablations      -               the design choices behind the numbers
//	     DeviceIndexAblation
package bench
