// sharded: one logical GhostDB split across four simulated devices.
// The fact table is partitioned on its dense primary key, dimensions
// are replicated, and root-rooted queries run scatter-gather: every
// shard that can hold a matching row executes the plan over its
// partition in parallel and the host merges root-ID streams, aggregate
// partials and top-K candidates.
// Reported simulated time is the max over shards — the devices run
// concurrently — so the same query gets cheaper as shards are added.
//
//	go run ./examples/sharded
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/ghostdb/ghostdb"
)

const aggregate = `SELECT COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre WHERE Pre.Quantity > 2`

func main() {
	// The same synthetic hospital dataset, loaded twice: once on one
	// device, once split over four.
	ds := ghostdb.GenerateDataset(ghostdb.ScaleOf(5000))

	single, err := ghostdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer single.Close()
	if err := single.LoadDataset(ds); err != nil {
		log.Fatal(err)
	}

	sharded, err := ghostdb.Open(ghostdb.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	defer sharded.Close()
	if err := sharded.LoadDataset(ds); err != nil {
		log.Fatal(err)
	}

	// The scatter-gather aggregate: each shard scans only its quarter of
	// the fact table; the host absorbs the raw accumulator states, so
	// COUNT and AVG are exact across shards.
	r1, err := single.Query(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	r4, err := sharded.Query(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate on 1 device:  rows=%v  sim=%v\n", r1.Rows[0], r1.Report.TotalTime)
	fmt.Printf("aggregate on 4 devices: rows=%v  sim=%v (max over shards)\n", r4.Rows[0], r4.Report.TotalTime)
	fmt.Printf("simulated speedup: %.2fx\n\n", float64(r1.Report.TotalTime)/float64(r4.Report.TotalTime))

	// Per-shard execution reports ride along on every scattered result.
	for s, rep := range r4.ShardReports {
		if rep != nil {
			fmt.Printf("  shard %d: %v simulated, %d flash page reads\n", s, rep.TotalTime, rep.Flash.PageReads)
		}
	}
	fmt.Println()

	// A statement keyed on the root's primary key contacts only the
	// devices that own a matching key: the others get no message and
	// spend no simulated time.
	point, err := sharded.Query(`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID IN (42, 46)`)
	if err != nil {
		log.Fatal(err)
	}
	for s, rep := range point.ShardReports {
		if rep == nil {
			fmt.Printf("  shard %d: pruned (owns neither key)\n", s)
		} else {
			fmt.Printf("  shard %d: contacted, %v simulated\n", s, rep.TotalTime)
		}
	}
	fmt.Printf("keyed lookup: rows=%v\n\n", point.Rows)

	// DML routes by shard: the new prescription lands on the device that
	// owns its key range slot, a keyed UPDATE or DELETE visits the owning
	// devices only; CHECKPOINT merges every shard's delta in parallel.
	next, err := sharded.NextID("Prescription")
	if err != nil {
		log.Fatal(err)
	}
	stmt := fmt.Sprintf("INSERT INTO Prescription VALUES (%d, 7, 1, DATE '2007-05-01', 1, 1)", next)
	if _, err := sharded.Exec(stmt); err != nil {
		log.Fatal(err)
	}
	if _, err := sharded.Exec("DELETE FROM Prescription WHERE Quantity BETWEEN 90 AND 94"); err != nil {
		log.Fatal(err)
	}
	if n, err := sharded.Checkpoint(); err != nil {
		log.Fatal(err)
	} else {
		fmt.Printf("CHECKPOINT absorbed %d delta entries across the shard set\n\n", n)
	}

	// ShardInfos summarizes the partitioning for monitoring surfaces
	// (the same data the /debug/vars endpoint serves as "shards").
	for _, si := range sharded.ShardInfos() {
		fmt.Printf("shard %d: %5d root rows, %v simulated, %d B flash\n",
			si.Shard, si.RootRows, si.SimTime, si.Storage.Total)
	}
	fmt.Println()

	// EXPLAIN ANALYZE prints one estimated-vs-actual operator table per
	// shard on a sharded DB.
	a, err := sharded.ExplainAnalyze(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	text := a.Text()
	if i := strings.Index(text, "shard 1:"); i >= 0 {
		text = text[:i] // one shard's table is enough for the demo
	}
	fmt.Print(text)
}
