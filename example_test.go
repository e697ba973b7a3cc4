package ghostdb_test

// The paper's demonstration scenarios as testable examples: go test runs
// each one and compares what it prints with its Output comment. Every
// figure printed comes from the deterministic simulator (rows, counts,
// simulated times, device RAM); none is a wall time, a path or a port.

import (
	"cmp"
	"database/sql"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"slices"
	"strings"
	"time"

	"github.com/ghostdb/ghostdb"
	_ "github.com/ghostdb/ghostdb/driver"
	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/stats"
	"github.com/ghostdb/ghostdb/internal/trace"
)

// clinicSchema is the two-table slice of the paper's Figure 3 schema the
// small examples share: Visit.Purpose and the Visit -> Doctor link are
// HIDDEN, everything else (and every primary key) is public.
const clinicSchema = `
CREATE TABLE Doctor (
  DocID INTEGER PRIMARY KEY,
  Name CHAR(40),
  Country CHAR(20));

CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
`

// demoQuery is the query of the paper's Section 4, verbatim.
const demoQuery = `SELECT
Med.Name, Pre.Quantity, Vis.Date
FROM Medicine Med, Prescription Pre, Visit Vis
WHERE
Vis.Date > 05-11-2006 /*VISIBLE*/
AND Vis.Purpose = "Sclerosis" /*HIDDEN*/
AND Med.Type = "Antibiotic"  /*VISIBLE*/
AND Med.MedID = Pre.MedID
AND Vis.VisID = Pre.VisID`

// openHospital opens a database loaded with the synthetic hospital
// dataset of the given number of prescriptions.
func openHospital(prescriptions int, opts ...ghostdb.Option) *ghostdb.DB {
	db, err := ghostdb.Open(opts...)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.LoadDataset(ghostdb.GenerateDataset(ghostdb.ScaleOf(prescriptions))); err != nil {
		log.Fatal(err)
	}
	return db
}

// A two-table database with HIDDEN columns, loaded from a script, and an
// SPJ query mixing a hidden predicate (run only inside the device) with
// a visible one (run on the untrusted side, which ships the matching IDs
// in).
func Example_quickstart() {
	db, err := ghostdb.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	err = db.ExecScript(clinicSchema + `
INSERT INTO Doctor VALUES
  (1, 'Dr. Ellis', 'France'),
  (2, 'Dr. Gall',  'Spain'),
  (3, 'Dr. Novak', 'France');

INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup',   1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1),
  (4, DATE '2006-12-24', 'Flu',       2),
  (5, DATE '2007-03-05', 'Sclerosis', 3);
`)
	if err != nil {
		log.Fatal(err)
	}

	res, err := db.Query(`
SELECT Vis.VisID, Vis.Date, Vis.Purpose, Doc.Name
FROM Visit Vis, Doctor Doc
WHERE Vis.Purpose = 'Sclerosis'  /*HIDDEN*/
  AND Doc.Country = 'France'     /*VISIBLE*/
  AND Vis.DocID = Doc.DocID`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("columns:", res.Columns)
	for _, row := range res.Rows {
		fmt.Println("  ", row)
	}
	fmt.Printf("plan %s finished in %v simulated device time\n", res.Spec.Label, res.Report.TotalTime)
	fmt.Printf("device RAM peak: %d bytes of the %d-byte budget\n", res.Report.RAMHigh, db.Device().RAM.Budget())

	// Output:
	// columns: [Visit.VisID Visit.Date Visit.Purpose Doctor.Name]
	//    [3 2007-02-01 Sclerosis Dr. Ellis]
	//    [5 2007-03-05 Sclerosis Dr. Novak]
	// plan P1 finished in 10.094266ms simulated device time
	// device RAM peak: 43004 bytes of the 65536-byte budget
}

// Demo phase 1, "checking security": the Section 4 query with full
// payload capture, what a spy on the terminal sees on the wires, and
// the leak auditor's proof that no hidden value crossed into that view.
func Example_spyTrace() {
	db := openHospital(20_000, ghostdb.WithCapture(ghostdb.CaptureFull))
	defer db.Close()
	res, err := db.Query(demoQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query returned %d rows (delivered only to the secure display)\n", len(res.Rows))

	spy := db.Recorder().SpyView()
	fmt.Printf("what the spy sees: %d messages\n", len(spy))
	for i, e := range spy {
		if i == 6 {
			fmt.Printf("  ... %d more messages of the same kinds ...\n", len(spy)-i)
			break
		}
		fmt.Println(" ", e.String())
	}
	fmt.Println("per-channel totals:")
	for _, tot := range trace.Totals(spy) {
		fmt.Printf("  %-8s -> %-8s %-11s %d msgs %5d bytes\n", tot.From, tot.To, tot.Kind, tot.Messages, tot.Bytes)
	}

	all := db.Recorder().Events()
	secure := 0
	for _, e := range all {
		if !e.SpyVisible() {
			secure++
		}
	}
	fmt.Printf("secure device->display messages hidden from the spy: %d\n", secure)
	leaks := trace.Audit(all, db.HiddenValues().Contains)
	fmt.Printf("leak audit over %d hidden values: %d leaks\n", db.HiddenValues().Len(), len(leaks))

	// Output:
	// query returned 288 rows (delivered only to the secure display)
	// what the spy sees: 16 messages
	//   [    1.378ms] terminal -> device   query          226B  SELECT Med.Name, Pre.Quantity, Vis.Date FROM Medicine Med, Prescription Pre, Visit Vis WHERE Vis.Date > '2006-11-05' AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic' AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID
	//   [    1.581ms] terminal -> server   query          226B  SELECT Med.Name, Pre.Quantity, Vis.Date FROM Medicine Med, Prescription Pre, Visit Vis WHERE Vis.Date > '2006-11-05' AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic' AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID
	//   [    1.781ms] terminal -> server   delegation      25B  Visit.Date > '2006-11-05'
	//   [    1.981ms] server   -> terminal count            8B  |Visit.Date|=349
	//   [    2.181ms] terminal -> server   delegation      28B  Medicine.Type = 'Antibiotic'
	//   [    2.381ms] server   -> terminal count            8B  |Medicine.Type|=5
	//   ... 10 more messages of the same kinds ...
	// per-channel totals:
	//   server   -> terminal count       2 msgs    16 bytes
	//   server   -> terminal id-list     2 msgs  1416 bytes
	//   server   -> terminal projection  3 msgs  2867 bytes
	//   terminal -> device   id-list     2 msgs  1416 bytes
	//   terminal -> device   projection  3 msgs  2867 bytes
	//   terminal -> device   query       1 msgs   226 bytes
	//   terminal -> server   delegation  2 msgs    53 bytes
	//   terminal -> server   query       1 msgs   226 bytes
	// secure device->display messages hidden from the spy: 7
	// leak audit over 225 hidden values: 0 leaks
}

// The paper's demonstration scenario (Section 5): the hospital dataset,
// the device's flash footprint, the Section 4 query under the optimizer
// with the per-operator report the demo GUI shows, and the plan's
// explanation.
func Example_hospital() {
	db := openHospital(20_000)
	defer db.Close()
	st := db.Storage()
	fmt.Printf("device flash: base columns %.1f MB, SKTs %.1f MB, climbing indexes %.1f MB\n",
		mb(st.BaseColumns), mb(st.SKTs), mb(st.Climbing))

	res, err := db.Query(demoQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d result rows; the first three:\n", len(res.Rows))
	for _, row := range res.Rows[:3] {
		fmt.Println("  ", row)
	}
	fmt.Print(res.Report.String())

	q, err := db.Prepare(demoQuery)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(db.Explain(q, res.Spec))

	// Output:
	// device flash: base columns 0.7 MB, SKTs 0.3 MB, climbing indexes 0.5 MB
	// 288 result rows; the first three:
	//    [Med-00002 73 2007-04-29]
	//    [Med-00002 12 2006-11-12]
	//    [Med-00011 78 2007-05-10]
	// plan P4: 288 rows in 97.00ms (device RAM peak 44.0KB, bus 4.4KB in 6 msgs)
	// flash: 492 page reads, 26 pages programmed, 0 erases
	//   ClimbingIndex(Visit.Purpose = 'Sclerosis') in=0         out=581       ram=0B       t=0ns
	//   ShipIDList(Visit)          in=349       out=349       ram=0B       t=2.91ms
	//   MergeLists(Visit)          in=0         out=0         ram=0B       t=0ns
	//   Translate(Visit->Prescription (cross)) in=104       out=1074      ram=0B       t=18.06ms
	//   BloomBuild(Medicine fpr=0.0021) in=5         out=0         ram=8B       t=1.27ms
	//   AccessSKT(Prescription)    in=1074      out=1074      ram=0B       t=0ns
	//   Filter(1 probes)           in=1074      out=288       ram=0B       t=0ns
	//   Store(materialize candidates) in=288       out=288       ram=16.0KB   t=22.98ms
	//   Sort(by Medicine)          in=288       out=288       ram=24.0KB   t=1.64ms
	//   MergeProject(Medicine.Name) in=288       out=288       ram=0B       t=9.62ms
	//   Sort(by Visit)             in=288       out=288       ram=24.0KB   t=2.04ms
	//   MergeProject(Visit.Date)   in=288       out=288       ram=0B       t=10.68ms
	//   Project(hidden + keys)     in=288       out=288       ram=0B       t=19.98ms
	// plan P4 for SELECT Med.Name, Pre.Quantity, Vis.Date FROM Medicine Med, Prescription Pre, Visit Vis WHERE Vis.Date > '2006-11-05' AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic' AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID
	// query root: Prescription  [cross-filtering]
	//   pre-filter   UNTRUSTED  Visit.Date > '2006-11-05'
	//   climbing-index DEVICE     Visit.Purpose = 'Sclerosis'
	//   post-filter  UNTRUSTED  Medicine.Type = 'Antibiotic'
	//   pipeline: [selections] -> merge/translate -> Access SKT -> bloom/verify -> Store -> project -> secure display
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// Demo phases 2 and 3, "testing the query engine and playing a game":
// every plan for the Section 4 query (each visible predicate pre- or
// post-filtered, with and without cross-filtering) run by hand, ranked
// by simulated time as in the paper's Figure 6, against the optimizer's
// own pick.
func Example_planLab() {
	db := openHospital(20_000)
	defer db.Close()
	const sel = 0.19 // selectivity of the visible date predicate
	query := fmt.Sprintf(`SELECT Med.Name, Pre.Quantity, Vis.Date
FROM Medicine Med, Prescription Pre, Visit Vis
WHERE Vis.Date > '%s' AND Vis.Purpose = 'Sclerosis' AND Med.Type = 'Antibiotic'
AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`, datagen.DateCutoff(sel))
	q, err := db.Prepare(query)
	if err != nil {
		log.Fatal(err)
	}

	type run struct {
		label, desc string
		res         *ghostdb.Result
	}
	var runs []run
	for _, spec := range db.Plans(q) {
		res, err := db.QueryWithPlan(q, spec)
		if err != nil {
			log.Fatalf("%s: %v", spec.Label, err)
		}
		runs = append(runs, run{spec.Label, spec.Describe(q), res})
	}
	slices.SortStableFunc(runs, func(a, b run) int {
		return cmp.Compare(a.res.Report.TotalTime, b.res.Report.TotalTime)
	})
	fmt.Printf("%d candidate plans at Vis.Date selectivity %.0f%%, best first:\n", len(runs), sel*100)
	worst := runs[len(runs)-1].res.Report.TotalTime
	for _, r := range runs {
		rep := r.res.Report
		fmt.Printf("  %-3s %8.2fms  ram %6s  %3d rows  %s\n       %s\n", r.label, float64(rep.TotalTime)/1e6,
			stats.FormatBytes(rep.RAMHigh), len(r.res.Rows), strings.Repeat("#", 1+int(40*rep.TotalTime/worst)), r.desc)
	}

	auto, err := db.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("the optimizer picked %s; the fastest was %s\n", auto.Spec.Label, runs[0].label)
	fmt.Print(runs[0].res.Report.String())

	// Output:
	// 6 candidate plans at Vis.Date selectivity 19%, best first:
	//   P4     99.54ms  ram 44.0KB  299 rows  ######################
	//        P4[Visit.Date:pre Visit.Purpose:index Medicine.Type:post cross]
	//   P2    111.55ms  ram 42.2KB  299 rows  #########################
	//        P2[Visit.Date:post Visit.Purpose:index Medicine.Type:pre]
	//   P6    116.28ms  ram 48.0KB  299 rows  ##########################
	//        P6[Visit.Date:pre Visit.Purpose:index Medicine.Type:pre cross]
	//   P1    151.93ms  ram 42.2KB  299 rows  ##################################
	//        P1[Visit.Date:post Visit.Purpose:index Medicine.Type:post]
	//   P3    167.42ms  ram 44.0KB  299 rows  #####################################
	//        P3[Visit.Date:pre Visit.Purpose:index Medicine.Type:post]
	//   P5    183.01ms  ram 48.0KB  299 rows  #########################################
	//        P5[Visit.Date:pre Visit.Purpose:index Medicine.Type:pre]
	// the optimizer picked P4; the fastest was P4
	// plan P4: 299 rows in 99.54ms (device RAM peak 44.0KB, bus 4.5KB in 6 msgs)
	// flash: 506 page reads, 26 pages programmed, 0 erases
	//   ClimbingIndex(Visit.Purpose = 'Sclerosis') in=0         out=581       ram=0B       t=152.4µs
	//   ShipIDList(Visit)          in=355       out=355       ram=0B       t=2.93ms
	//   MergeLists(Visit)          in=0         out=0         ram=0B       t=0ns
	//   Translate(Visit->Prescription (cross)) in=108       out=1123      ram=0B       t=18.58ms
	//   BloomBuild(Medicine fpr=0.0021) in=5         out=0         ram=8B       t=1.27ms
	//   AccessSKT(Prescription)    in=1123      out=1123      ram=0B       t=0ns
	//   Filter(1 probes)           in=1123      out=299       ram=0B       t=0ns
	//   Store(materialize candidates) in=299       out=299       ram=16.0KB   t=23.72ms
	//   Sort(by Medicine)          in=299       out=299       ram=24.0KB   t=1.62ms
	//   MergeProject(Medicine.Name) in=299       out=299       ram=0B       t=9.79ms
	//   Sort(by Visit)             in=299       out=299       ram=24.0KB   t=2.11ms
	//   MergeProject(Visit.Date)   in=299       out=299       ram=0B       t=10.83ms
	//   Project(hidden + keys)     in=299       out=299       ram=0B       t=20.59ms
}

// One logical database over four simulated devices: the fact table is
// partitioned on its dense primary key and the dimensions replicated. A
// root-rooted aggregate runs scatter-gather (simulated time is the
// slowest shard's, the devices run concurrently), a keyed lookup
// contacts only the shard that owns the keys, DML routes by key, and
// CHECKPOINT merges every shard's delta.
func Example_sharded() {
	const aggregate = `SELECT COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre WHERE Pre.Quantity > 2`
	single := openHospital(5000)
	defer single.Close()
	sharded := openHospital(5000, ghostdb.WithShards(4))
	defer sharded.Close()

	r1, err := single.Query(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	r4, err := sharded.Query(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate on 1 device:  %v in %v simulated\n", r1.Rows[0], r1.Report.TotalTime)
	fmt.Printf("aggregate on 4 devices: %v in %v simulated (slowest shard)\n", r4.Rows[0], r4.Report.TotalTime)
	for s, rep := range r4.ShardReports {
		fmt.Printf("  shard %d: %v simulated, %d flash page reads\n", s, rep.TotalTime, rep.Flash.PageReads)
	}

	point, err := sharded.Query(`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID IN (42, 46)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("keyed lookup: %v\n", point.Rows)
	for s, rep := range point.ShardReports {
		if rep == nil {
			fmt.Printf("  shard %d: pruned (owns neither key)\n", s)
		} else {
			fmt.Printf("  shard %d: contacted, %v simulated\n", s, rep.TotalTime)
		}
	}

	next, err := sharded.NextID("Prescription")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sharded.Exec(fmt.Sprintf("INSERT INTO Prescription VALUES (%d, 7, 1, DATE '2007-05-01', 1, 1)", next)); err != nil {
		log.Fatal(err)
	}
	if _, err := sharded.Exec("DELETE FROM Prescription WHERE Quantity BETWEEN 90 AND 94"); err != nil {
		log.Fatal(err)
	}
	n, err := sharded.Checkpoint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CHECKPOINT absorbed %d delta entries across the shard set\n", n)
	for _, si := range sharded.ShardInfos() {
		fmt.Printf("  shard %d: %d root rows, %v simulated, %d B flash\n", si.Shard, si.RootRows, si.SimTime, si.Storage.Total)
	}

	// EXPLAIN ANALYZE prints one estimated-vs-actual table per shard;
	// shard 0's is enough here.
	a, err := sharded.ExplainAnalyze(aggregate)
	if err != nil {
		log.Fatal(err)
	}
	text, _, _ := strings.Cut(a.Text(), "shard 1:")
	fmt.Print(text)

	// Output:
	// aggregate on 1 device:  [4896 52.6952614379085] in 137.24367ms simulated
	// aggregate on 4 devices: [4896 52.6952614379085] in 43.03799ms simulated (slowest shard)
	//   shard 0: 42.87019ms simulated, 117 flash page reads
	//   shard 1: 43.03799ms simulated, 117 flash page reads
	//   shard 2: 42.90503ms simulated, 117 flash page reads
	//   shard 3: 42.92703ms simulated, 117 flash page reads
	// keyed lookup: [[42 38] [46 67]]
	//   shard 0: pruned (owns neither key)
	//   shard 1: contacted, 4.55302ms simulated
	//   shard 2: pruned (owns neither key)
	//   shard 3: pruned (owns neither key)
	// CHECKPOINT absorbed 249 delta entries across the shard set
	//   shard 0: 1198 root rows, 78.524401ms simulated, 198656 B flash
	//   shard 1: 1189 root rows, 83.708919ms simulated, 198656 B flash
	//   shard 2: 1191 root rows, 77.514702ms simulated, 198656 B flash
	//   shard 3: 1175 root rows, 77.567533ms simulated, 198656 B flash
	// EXPLAIN ANALYZE
	// plan P1 for SELECT COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre WHERE Pre.Quantity > 2
	// query root: Prescription
	//   climbing-index DEVICE     Prescription.Quantity > 2
	//   pipeline: [selections] -> merge/translate -> Access SKT -> Store -> project -> secure display
	// estimated: 1168 candidates, 1168 survivors, 14.01ms simulated
	// shard 0: plan P1[Prescription.Quantity:index], 40.21ms simulated; estimated 1168 candidates, 1168 survivors, 14.01ms simulated
	// operator                            est         in        out       ram          sim
	// ClimbingIndex(Prescription.Quantity > 2)       1168          0       1168        0B          0ns
	// MergeLists(Prescription@Prescription)          -          0       1168        0B          0ns
	// AccessSKT(Prescription)            1168       1168       1168        0B          0ns
	// Filter(0 probes)                   1168          0          0        0B          0ns
	// Store(materialize candidates)       1168       1168       1168    16.0KB       5.47ms
	// Project(hidden + keys)             1168       1168       1168        0B      948.9µs
}

// A hostile device: a fault plan injects transient flash read errors
// (absorbed by retry with backoff) and yanks the key at a fixed device
// operation. CHECKPOINT commits by flipping one A/B record, so recovery
// from the dead key's flash image lands on the last committed version:
// the checkpointed insert survives, the volatile update does not.
func Example_faulty() {
	plan, err := ghostdb.ParseFaultPlan("seed=7,read.transient=0.01,cutop=4000")
	if err != nil {
		log.Fatal(err)
	}
	db, err := ghostdb.Open(ghostdb.WithFaultPlan(plan))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(clinicSchema + `
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-03-05', 'Sclerosis', 2)`); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec(`UPDATE Visit SET Purpose = 'Recovered' WHERE VisID = 2`); err != nil {
		log.Fatal(err)
	}
	fmt.Println("committed an insert (CHECKPOINT), then left an update in the RAM delta")

	const q = `SELECT COUNT(*) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`
	survived := 0
	for ; survived < 10_000; survived++ {
		if _, err := db.Query(q); err != nil {
			if !ghostdb.IsDeviceDead(err) {
				log.Fatal(err)
			}
			break
		}
	}
	fmt.Printf("device died after %d more queries: %v\n", survived, db.FatalError())
	if m, ok := db.MetricsSnapshot().Get("faults_retried_total"); ok {
		fmt.Printf("transient faults absorbed by retry before the cut: %d\n", m.Value)
	}

	snap, err := db.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	rdb, info, err := ghostdb.Recover(snap)
	if err != nil {
		log.Fatal(err)
	}
	defer rdb.Close()
	res, err := rdb.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered at version %d (rolled back: %v): %v sclerosis visits\n", info.Version, info.RolledBack, res.Rows[0][0])

	// Output:
	// committed an insert (CHECKPOINT), then left an update in the RAM delta
	// device died after 493 more queries: core: device unavailable: exec: row file read: fault: power cut: at device op 4000 (read)
	// transient faults absorbed by retry before the cut: 27
	// recovered at version 1 (rolled back: false): 3 sclerosis visits
}

// A database that outlives its process: the file backend maps the
// device's NAND onto segment files, so a CHECKPOINT is durable on disk.
// Reopening the directory recovers the newest commit record; the
// uncommitted RAM delta is gone, as after a power cut. database/sql
// reopens the same directory with backend=file.
func Example_fileDB() {
	dir, err := os.MkdirTemp("", "ghostdb-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := ghostdb.Open(ghostdb.WithBackend(ghostdb.FileBackend(dir, false)))
	if err != nil {
		log.Fatal(err)
	}
	if err := db.ExecScript(clinicSchema + `
INSERT INTO Doctor VALUES (1, 'Dr. Ellis', 'France'), (2, 'Dr. Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2007-01-10', 'Checkup',   1),
  (2, DATE '2007-02-01', 'Sclerosis', 1);
`); err != nil {
		log.Fatal(err)
	}
	// The first statement finalizes the bulk load (version 0); the live
	// insert lands in the RAM delta and CHECKPOINT commits version 1.
	if _, err := db.Exec("INSERT INTO Visit VALUES (3, DATE '2007-03-05', 'Sclerosis', 2)"); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO Visit VALUES (4, DATE '2007-04-01', 'Flu', 2)"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpointed 3 visits, left 1 uncommitted, closing")
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("directory holds a database:", ghostdb.PathHoldsDatabase(dir))
	db, info, err := ghostdb.OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened at committed version %d (rolled back: %v)\n", info.Version, info.RolledBack)
	res, err := db.Query(`SELECT Vis.VisID, Vis.Date, Vis.Purpose FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println("  ", row)
	}
	fmt.Printf("visits on device: %d\n", db.RowCount("Visit"))
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}

	sqlDB, err := sql.Open("ghostdb", "ghostdb://?backend=file&path="+url.QueryEscape(dir))
	if err != nil {
		log.Fatal(err)
	}
	defer sqlDB.Close()
	var n int
	if err := sqlDB.QueryRow("SELECT COUNT(*) FROM Visit Vis").Scan(&n); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("database/sql over the same directory sees %d visits\n", n)

	// Output:
	// checkpointed 3 visits, left 1 uncommitted, closing
	// directory holds a database: true
	// reopened at committed version 1 (rolled back: false)
	//    [2 2007-02-01 Sclerosis]
	//    [3 2007-03-05 Sclerosis]
	// visits on device: 3
	// database/sql over the same directory sees 3 visits
}

// wallFigure matches the wall-clock figure of an EXPLAIN ANALYZE text.
var wallFigure = regexp.MustCompile(`\S+ wall`)

// Every observability surface on one small workload: EXPLAIN ANALYZE
// (estimated vs actual rows per operator), a query hook and the
// slow-query logger, the delta summary around a CHECKPOINT, the metrics
// registry, and the debug endpoint's Prometheus text. Wall-clock
// figures vary from run to run, so only their presence is printed.
func Example_observability() {
	var finished int
	db, err := ghostdb.Open(
		ghostdb.WithQueryHook(func(ev ghostdb.QueryEvent) {
			if ev.Phase == ghostdb.QueryFinish {
				finished++
			}
		}),
		ghostdb.WithSlowQuery(time.Minute, nil),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	if err := db.ExecScript(clinicSchema + `
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain');
INSERT INTO Visit VALUES
  (1, DATE '2006-01-10', 'Checkup', 1),
  (2, DATE '2006-11-20', 'Sclerosis', 2),
  (3, DATE '2007-02-01', 'Sclerosis', 1);
`); err != nil {
		log.Fatal(err)
	}

	a, err := db.ExplainAnalyze(`SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc
WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France' AND Vis.DocID = Doc.DocID`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(wallFigure.ReplaceAllString(a.Text(), "<wall> wall"))
	fmt.Println("wall time measured:", a.Wall > 0)

	if _, err := db.Exec(`INSERT INTO Visit VALUES (4, DATE '2007-03-05', 'Flu', 2)`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delta before checkpoint: %+v\n", db.DeltaSummary())
	if _, err := db.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delta after checkpoint:  %+v\n", db.DeltaSummary())

	fmt.Printf("hooks saw %d queries finish; registry:\n", finished)
	for _, m := range db.MetricsSnapshot() {
		switch {
		case m.Hist != nil && strings.HasSuffix(m.Name, "_wall_ns"):
			fmt.Printf("  %-36s count=%d\n", m.Name, m.Hist.Count)
		case m.Hist != nil && strings.HasSuffix(m.Name, "_ns"):
			fmt.Printf("  %-36s count=%d p50<=%v\n", m.Name, m.Hist.Count, time.Duration(m.Hist.Quantile(0.5)))
		case m.Hist != nil:
			fmt.Printf("  %-36s count=%d p50<=%d\n", m.Name, m.Hist.Count, m.Hist.Quantile(0.5))
		case m.Value != 0:
			fmt.Printf("  %-36s %d\n", m.Name, m.Value)
		}
	}

	addr, stop, err := ghostdb.ServeDebug("127.0.0.1:0", db)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("GET /metrics, first lines:")
	for _, line := range strings.SplitN(string(body), "\n", 5)[:4] {
		fmt.Println(" ", line)
	}

	// Output:
	// EXPLAIN ANALYZE
	// plan P1 for SELECT Vis.VisID, Doc.Name FROM Visit Vis, Doctor Doc WHERE Vis.Purpose = 'Sclerosis' AND Doc.Country = 'France' AND Vis.DocID = Doc.DocID
	// query root: Visit
	//   climbing-index DEVICE     Visit.Purpose = 'Sclerosis'
	//   post-filter  UNTRUSTED  Doctor.Country = 'France'
	//   pipeline: [selections] -> merge/translate -> Access SKT -> bloom/verify -> Store -> project -> secure display
	// estimated: 2 candidates, 1 survivors, 4.44ms simulated
	// operator                            est         in        out       ram          sim
	// ClimbingIndex(Visit.Purpose = 'Sclerosis')          2          0          2        0B          0ns
	// MergeLists(Visit@Visit)               -          0          0        0B          0ns
	// BloomBuild(Doctor fpr=0.0000)          -          1          0        8B       1.24ms
	// AccessSKT(Visit)                      2          2          2        0B          0ns
	// Filter(1 probes)                      1          2          1        0B          0ns
	// Store(materialize candidates)          1          1          1    16.0KB      433.2µs
	// Sort(by Doctor)                       -          1          1    24.0KB      277.0µs
	// MergeProject(Doctor.Name)             -          1          1        0B       2.30ms
	// Project(hidden + keys)                1          1          1        0B       76.4µs
	// actual: 1 rows in 7.28ms simulated, <wall> wall (estimated 4.44ms simulated)
	// wall time measured: true
	// delta before checkpoint: {Tables:1 Rows:1 Tombstones:0 DeviceBytes:11 HostBytes:6 Checkpoints:0}
	// delta after checkpoint:  {Tables:0 Rows:0 Tombstones:0 DeviceBytes:0 HostBytes:0 Checkpoints:1}
	// hooks saw 1 queries finish; registry:
	//   batches_pulled_total                 2
	//   bus_bytes_total                      153
	//   checkpoint_commit_wall_ns            count=1
	//   checkpoint_prepare_wall_ns           count=1
	//   checkpoint_rebuild_climbing_wall_ns  count=1
	//   checkpoint_rebuild_columns_wall_ns   count=1
	//   checkpoint_rebuild_skt_wall_ns       count=1
	//   checkpoint_rebuild_wall_ns           count=1
	//   checkpoint_sim_ns                    count=1 p50<=8.388608ms
	//   checkpoint_wall_ns                   count=1
	//   checkpoints_total                    1
	//   commit_record_sim_ns_total           3421150
	//   dml_statements_total                 3
	//   flash_page_reads_total               5
	//   plan_cache_misses_total              1
	//   queries_total                        1
	//   query_sim_ns                         count=1 p50<=8.388608ms
	//   query_wall_ns                        count=1
	//   ram_high_water_bytes                 43004
	//   recovery_wall_ns                     count=0
	//   rows_affected_total                  6
	//   rows_returned_total                  1
	//   shard_route_total{route="scatter"}   1
	//   shards_contacted                     count=1 p50<=2
	//   tombstone_probes_total               7
	//   visible_selects_indexed_total        1
	// GET /metrics, first lines:
	//   # HELP ghostdb_batches_pulled_total vectorized batches pulled through the root stream
	//   # TYPE ghostdb_batches_pulled_total counter
	//   ghostdb_batches_pulled_total 2
	//   # HELP ghostdb_bus_bytes_total bytes that crossed the terminal-device wire
}
