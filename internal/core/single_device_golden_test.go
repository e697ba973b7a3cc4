package core

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/trace"
	"github.com/ghostdb/ghostdb/internal/value"
)

// What a single-device user sees, frozen. testdata/single_device_golden.txt
// holds, for the Tiny dataset on the default and the 16 KB device, on the
// simulated and the file backend, statement by statement: a digest of the
// rows, the execution report (simulated time, flash, bus, RAM high-water),
// the spy's per-channel totals, then the EXPLAIN ANALYZE text of six shapes
// (wall time blanked), the metrics registry (wall histograms by count
// only), and on the file backend the directory listing and the sidecar's
// hash. It was written before the single-device engine became a front door
// over one device engine; it is replayed, never regenerated.
//
// Statements marked "empty" have a root-key predicate that admits no key.
// Their one allowed change is that no device is contacted: the same rows
// (or affected count), zero simulated time, no bus message. They run last,
// after the registry and the directory were recorded, so the device work
// they may skip cannot show in any other line.

const singleDeviceGoldenPath = "testdata/single_device_golden.txt"

// singleDeviceSection is one configuration of the golden.
type singleDeviceSection struct {
	profile string // "default" or "16k"
	backend string // "sim" or "file"
}

func (s singleDeviceSection) String() string { return s.profile + "/" + s.backend }

func singleDeviceSections() []singleDeviceSection {
	var out []singleDeviceSection
	for _, profile := range []string{"default", "16k"} {
		for _, backend := range []string{"sim", "file"} {
			out = append(out, singleDeviceSection{profile, backend})
		}
	}
	return out
}

// singleDeviceScript is the DML script replayed after the corpus: keyed
// and predicate DML on the root and on a dimension, hidden and visible
// columns, a virtual delete cascade, and two CHECKPOINTs, with queries over
// the dirty and the merged state. Tiny has 600 prescriptions, 60
// visits, 6 patients, 2 doctors and 2 medicines.
var singleDeviceScript = []string{
	`INSERT INTO Visit VALUES (61, DATE '2007-03-03', 'Canary Purpose', 2, 5)`,
	`INSERT INTO Prescription VALUES (601, 4, 2, DATE '2007-03-04', 2, 61), (602, 9, 1, DATE '2007-03-05', 1, 12)`,
	`UPDATE Prescription SET Quantity = 77 WHERE PreID = 5`,
	`UPDATE Prescription SET Frequency = 9 WHERE PreID BETWEEN 20 AND 40`,
	`UPDATE Visit SET Purpose = 'Hidden Update' WHERE VisID = 3`,
	`DELETE FROM Prescription WHERE PreID IN (10, 11, 12)`,
	`DELETE FROM Visit WHERE VisID = 4`,
	paperQuery,
	`SELECT Pre.PreID, Pre.Quantity, Pre.Frequency FROM Prescription Pre WHERE Pre.PreID < 45`,
	`SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.VisID < 10`,
	`CHECKPOINT`,
	paperQuery,
	`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID >= 580`,
	`UPDATE Prescription SET Quantity = 5 WHERE Frequency = 9`,
	`DELETE FROM Prescription WHERE PreID > 585`,
	`INSERT INTO Prescription VALUES (593, 1, 1, DATE '2007-04-01', 1, 1)`,
	`SELECT COUNT(*), SUM(Pre.Quantity) FROM Prescription Pre WHERE Pre.Frequency = 9`,
	`CHECKPOINT`,
	`SELECT Pre.PreID, Pre.Quantity, Vis.Purpose FROM Prescription Pre, Visit Vis WHERE Vis.VisID = Pre.VisID AND Pre.PreID > 580`,
}

// singleDeviceShapes are the six EXPLAIN ANALYZE shapes.
var singleDeviceShapes = []string{
	paperQuery,
	`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = 7`,
	`SELECT Pre.Frequency, COUNT(*) FROM Prescription Pre WHERE Pre.PreID BETWEEN 50 AND 400 GROUP BY Pre.Frequency`,
	`SELECT Vis.VisID, Vis.Purpose FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`,
	`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity > 3 ORDER BY Pre.Quantity DESC LIMIT 5`,
	`SELECT DISTINCT Med.Type FROM Prescription Pre, Medicine Med WHERE Med.MedID = Pre.MedID AND Pre.WhenWritten > DATE '2006-06-01'`,
}

// singleDeviceEmpty are the marked statements: their root-key predicates
// admit no key of the 586 root rows the script leaves.
var singleDeviceEmpty = []string{
	`SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = 587`,
	`SELECT COUNT(*) FROM Prescription Pre WHERE Pre.PreID > 586`,
	`UPDATE Prescription SET Quantity = 1 WHERE PreID = 587`,
	`DELETE FROM Prescription WHERE PreID BETWEEN 700 AND 800`,
}

var explainWall = regexp.MustCompile(`simulated, \S+ wall \(`)

// singleDeviceRecords replays one section on a fresh single-device
// database and renders its golden lines.
func singleDeviceRecords(t *testing.T, sec singleDeviceSection) []string {
	t.Helper()
	var opts []Option
	if sec.profile == "16k" {
		opts = append(opts, WithProfile(SmallProfileForTest()))
	}
	dir := ""
	if sec.backend == "file" {
		dir = fileBackendDir(t)
		opts = append(opts, WithBackend(storage.File(dir, false)))
	}
	ds := datagen.Generate(datagen.Tiny())
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.LoadDataset(ds); err != nil {
		t.Fatal(err)
	}

	var out []string
	emit := func(format string, args ...any) {
		out = append(out, sec.String()+" "+fmt.Sprintf(format, args...))
	}
	stmts := append(estimateCorpus(ds), singleDeviceScript...)
	for i, s := range stmts {
		emit("s%d %s", i, singleDeviceStatement(t, db, s))
	}
	for i, s := range singleDeviceShapes {
		a, err := db.ExplainAnalyze(s)
		if err != nil {
			t.Fatalf("%s: EXPLAIN ANALYZE %q: %v", sec, s, err)
		}
		text := explainWall.ReplaceAllString(a.Text(), "simulated, - wall (")
		for j, ln := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			emit("x%d.%d %s", i, j, ln)
		}
	}
	for _, v := range db.MetricsSnapshot() {
		switch {
		case v.Hist == nil:
			emit("m %s %s %d", v.Name, v.Kind, v.Value)
		case strings.Contains(v.Name, "wall"):
			emit("m %s histogram count=%d", v.Name, v.Hist.Count)
		default:
			emit("m %s histogram count=%d sum=%d", v.Name, v.Hist.Count, v.Hist.Sum)
		}
	}
	if dir != "" {
		for _, ln := range dirListing(t, dir) {
			emit("f %s", ln)
		}
	}
	for i, s := range singleDeviceEmpty {
		emit("e%d empty %s", i, singleDeviceStatement(t, db, s))
	}
	return out
}

// singleDeviceStatement runs one statement and renders what it showed: a
// query's row digest and report, a DML statement's affected count and the
// device clock and flash work it caused, and either's spy totals.
func singleDeviceStatement(t *testing.T, db *DB, s string) string {
	t.Helper()
	db.Recorder().Reset()
	var line string
	if strings.HasPrefix(s, "SELECT") {
		res, err := db.Query(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		r := res.Report
		line = fmt.Sprintf("rows=%d digest=%s sim=%d flash=%+v bus=%d/%d ram=%d",
			len(res.Rows), rowsDigest(res.Rows), int64(r.TotalTime), r.Flash, r.BusBytes, r.BusMsgs, r.RAMHigh)
	} else {
		sim0, flash0 := db.Clock().Now(), db.Device().Flash.Stats()
		n, err := db.Exec(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		line = fmt.Sprintf("affected=%d sim=%d flash=%+v",
			n, int64(db.Clock().Now()-sim0), db.Device().Flash.Stats().Sub(flash0))
	}
	var spy []string
	for _, c := range trace.Totals(db.Recorder().SpyView()) {
		spy = append(spy, fmt.Sprintf("%s>%s:%s=%d/%d", c.From, c.To, c.Kind, c.Messages, c.Bytes))
	}
	return line + " spy=[" + strings.Join(spy, " ") + "]"
}

// rowsDigest hashes rows in order, each value in its canonical encoding.
func rowsDigest(rows [][]value.Value) string {
	h := sha256.New()
	var buf []byte
	for _, r := range rows {
		buf = buf[:0]
		for _, v := range r {
			buf = v.Append(buf)
		}
		fmt.Fprintf(h, "%d:", len(buf))
		h.Write(buf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// dirListing lists a device directory's files (relative path and size,
// sorted) and hashes the sidecar.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out = append(out, fmt.Sprintf("%s %d", filepath.ToSlash(rel), info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	blob, err := os.ReadFile(filepath.Join(dir, sidecarName))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fmt.Sprintf("sidecar sha256=%x", sha256.Sum256(blob)))
}

// TestSingleDeviceGolden replays every section and holds each line to the
// frozen golden; a marked line may differ only in the way the file comment
// allows, and the registry may carry the routing metrics besides.
func TestSingleDeviceGolden(t *testing.T) {
	golden, err := os.ReadFile(singleDeviceGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(golden), "\n"), "\n")
	for _, sec := range singleDeviceSections() {
		t.Run(sec.String(), func(t *testing.T) {
			var want []string
			for _, ln := range lines {
				if strings.HasPrefix(ln, sec.String()+" ") {
					want = append(want, ln)
				}
			}
			if len(want) == 0 {
				t.Fatalf("%s has no section %s", singleDeviceGoldenPath, sec)
			}
			got := slices.DeleteFunc(singleDeviceRecords(t, sec), func(ln string) bool {
				return singleDeviceAddition.MatchString(ln)
			})
			if len(got) != len(want) {
				t.Errorf("%d lines, golden has %d", len(got), len(want))
			}
			for i := 0; i < len(want) && i < len(got); i++ {
				if got[i] == want[i] {
					continue
				}
				if strings.Contains(want[i], " empty ") && emptyRangeAllowed(want[i], got[i]) {
					continue
				}
				t.Fatalf("line %d:\nwant %s\ngot  %s", i, want[i], got[i])
			}
		})
	}
}

// singleDeviceAddition matches the registry lines a single-device
// database may show beyond the golden's: the routing metrics every front
// door registers (README, "Sharding & scatter-gather").
var singleDeviceAddition = regexp.MustCompile(` m (shard_route_total\{route="[a-z]+"\}|shards_contacted) `)

var (
	goldenField = regexp.MustCompile(`(rows|digest|affected)=\S+`)
	goldenSim   = regexp.MustCompile(` sim=(\d+) `)
	goldenBus   = regexp.MustCompile(` bus=\d+/(\d+) `)
	goldenSpy   = regexp.MustCompile(` spy=\[(.*)\]$`)
)

// emptyRangeAllowed reports whether got differs from the marked golden
// line want only as a statement answered without its device may: the same
// rows (or affected count), no simulated time, no bus message.
func emptyRangeAllowed(want, got string) bool {
	same := strings.Join(goldenField.FindAllString(want, -1), " ") == strings.Join(goldenField.FindAllString(got, -1), " ")
	sim := goldenSim.FindStringSubmatch(got)
	spy := goldenSpy.FindStringSubmatch(got)
	if !same || sim == nil || sim[1] != "0" || spy == nil || spy[1] != "" {
		return false
	}
	if bus := goldenBus.FindStringSubmatch(got); bus != nil && bus[1] != "0" {
		return false
	}
	return true
}
