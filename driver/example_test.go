package driver_test

import (
	"context"
	"database/sql"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"github.com/ghostdb/ghostdb/driver" // registers the "ghostdb" driver
)

// printRows prints each row of rs on one line, dates as YYYY-MM-DD.
func printRows(rs *sql.Rows) {
	defer rs.Close()
	cols, err := rs.Columns()
	if err != nil {
		log.Fatal(err)
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rs.Next() {
		if err := rs.Scan(ptrs...); err != nil {
			log.Fatal(err)
		}
		cells := make([]string, len(vals))
		for i, v := range vals {
			if t, ok := v.(time.Time); ok {
				v = t.Format(time.DateOnly)
			}
			cells[i] = fmt.Sprint(v)
		}
		fmt.Println("  " + strings.Join(cells, "  "))
	}
	if err := rs.Err(); err != nil {
		log.Fatal(err)
	}
}

// rowsAffected returns the count an Exec reports.
func rowsAffected(res sql.Result, err error) int64 {
	if err != nil {
		log.Fatal(err)
	}
	n, err := res.RowsAffected()
	if err != nil {
		log.Fatal(err)
	}
	return n
}

// GhostDB through nothing but database/sql: hidden-column privacy with
// no change to how the application issues statements. Each call of the
// driver's surface appears once — a DSN with options, a script Exec,
// prepared statements with '?' arguments, queries over hidden and
// visible columns, aggregation, live DML and CHECKPOINT, the shared plan
// cache's counters, and the connection pool under concurrent callers.
func Example_databaseSQL() {
	// The DSN picks the simulated hardware: the 480 Mb/s bus, a 1 %
	// Bloom-filter target, and a device index on the visible
	// Doctor.Country (Figure 4).
	db, err := sql.Open("ghostdb", "ghostdb://?usb=high&fpr=0.01&deviceindex=Doctor.Country")
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Exec runs a script: DDL and INSERTs stage the bulk load. HIDDEN
	// columns live only on the device.
	if _, err := db.Exec(`
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(40), Country CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Purpose CHAR(100) HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES (1, 'Ellis', 'France'), (2, 'Gall', 'Spain'), (3, 'Novak', 'France');`); err != nil {
		log.Fatal(err)
	}

	// A prepared INSERT binds its '?' placeholders from the arguments.
	ins, err := db.Prepare(`INSERT INTO Visit VALUES (?, ?, ?, ?)`)
	if err != nil {
		log.Fatal(err)
	}
	for i, v := range []struct {
		day     int
		purpose string
		doc     int64
	}{
		{10, "Checkup", 1}, {12, "Sclerosis", 1}, {14, "Sclerosis", 2}, {15, "Checkup", 2},
		{20, "Sclerosis", 1}, {21, "Oncology", 3}, {22, "Checkup", 3}, {25, "Sclerosis", 3},
	} {
		date := time.Date(2006, 11, v.day, 0, 0, 0, 0, time.UTC)
		if _, err := ins.Exec(int64(i+1), date, v.purpose, v.doc); err != nil {
			log.Fatal(err)
		}
	}
	ins.Close()

	// The first query finalizes the load. Vis.Purpose is hidden: its
	// predicate runs only inside the device. Doc.Country is visible and
	// device-indexed. The second binding reuses the first's compiled plan.
	for _, purpose := range []string{"Sclerosis", "Oncology"} {
		rows, err := db.Query(`SELECT Vis.VisID, Vis.Date, Doc.Name FROM Visit Vis, Doctor Doc
WHERE Vis.Purpose = ? AND Doc.Country = ? AND Vis.DocID = Doc.DocID`, purpose, "France")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s visits to French doctors:\n", purpose)
		printRows(rows)
	}

	// GROUP BY, HAVING and ORDER BY over the hidden doctor link: the
	// device streams the matching rows to the secure display, which
	// groups them.
	rows, err := db.Query(`SELECT Doc.Country, COUNT(*), MIN(Vis.Date) FROM Visit Vis, Doctor Doc
WHERE Vis.DocID = Doc.DocID GROUP BY Doc.Country HAVING COUNT(*) >= ? ORDER BY COUNT(*) DESC, Doc.Country`, int64(3))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("countries with at least 3 visits:")
	printRows(rows)

	// DISTINCT and a top-K over a hidden column.
	rows, err = db.Query(`SELECT DISTINCT Purpose FROM Visit ORDER BY Purpose DESC LIMIT 2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("last two distinct purposes:")
	printRows(rows)

	// Live DML lands in the device's RAM delta: a prepared UPDATE of a
	// hidden column, then a DELETE whose cascade takes the doctor's
	// visits along. CHECKPOINT folds the delta into fresh flash segments
	// and renumbers the survivors densely.
	upd, err := db.Prepare(`UPDATE Visit SET Purpose = ? WHERE Date > ?`)
	if err != nil {
		log.Fatal(err)
	}
	defer upd.Close()
	fmt.Println("UPDATE affected", rowsAffected(upd.Exec("Follow-up", time.Date(2006, 11, 21, 0, 0, 0, 0, time.UTC))))
	fmt.Println("DELETE affected", rowsAffected(db.Exec(`DELETE FROM Doctor WHERE Country = 'Spain'`)))
	fmt.Println("CHECKPOINT absorbed", rowsAffected(db.Exec(`CHECKPOINT`)))
	rows, err = db.Query(`SELECT VisID, Date, Purpose FROM Visit`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("visits after CHECKPOINT:")
	printRows(rows)

	// The plan cache is shared by every connection and holds SELECTs only
	// (DML binds per call); Conn.Raw reaches the driver connection and its
	// engine for the counters.
	conn, err := db.Conn(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := conn.Raw(func(dc any) error {
		fmt.Println("plan cache:", dc.(*driver.Conn).Session().DB().PlanCacheStats())
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	conn.Close()

	// database/sql pools connections; each is a session on the one
	// engine, and the simulated device serializes them.
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				if err := db.QueryRow(`SELECT COUNT(*) FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`).Scan(&counts[g]); err != nil {
					log.Fatal(err)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Println("4 goroutines x 5 queries through the pool saw", counts)

	// Output:
	// Sclerosis visits to French doctors:
	//   2  2006-11-12  Ellis
	//   5  2006-11-20  Ellis
	//   8  2006-11-25  Novak
	// Oncology visits to French doctors:
	//   6  2006-11-21  Novak
	// countries with at least 3 visits:
	//   France  6  2006-11-10
	// last two distinct purposes:
	//   Sclerosis
	//   Oncology
	// UPDATE affected 2
	// DELETE affected 1
	// CHECKPOINT absorbed 3
	// visits after CHECKPOINT:
	//   1  2006-11-10  Checkup
	//   2  2006-11-12  Sclerosis
	//   3  2006-11-20  Sclerosis
	//   4  2006-11-21  Oncology
	//   5  2006-11-22  Follow-up
	//   6  2006-11-25  Follow-up
	// plan cache: hits=1 misses=4 evictions=0 entries=4 (20.0% hit rate)
	// 4 goroutines x 5 queries through the pool saw [2 2 2 2]
}
