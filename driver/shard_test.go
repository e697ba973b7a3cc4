package driver

import (
	"database/sql"
	"fmt"
	"strings"
	"testing"
)

// TestParseDSNShards pins the shards parameter's grammar: default 1,
// positive counts accepted, everything else rejected with the driver
// error prefix.
func TestParseDSNShards(t *testing.T) {
	cfg, err := ParseDSN("")
	if err != nil || resolve(cfg).Shards != 0 {
		t.Fatalf("defaults = %+v, %v; want shards unset (one device)", resolve(cfg), err)
	}
	cfg, err = ParseDSN("ghostdb://?shards=4")
	if err != nil || resolve(cfg).Shards != 4 {
		t.Fatalf("options = %+v, %v; want shards=4", resolve(cfg), err)
	}
	if cfg, err = ParseDSN("ghostdb://?shards=1"); err != nil || resolve(cfg).Shards != 1 {
		t.Fatalf("shards=1 = %+v, %v", resolve(cfg), err)
	}
	for _, bad := range []string{
		"ghostdb://?shards=0",
		"ghostdb://?shards=-2",
		"ghostdb://?shards=many",
		"ghostdb://?shards=2.5",
		"ghostdb://?shards=",
	} {
		if _, err := ParseDSN(bad); err == nil {
			t.Errorf("ParseDSN(%q) should fail", bad)
		} else if !strings.Contains(err.Error(), "ghostdb driver:") {
			t.Errorf("ParseDSN(%q) error %q lacks driver prefix", bad, err)
		}
	}
}

// TestShardedDSNEndToEnd drives a sharded engine purely through
// database/sql: bulk load, queries, live DML and CHECKPOINT must agree
// with the default single-device engine; shards=1 must behave as the
// legacy path.
func TestShardedDSNEndToEnd(t *testing.T) {
	single := openHospital(t, "ghostdb://?shards=1")
	sharded := openHospital(t, "ghostdb://?shards=2")

	type step struct {
		query string
		exec  string
	}
	steps := []step{
		{query: `SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis'`},
		{query: `SELECT Doc.Name FROM Doctor Doc, Visit Vis WHERE Vis.Purpose = 'Sclerosis' AND Vis.DocID = Doc.DocID`},
		{query: `SELECT COUNT(*), MIN(Vis.VisID), MAX(Vis.VisID) FROM Visit Vis`},
		{exec: `INSERT INTO Visit VALUES (4, DATE '2007-03-05', 'Checkup', 2)`},
		{query: `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Checkup' ORDER BY Vis.VisID`},
		{exec: `UPDATE Visit SET Purpose = 'Sclerosis' WHERE VisID = 1`},
		{exec: `DELETE FROM Visit WHERE VisID = 2`},
		{query: `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Sclerosis' ORDER BY Vis.VisID DESC`},
		{exec: `CHECKPOINT`},
		{query: `SELECT Vis.VisID, Vis.Date FROM Visit Vis ORDER BY Vis.VisID`},
		{query: `SELECT Doc.Country, COUNT(*) FROM Visit Vis, Doctor Doc WHERE Vis.DocID = Doc.DocID GROUP BY Doc.Country ORDER BY Doc.Country`},
	}
	for i, st := range steps {
		if st.exec != "" {
			ra, err := single.Exec(st.exec)
			rb, err2 := sharded.Exec(st.exec)
			if err != nil || err2 != nil {
				t.Fatalf("step %d %q: single %v, sharded %v", i, st.exec, err, err2)
			}
			na, _ := ra.RowsAffected()
			nb, _ := rb.RowsAffected()
			if na != nb {
				t.Fatalf("step %d %q: single affected %d, sharded %d", i, st.exec, na, nb)
			}
			continue
		}
		want := queryStrings(t, single, st.query)
		got := queryStrings(t, sharded, st.query)
		if len(want) != len(got) {
			t.Fatalf("step %d %q: single %d rows, sharded %d", i, st.query, len(want), len(got))
		}
		for r := range want {
			if want[r] != got[r] {
				t.Fatalf("step %d %q row %d: single %q, sharded %q", i, st.query, r, want[r], got[r])
			}
		}
	}
}

// queryStrings flattens a result set into one string per row, in
// result order.
func queryStrings(t *testing.T, db *sql.DB, q string) []string {
	t.Helper()
	rows, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for rows.Next() {
		vals := make([]any, len(cols))
		ptrs := make([]any, len(cols))
		for i := range vals {
			ptrs[i] = &vals[i]
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprint(vals...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
