package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/ghostdb/ghostdb/internal/datagen"
	"github.com/ghostdb/ghostdb/internal/oracle"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/storage"
	"github.com/ghostdb/ghostdb/internal/value"
)

// backendCase is one storage backend a test runs on.
type backendCase struct {
	name string
	file bool
}

var bothBackends = []backendCase{{"sim", false}, {"file", true}}

// open opens an empty database on the backend; dir is its path on the
// file backend.
func (b backendCase) open(t *testing.T, opts ...Option) (db *DB, dir string) {
	t.Helper()
	if b.file {
		dir = fileBackendDir(t)
		opts = append(opts, WithBackend(storage.File(dir, false)))
	}
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

// parityScript is a two-table schema with a visible and a hidden column of
// every coercible kind, and the referenced table's rows.
const parityScript = `
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(20));
CREATE TABLE Visit (
  VisID INTEGER PRIMARY KEY,
  Date DATE,
  Score FLOAT,
  Purpose CHAR(40) HIDDEN,
  Seen DATE HIDDEN,
  Weight FLOAT HIDDEN,
  DocID REFERENCES Doctor(DocID) HIDDEN);
INSERT INTO Doctor VALUES (1, 'Ann'), (2, 'Bob');
`

// parityQuery reads every Visit column back.
const parityQuery = `SELECT Visit.VisID, Visit.Date, Visit.Score, Visit.Purpose, Visit.Seen, Visit.Weight, Visit.DocID FROM Visit`

// parityRows renders a result with each cell's kind, so an INTEGER 3 and
// a FLOAT 3 differ.
func parityRows(t *testing.T, db *DB) []string {
	t.Helper()
	return parityRowsOf(t, db, parityQuery)
}

// parityRowsOf is parityRows for query q.
func parityRowsOf(t *testing.T, db *DB, q string) []string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, row := range res.Rows {
		s := ""
		for _, v := range row {
			s += fmt.Sprintf("%s:%s ", v.Kind(), v)
		}
		out = append(out, s)
	}
	return out
}

// TestBulkLoadChecksRowsLikeLiveInsert runs the same INSERT statements
// through the bulk load (staged by ExecScript) and after Build (Exec, into
// the delta): the rows come back with the same values and kinds — after
// OpenPath too, on the file backend — and a bad statement fails with the
// same error text.
func TestBulkLoadChecksRowsLikeLiveInsert(t *testing.T) {
	const good = `INSERT INTO Visit VALUES (1, '2006-11-05', 3, 'Flu', 17, 70, 1), (2, '05-11-2006', 2.5, 'Cold', '2007-01-02', 81.5, 2)`
	bad := []string{
		`INSERT INTO Visit VALUES (1, 'notadate', 1.5, 'Flu', 17, 70, 1)`,
		`INSERT INTO Visit VALUES (1, '2006-11-05', 'high', 'Flu', 17, 70, 1)`,
		`INSERT INTO Visit VALUES (1, '2006-11-05', 1.5, 'Flu', 17, 70, 1), (2, '2006-11-05', 1.5, 'Flu', 'late', 70, 1)`,
		`INSERT INTO Visit VALUES (1, '2006-11-05', 1.5, 'Flu', 17, 70, 1), (3, '2006-11-05', 1.5, 'Flu', 17, 70, 1)`,
		`INSERT INTO Visit VALUES (1, '2006-11-05', 1.5, 'Flu', 17, 70, 3)`,
		`INSERT INTO Visit VALUES (1, '2006-11-05')`,
	}
	for _, be := range bothBackends {
		t.Run(be.name, func(t *testing.T) {
			staged, stagedDir := be.open(t)
			if err := staged.ExecScript(parityScript + good); err != nil {
				t.Fatal(err)
			}
			live, liveDir := be.open(t)
			if err := live.ExecScript(parityScript); err != nil {
				t.Fatal(err)
			}
			if _, err := live.Exec(good); err != nil {
				t.Fatal(err)
			}
			want := parityRows(t, live)
			if len(want) != 2 {
				t.Fatalf("live rows %q", want)
			}
			if got := parityRows(t, staged); !slices.Equal(got, want) {
				t.Fatalf("bulk-loaded rows\n %q\nlive rows\n %q", got, want)
			}
			if be.file {
				if _, err := live.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				for name, db := range map[string]*DB{stagedDir: staged, liveDir: live} {
					db.Close()
					re, _, err := OpenPath(name)
					if err != nil {
						t.Fatal(err)
					}
					if got := parityRows(t, re); !slices.Equal(got, want) {
						t.Fatalf("reopened rows\n %q\nlive rows\n %q", got, want)
					}
					re.Close()
				}
			} else {
				staged.Close()
				live.Close()
			}

			for _, stmt := range bad {
				staged, _ := be.open(t)
				stagedErr := staged.ExecScript(parityScript + stmt)
				staged.Close()
				live, _ := be.open(t)
				if err := live.ExecScript(parityScript); err != nil {
					t.Fatal(err)
				}
				_, liveErr := live.Exec(stmt)
				live.Close()
				if stagedErr == nil || liveErr == nil || stagedErr.Error() != liveErr.Error() {
					t.Errorf("%s:\n bulk load: %v\n live:      %v", stmt, stagedErr, liveErr)
				}
			}
		})
	}
}

// sameImage reports the first difference between two images of sch.
func sameImage(sch *schema.Schema, a, b []tableImage) error {
	for ord, tb := range sch.Tables() {
		x, y := &a[ord], &b[ord]
		if x.n != y.n {
			return fmt.Errorf("%s: %d rows, %d rows", tb.Name, x.n, y.n)
		}
		for ci, c := range tb.Columns {
			switch xc, yc := x.cols[ci], y.cols[ci]; {
			case c.PrimaryKey:
			case c.IsForeignKey():
				if !slices.Equal(x.fks[ci], y.fks[ci]) {
					return fmt.Errorf("%s.%s: foreign keys differ", tb.Name, c.Name)
				}
			case xc.Kind != yc.Kind || !slices.Equal(xc.Words, yc.Words) || !slices.Equal(xc.Strs, yc.Strs):
				return fmt.Errorf("%s.%s: %s column differs from %s column", tb.Name, c.Name, xc.Kind, yc.Kind)
			}
		}
	}
	return nil
}

// stitchImage puts the engines' images of one committed version together
// in global row order, through each engine's local->global root mapping
// (nil on a single device).
func stitchImage(sch *schema.Schema, parts [][]tableImage, globals [][]uint32) []tableImage {
	out := slices.Clone(parts[0])
	if len(parts) == 1 {
		return out
	}
	root := sch.Root()
	ro := root.Ordinal()
	type place struct{ s, li int }
	var at []place
	for s := range parts {
		for li, g := range globals[s] {
			if int(g) > len(at) {
				at = append(at, make([]place, int(g)-len(at))...)
			}
			at[g-1] = place{s, li}
		}
	}
	rim := newTableImage(root, len(at))
	for _, p := range at {
		rim.appendFrom(root, &parts[p.s][ro], p.li)
	}
	out[ro] = rim
	return out
}

// heldImage reads back the image db's engines hold, every base row through
// the accessors queries use, stitched in global order: on a recovered
// database, the image Recover assembled, as loadState took it.
func heldImage(t *testing.T, db *DB) []tableImage {
	t.Helper()
	parts := make([][]tableImage, len(db.shards.engines))
	globals := make([][]uint32, len(parts))
	for s, e := range db.shards.engines {
		e.mu.Lock()
		parts[s], globals[s] = make([]tableImage, len(e.views)), e.rootGlobals
		for ord, tv := range e.views {
			im := newTableImage(tv.t, tv.baseN)
			for id := uint32(1); int(id) <= tv.baseN; id++ {
				for ci, c := range tv.t.Columns {
					switch {
					case c.PrimaryKey:
					case c.IsForeignKey():
						im.fks[ci] = append(im.fks[ci], tv.cols[ci].fk[id-1])
					default:
						v, err := e.valueOf(tv, nil, ci, id)
						if err != nil {
							t.Fatal(err)
						}
						im.cols[ci].Append(v)
					}
				}
			}
			im.n = tv.baseN
			parts[s][ord] = im
		}
		e.mu.Unlock()
	}
	return stitchImage(db.sch, parts, globals)
}

// recoveredImage is the image the database recovered from snap holds. It
// recovers onto the simulated backend: a file-backed snapshot names the
// live database's own directory.
func recoveredImage(t *testing.T, snap *Snapshot) []tableImage {
	t.Helper()
	db, _, err := Recover(snap, WithBackend(storage.Sim()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	return heldImage(t, db)
}

// oracleImage reads every table out of the oracle and takes it through
// the boundary, each table one statement, referenced tables first.
func oracleImage(t *testing.T, sch *schema.Schema, orc *oracle.Oracle) []tableImage {
	t.Helper()
	img := make([]tableImage, len(sch.Tables()))
	refRows := func(table string) int {
		rt, _ := sch.Table(table)
		return img[rt.Ordinal()].n
	}
	for ord, tb := range sch.Tables() {
		var cols []string
		for _, c := range tb.Columns {
			cols = append(cols, tb.Name+"."+c.Name)
		}
		_, rows, err := orc.Query("SELECT " + strings.Join(cols, ", ") + " FROM " + tb.Name)
		if err != nil {
			t.Fatal(err)
		}
		img[ord] = newTableImage(tb, len(rows))
		if err := img[ord].appendRows(tb, len(rows), func(r int) []value.Value { return rows[r] }, refRows); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// TestImageProducersAgree holds the producers of the table image to one
// another over a bulk load and two rounds of random DML + CHECKPOINT: the
// image each CHECKPOINT commits (checkpointPrepareLocked, stitched through
// the root mapping), the image Recover assembles from a snapshot of the
// same version and — on the file backend, for the last version — the one
// OpenPath assembles from disk, each read back from the database it
// rebuilt, and the boundary's image of the oracle's tables.
func TestImageProducersAgree(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, be := range bothBackends {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, be.name), func(t *testing.T) {
				ds := datagen.Generate(datagen.Tiny())
				db, dir := be.open(t, WithShards(shards))
				if err := db.LoadDataset(ds); err != nil {
					t.Fatal(err)
				}
				sch := db.Schema()
				orc, err := oracle.New(sch, func() map[string][][]value.Value {
					cols := map[string][][]value.Value{}
					for _, name := range ds.TableNames() {
						cols[name] = ds.Table(name).Cols
					}
					return cols
				}())
				if err != nil {
					t.Fatal(err)
				}
				check := func(stage string, committed []tableImage) {
					t.Helper()
					snap, err := db.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if err := sameImage(sch, committed, recoveredImage(t, snap)); err != nil {
						t.Fatalf("%s: committed vs recovered: %v", stage, err)
					}
					if err := sameImage(sch, committed, heldImage(t, db)); err != nil {
						t.Fatalf("%s: committed vs held: %v", stage, err)
					}
					if err := sameImage(sch, committed, oracleImage(t, sch, orc)); err != nil {
						t.Fatalf("%s: committed vs oracle: %v", stage, err)
					}
				}
				check("bulk load", oracleImage(t, sch, orc))

				g := &dmlGen{queryGen: &queryGen{rng: rand.New(rand.NewSource(int64(61 + shards))), ds: ds}, sch: sch, orc: orc}
				var committed []tableImage
				for round := 1; round <= 2; round++ {
					// A dimension UPDATE dirties every shard, so every
					// engine commits a rebuilt image.
					stmt := "UPDATE Doctor SET Name = 'Round' WHERE DocID = 1"
					for i := 0; i < 40; i, stmt = i+1, g.nextDML() {
						if stmt == "" {
							continue
						}
						en, eerr := db.Exec(stmt)
						on, oerr := orc.Exec(stmt)
						if eerr != nil || oerr != nil || en != on {
							t.Fatalf("%s: engine (%d, %v), oracle (%d, %v)", stmt, en, eerr, on, oerr)
						}
					}
					parts := make([][]tableImage, len(db.shards.engines))
					for s, e := range db.shards.engines {
						p, _, err := e.checkpointPrepare(context.Background())
						if err != nil || p == nil {
							t.Fatalf("shard %d: prepared %v, %v", s, p, err)
						}
						parts[s] = p.img
					}
					en, eerr := db.Checkpoint()
					on, oerr := orc.Checkpoint()
					if eerr != nil || oerr != nil || en != on {
						t.Fatalf("checkpoint: engine (%d, %v), oracle (%d, %v)", en, eerr, on, oerr)
					}
					globals := make([][]uint32, len(parts))
					for s, e := range db.shards.engines {
						globals[s] = e.rootGlobals
					}
					committed = stitchImage(sch, parts, globals)
					check(fmt.Sprintf("CHECKPOINT %d", round), committed)
				}

				db.Close()
				if be.file {
					re, _, err := OpenPath(dir)
					if err != nil {
						t.Fatal(err)
					}
					defer re.Close()
					if err := sameImage(sch, committed, heldImage(t, re)); err != nil {
						t.Fatalf("committed vs reopened: %v", err)
					}
				}
			})
		}
	}
}

// TestRecoveredForeignKeyChecked hand-edits a sidecar into valid JSON that
// does not describe a database — a visible foreign key past its referenced
// table, a visible column of the wrong kind — and OpenPath refuses it with
// ErrCorruptState instead of building on it.
func TestRecoveredForeignKeyChecked(t *testing.T) {
	edits := map[string]func(col *sidecarCol){
		"foreign key past its table": func(col *sidecarCol) {
			if col.Name == "docid" {
				col.Data = value.NewInt(9).Append(value.NewInt(1).Append(nil))
			}
		},
		"foreign key of another kind": func(col *sidecarCol) {
			if col.Name == "docid" {
				col.Data = value.NewString("2").Append(value.NewString("1").Append(nil))
			}
		},
		"visible column of another kind": func(col *sidecarCol) {
			if col.Name == "country" {
				col.Data = value.NewInt(2).Append(value.NewInt(1).Append(nil))
			}
		},
	}
	for name, edit := range edits {
		t.Run(name, func(t *testing.T) {
			db, dir := backendCase{"file", true}.open(t)
			err := db.ExecScript(`
CREATE TABLE Doctor (DocID INTEGER PRIMARY KEY, Name CHAR(10) HIDDEN);
CREATE TABLE Visit (VisID INTEGER PRIMARY KEY, Country CHAR(10), DocID REFERENCES Doctor(DocID));
INSERT INTO Doctor VALUES (1, 'Ann'), (2, 'Bob');
INSERT INTO Visit VALUES (1, 'Spain', 1), (2, 'France', 2)`)
			if err != nil {
				t.Fatal(err)
			}
			db.Close()
			doc, err := readSidecar(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range doc.Commits {
				for _, tb := range c.Tables {
					for i := range tb.Cols {
						edit(&tb.Cols[i])
					}
				}
			}
			blob, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, sidecarName), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if re, _, err := OpenPath(dir); !errors.Is(err, ErrCorruptState) {
				if re != nil {
					re.Close()
				}
				t.Fatalf("OpenPath = %v, want ErrCorruptState", err)
			}
		})
	}
}

// TestLoadDatasetTakesTheBoundary holds LoadDataset's column-at-a-time
// packing to the row path it falls back on: a cell of another kind is
// coerced as an INSERT would coerce it, and a foreign key past its table
// fails with the INSERT's error text, the row counted from 1.
func TestLoadDatasetTakesTheBoundary(t *testing.T) {
	load := func(edit func(ds *datagen.Dataset)) (*DB, error) {
		ds := datagen.Generate(datagen.Tiny())
		edit(ds)
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db, db.LoadDataset(ds)
	}
	want, err := load(func(*datagen.Dataset) {})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(func(ds *datagen.Dataset) {
		dates := ds.Table("Visit").Cols[1]
		dates[2] = value.NewString(dates[2].String())
	})
	if err != nil {
		t.Fatal(err)
	}
	const q = "SELECT Visit.VisID, Visit.Date FROM Visit"
	if a, b := parityRowsOf(t, want, q), parityRowsOf(t, got, q); !slices.Equal(a, b) {
		t.Fatalf("a date string loaded as\n %q\nnot\n %q", b, a)
	}
	_, err = load(func(ds *datagen.Dataset) {
		ds.Table("Prescription").Cols[5][3] = value.NewInt(int64(ds.Table("Visit").N + 1))
	})
	if err == nil || !strings.Contains(err.Error(), "Prescription row 4: foreign key VisID") {
		t.Fatalf("foreign key past its table: %v", err)
	}
}
