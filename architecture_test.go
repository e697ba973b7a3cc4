package ghostdb

// The architecture rules. GhostDB's promise rests on structure: hidden
// data is touched only inside the device, and the untrusted side sees
// only what the protocol sends. Those rules are rows of one table,
// checked on the surface audit's go/types load. A row forbids an import
// path, an object (a call or any other use of it, optionally only with a
// given operand), a field of a named type, a type shape, a definition or
// a file. The first four are resolved by the type checker, so a rename,
// an alias or a line break does not get past them; a definition row bans
// a name and is only as strong as the name.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type archKind int

const (
	forbidImport archKind = iota // what: import paths
	forbidUse                    // what: objects; args: only a call or nil comparison with one of these operands
	forbidField                  // on: a named type; what: its fields
	forbidShape                  // what: type shapes, Any matching any type
	forbidDef                    // what: patterns over "Name" or "Type.Member"; on: names like a field of this type
	forbidFile                   // what: files
)

// archRule is one row of the table. What it forbids is looked for in the
// non-test files of scope (package directories, files, or "..." for the
// whole repository), only inside the functions in when in is set, and
// is allowed in allow (files, package directories, or functions "f" /
// "T.m" of the scope's packages). An object is "pkg.Name" or
// "pkg.Type.Member", pkg being a directory of the module or a standard
// import path; "nil", "true" and "false" are the universe's.
type archRule struct {
	name  string
	kind  archKind
	scope []string
	in    []string
	what  []string
	on    string
	args  []string
	allow []string
	why   string
}

// archRules is the repository's rule table.
var archRules = []archRule{
	// The storage media stay byte stores.
	{name: "media-byte-stores", kind: forbidImport,
		scope: []string{"internal/storage/simflash", "internal/storage/filedev"},
		what:  []string{"internal/fault", "hash/crc32"},
		why:   "NAND policy belongs in internal/storage (Device), not in a medium"},
	{name: "mapped-page-reads", kind: forbidUse,
		scope: []string{"internal/storage/filedev"}, in: []string{"files.ReadPage"},
		what: []string{"os.File.ReadAt", "io.ReaderAt.ReadAt"},
		why:  "filedev's ReadPage copies from the segment's mapping; a pread per page read is what it replaced"},
	{name: "programs-in-runs", kind: forbidUse,
		scope: []string{"internal/storage/filedev"}, in: []string{"files.WritePage", "files.WriteOOB"},
		what: []string{"internal/storage/filedev.files.writeAt", "os.File.WriteAt", "io.WriterAt.WriteAt"},
		why:  "filedev's WritePage / WriteOOB queue into the pending runs; flush writes each run with one WriteAt"},

	// The executor has one pipeline and internal/exec one operator set.
	{name: "no-row-engine-fork", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)(batchMode|Batched|RowIterOf|NewRowAdapter)$`},
		why:  "the row engine is a frozen golden (internal/core/testdata), not an executor mode"},
	{name: "no-element-operators", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)(IDIter|SpillIDs|MaterializeRows|Collect)$`},
		why:  "the element-at-a-time operators are frozen goldens (internal/exec/testdata, internal/baseline/testdata); compose the *Batch operators"},
	{name: "one-merge", kind: forbidFile, what: []string{"internal/exec/merge.go"},
		why: "the merge is mergebatch.go's; the element-at-a-time merge is a frozen golden"},
	{name: "merge-inputs-are-slots", kind: forbidUse, scope: []string{"..."},
		what: []string{"internal/exec.ClimbSource"}, allow: []string{"internal/exec"},
		why: "hand posting lists to a merge by address (exec.ListSources), not one boxed exec.ClimbSource per list"},
	{name: "merge-inputs-are-slots", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)newBatchCursor$`},
		why:  "a merge input is a slot in its merge's slabs (batch.go rule 3), not an object of its own"},

	// exec sorts on counted compares and moves record bytes in one place.
	{name: "counted-sort", kind: forbidUse, scope: []string{"internal/exec"},
		what: []string{"slices.SortFunc", "sort.Slice"},
		why:  "sort with keySorter (internal/exec/keysort.go), which counts its comparisons; pay them with one cpuUnits per run (see SortRowFile)"},
	{name: "counted-sort", kind: forbidUse, scope: []string{"internal/exec"},
		what: []string{"internal/exec.Env.cpu"}, args: []string{"internal/sim.CyclesCompare"},
		why: "no clock charge inside a comparator: count the compares and pay them with one cpuUnits per run"},
	{name: "record-words", kind: forbidUse, scope: []string{"internal/exec"},
		what:  []string{"encoding/binary.LittleEndian", "encoding/binary.littleEndian.PutUint32", "encoding/binary.bigEndian.PutUint32", "encoding/binary.ByteOrder.PutUint32"},
		allow: []string{"internal/exec/record.go"},
		why:   "read and write record words through internal/exec/record.go (batch.go rule 4), the sort key included"},
	{name: "record-bytes", kind: forbidUse, scope: []string{"internal/exec"},
		what:  []string{"internal/flash.Writer.Write", "internal/flash.Space.NewWriter"},
		allow: []string{"internal/exec/record.go"},
		why:   "encode and decode scratch records through recordWriter / recordReader (internal/exec/record.go): a record is written once, in the page it is programmed from"},
	{name: "record-bytes", kind: forbidDef, scope: []string{"internal/exec"},
		what: []string{`(^|\.)fullRead$`}, allow: []string{"internal/exec/record.go"},
		why: "decode scratch records through recordReader (internal/exec/record.go)"},

	// No switch for what is always on.
	{name: "no-integrity-switch", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)(WithIntegrity|WithMetrics|SetIntegrity)$`},
		why:  "the device always checksums and the engine always counts; there is no switch to add back"},

	// One optimizer step, one EXPLAIN.
	{name: "one-optimizer-step", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"internal/plan.Estimate", "internal/plan.EstimateCards"}, allow: []string{"enginePlan.optimizeLocked"},
		why: "plans are chosen and costed in one place: enginePlan.optimizeLocked (internal/core/compile.go)"},
	{name: "explain-runs-its-statement", kind: forbidUse, scope: []string{"internal/core/analyze.go"},
		what: []string{"internal/core.DB.QueryWithPlan", "internal/core.Session.QueryWithPlan"},
		why:  "EXPLAIN ANALYZE runs the statement through its own CompiledQuery; it forces no plan and picks no shard by hand"},
	{name: "explain-runs-its-statement", kind: forbidDef, scope: []string{"internal/core"},
		what: []string{`(^|\.)(analyzeSharded|children)$`},
		why:  "EXPLAIN ANALYZE forces no plan and picks no shard by hand"},

	// The front door reaches a device only through *engine's methods.
	{name: "front-door-engine-methods", kind: forbidField,
		scope: []string{"internal/core/coordinator.go", "internal/core/shard_merge.go", "internal/core/shard_write.go", "internal/core/shard_stats.go"},
		on:    "internal/core.engine", what: []string{"mu", "clock", "dev", "delta", "rowCounts", "rootGlobals"},
		why: "front-door code touches an engine's internals; add a method to *engine (internal/core/engine.go) that takes its device gate"},
	{name: "front-door-engine-methods", kind: forbidFile, what: []string{"internal/core/shard.go"},
		why: "the front door lives in coordinator.go and the shard_*.go files; there is no shard.go"},

	// Every database is a front door over n >= 1 engines.
	{name: "n-engines", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"internal/core.DB.shards"}, args: []string{"nil"},
		why: "n is decided once, in Open: route through db.shards, whose one engine is the single-device case"},
	{name: "n-engines", kind: forbidDef, scope: []string{"internal/core"}, what: []string{`(^|\.)childEngine$`},
		why: "n is decided once, in Open: there is no second engine seam"},
	{name: "n-engines", kind: forbidFile, what: []string{"internal/core/shard_engine.go"},
		why: "n is decided once, in Open: there is no second engine seam"},

	// One finisher.
	{name: "one-finisher", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"internal/core.finishTail", "internal/core.grouperRows"}, allow: []string{"internal/core/shard_merge.go"},
		why: "only the front door's finish (shard_merge.go) runs the finishing stage; an engine returns its rows or its grouper"},
	{name: "one-finisher", kind: forbidDef, scope: []string{"internal/core"},
		what: []string{`(^|\.)(runReplica|atShard|finishRows|outputRows|shardGroup)$`},
		why:  "route only chooses targets and one gather serves 0, 1 and k of them: no second result path"},
	{name: "one-finisher", kind: forbidDef, scope: []string{"internal/core"}, what: []string{`^shardRemap\.finish$`},
		why: "no engine finishes as a query's only target: a nil *shardRemap is the identity, nothing more"},
	{name: "one-finisher", kind: forbidDef, scope: []string{"internal/core"}, in: []string{"DB.runShard"}, what: []string{`^only$`},
		why: "no engine finishes as a query's only target: a nil *shardRemap is the identity, nothing more"},

	// One statement door.
	{name: "one-statement-door", kind: forbidUse, scope: []string{"driver", "internal/server"},
		what: []string{
			"internal/core.DB.Query", "internal/core.DB.Exec", "internal/core.DB.QueryWithPlan", "internal/core.DB.ExecScript",
			"internal/core.DB.Checkpoint", "internal/core.DB.Prepare", "internal/core.DB.Plans", "internal/core.DB.Estimate",
			"internal/core.DB.Explain", "internal/core.DB.ExplainAnalyze", "internal/core.DB.ExplainOnly",
			"internal/core.DB.LoadDataset", "internal/core.DB.Compile", "internal/core.DB.EnsureBuilt",
			"internal/core.Session.Query", "internal/core.Session.Exec", "internal/core.Session.QueryWithPlan", "internal/core.Session.Checkpoint",
		},
		why: "a statement reaches core.Session / core.DB through QueryContext or ExecContext; finalizing the load, binding and the context belong to core"},
	{name: "one-statement-door", kind: forbidUse, scope: []string{"driver", "internal/server"},
		what: []string{"internal/core.Session.Compile", "internal/core.Session.QueryCompiled"}, allow: []string{"driver/conn.go"},
		why: "only a prepared driver.Stmt compiles once and binds through Compile + QueryCompiled"},
	{name: "one-statement-door", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)(ExecStatements|CompileDML)$`},
		why:  "the driver and the server call the session's two doors; core dispatches the statements"},
	{name: "one-dml-binder", kind: forbidDef, scope: []string{"..."},
		what: []string{`(^|\.)(CompiledDML|compileDMLCached|ErrUnboundDML|BindScript)$`},
		why:  "one DML binder: a DELETE or UPDATE binds with plan.BindDML + plan.DML.BindParams just before it runs (DB.execLocked); no cached DML shape and no script-wide substitution into the AST"},
	{name: "one-dml-binder", kind: forbidDef, scope: []string{"internal/sql"},
		what: []string{`\.BindParams$`}, allow: []string{"Insert.BindParams"},
		why: "internal/sql binds placeholders into an INSERT only; a DELETE or UPDATE binds in internal/plan (plan.DML.BindParams)"},
	{name: "one-dispatcher", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"internal/sql.CreateTable"}, allow: []string{"DB.execLocked", "DB.execDDL", "DB.applyCreate"},
		why: "one statement dispatcher (DB.execLocked, internal/core/dml.go): no second switch over CREATE / INSERT / DML"},

	// One reading of a predicate.
	{name: "one-predicate-reading", kind: forbidUse, scope: []string{"..."},
		what:  []string{"internal/pred.FormCompare", "internal/pred.FormBetween", "internal/pred.FormIn"},
		allow: []string{"internal/pred", "shardSet.targets", "shardSet.localizePred"},
		why:   "read a predicate through internal/pred (Holds, MapLiterals, Spans; climbing.Index.Walk for a dictionary); only shard routing reasons over the integer key space with rules of its own"},

	// One group table, one cached cell read.
	{name: "one-group-table", kind: forbidShape, scope: []string{"internal/exec"}, what: []string{"map[uint64]int32"},
		why: "Grouper and Distinct share groupTable (internal/exec/agg.go); no second hash table keyed by a key hash"},
	{name: "one-cell-read", kind: forbidUse, scope: []string{"internal/store", "internal/climbing"},
		what: []string{"internal/flash.Cache.ReadAt"},
		why:  "a single-cell read goes through flash.Cache.Cell with the reader's Hint; Cell itself copies a cell that straddles pages"},

	// One home per knob.
	{name: "one-home-per-knob", kind: forbidDef, scope: []string{"driver"},
		what: []string{`(^|\.)defaultConfig$`, `^Config\.options$`},
		why:  "ParseDSN turns each key into its core.Option; the driver keeps no defaults and no second translation"},
	{name: "one-home-per-knob", kind: forbidDef, scope: []string{"driver"},
		what: []string{`^Config\.`}, on: "internal/core.Options",
		why: "a driver.Config field mirrors a core.Options field; ParseDSN turns each key into its core.Option"},
	{name: "one-home-per-knob", kind: forbidDef, scope: []string{"internal/core"}, what: []string{`(?i)^Options\.lan$`},
		why: "no option sets the LAN profile: newEngine connects bus.LAN() directly"},
	{name: "one-home-per-knob", kind: forbidField, scope: []string{"internal/core"},
		on: "internal/core.Options", what: []string{"PlanCacheSize"},
		allow: []string{"defaultOptions", "WithPlanCacheSize", "openResolved"},
		why:   "the plan-cache default is written once, in defaultOptions; n <= 0 disables the cache everywhere (TestPlanCacheDisabled)"},

	// One tally per fact.
	{name: "one-tally-per-fact", kind: forbidDef, scope: []string{"internal/core/plancache.go"},
		what: []string{`(?i)shard`, `^planCache\.(hits|misses)$`},
		why:  "the plan cache is one map and one LRU under one mutex; compileCached counts each lookup on the DB and session registries, and PlanCacheStats reads them"},
	{name: "one-tally-per-fact", kind: forbidDef, scope: []string{"internal/core"}, what: []string{`(^|\.)checkpointsRun$`},
		why: "CheckpointsRun and DeltaSummary read the checkpoints_total counter; no second CHECKPOINT count"},
	{name: "one-tally-per-fact", kind: forbidDef, scope: []string{"internal/metrics"}, what: []string{`(^|\.)histShards$`},
		why: "a histogram is one lazily allocated set of counts; lanes behind a shared round-robin word remove no contention"},

	// The rebuild takes one typed table image and ranks by key type.
	{name: "rank-by-key-type", kind: forbidShape, scope: []string{"internal/climbing", "internal/store"},
		what: []string{"map[value.Value]Any"},
		why:  "rank typed keys (climbing.rankWords / rankStrings / rankBySort); map[value.Value] hashes a 32-byte struct per cell"},
	{name: "one-table-image", kind: forbidShape, scope: []string{"internal/core"}, what: []string{"map[string][][]value.Value"},
		why: "hand rebuilds a tableImage (internal/core/image.go), not boxed columns"},
	{name: "one-table-image", kind: forbidUse, scope: []string{"internal/store", "internal/climbing"},
		what: []string{"internal/value.Coerce"},
		why:  "cells are coerced once, at the front door's boundary (core.checkRow); the stores and the index build take value.Column"},

	// CHECKPOINT reads the delta, not the table, and encodes once.
	{name: "prepare-reads-the-delta", kind: forbidShape, scope: []string{"internal/core"}, what: []string{"[][]uint8"},
		why: "CHECKPOINT works out its dead rows from the delta (deadRows) and copies clean runs (extractLocked); liveness is a point-operation memo"},
	{name: "prepare-reads-the-delta", kind: forbidDef, scope: []string{"internal/core"}, what: []string{`(^|\.)sweep$`},
		why: "liveness has no sweep mode; CHECKPOINT works out its dead rows from the delta (deadRows)"},
	{name: "prepare-reads-the-delta", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"internal/core.engine.newLiveness"}, args: []string{"true", "false"},
		why: "liveness has no dense or sweep mode; it is a point-operation memo"},
	{name: "checkpoint-encodes-once", kind: forbidUse, scope: []string{"internal/core"},
		what: []string{"encoding/json.Marshal"}, args: []string{"internal/core.sidecarDoc"},
		why: "encodeSidecar writes the sidecar in one typed pass, beside the flash sync; TestSidecarEncoderMatchesJSON holds it to json.Marshal"},
	{name: "checkpoint-encodes-once", kind: forbidDef, scope: []string{"internal/climbing"}, what: []string{`(^|\.)(climbRanks|bucketByRank)$`},
		why: "an upper level is counted on the level below and filled in one pass (climbing.Encoder); climbRanks / bucketByRank are identity_test.go's reference only"},
}

// TestArchitecture fails on every row of archRules a non-test file
// breaks, with the row's reason, and on a row that names something the
// repository does not have.
func TestArchitecture(t *testing.T) {
	l, err := repoSurface()
	if err != nil {
		t.Fatal(err)
	}
	hits, errs := l.archCheck(archRules)
	for _, err := range errs {
		t.Error(err)
	}
	for _, h := range hits {
		t.Errorf("%s: %s: %s — %s", h.pos, h.rule.name, h.what, h.rule.why)
	}
}

// TestArchitectureFixture checks that every kind of row fires, and fires
// only where it should: each line of testdata/architecture that breaks a
// row of archFixtureRules says so in a "// want" comment.
func TestArchitectureFixture(t *testing.T) {
	repo, err := repoSurface()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("testdata", "architecture")
	l, err := loadSurface(root, "fixture", repo.fset, repo.std)
	if err != nil {
		t.Fatal(err)
	}
	hits, errs := l.archCheck(archFixtureRules)
	for _, err := range errs {
		t.Error(err)
	}
	got := map[string]bool{}
	for _, h := range hits {
		got[fmt.Sprintf("%s:%d %s", h.pos.Filename, h.pos.Line, h.rule.name)] = true
	}
	want := map[string]bool{}
	wantRE := regexp.MustCompile(`// want (.+)$`)
	for _, sp := range l.dirs {
		for _, f := range sp.prod {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := wantRE.FindStringSubmatch(c.Text); m != nil {
						p := l.fset.Position(c.Pos())
						for _, name := range strings.Fields(m[1]) {
							want[fmt.Sprintf("%s:%d %s", p.Filename, p.Line, name)] = true
						}
					}
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the fixture wants nothing")
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: the row did not fire", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: the row fired where nothing is wanted", k)
		}
	}
	for kind := forbidImport; kind <= forbidFile; kind++ {
		if !slices.ContainsFunc(archFixtureRules, func(r archRule) bool { return r.kind == kind }) {
			t.Errorf("no fixture row of kind %d", kind)
		}
	}
}

// archFixtureRules are rows over testdata/architecture, one or more of
// every kind, each planted once in the fixture beside a use it allows.
var archFixtureRules = []archRule{
	{name: "import", kind: forbidImport, scope: []string{"medium"}, what: []string{"hash/crc32"}, why: "fixture"},
	{name: "call", kind: forbidUse, scope: []string{"engine"}, what: []string{"slices.SortFunc"}, why: "fixture"},
	{name: "caller", kind: forbidUse, scope: []string{"engine"}, what: []string{"engine.Estimate"},
		allow: []string{"engine.optimize"}, why: "fixture"},
	{name: "file-allowed", kind: forbidUse, scope: []string{"engine"}, what: []string{"encoding/binary.LittleEndian"},
		allow: []string{"engine/record.go"}, why: "fixture"},
	{name: "inside", kind: forbidUse, scope: []string{"engine"}, in: []string{"reader.readPage"},
		what: []string{"os.File.ReadAt"}, why: "fixture"},
	{name: "operand", kind: forbidUse, scope: []string{"engine"}, what: []string{"engine.engine.cpu"},
		args: []string{"engine.Compare"}, why: "fixture"},
	{name: "marshal", kind: forbidUse, scope: []string{"engine"}, what: []string{"encoding/json.Marshal"},
		args: []string{"engine.doc"}, why: "fixture"},
	{name: "nil", kind: forbidUse, scope: []string{"engine"}, what: []string{"engine.engine.shards"},
		args: []string{"nil"}, why: "fixture"},
	{name: "field", kind: forbidField, scope: []string{"engine/front.go"}, on: "engine.engine",
		what: []string{"mu", "dev"}, why: "fixture"},
	{name: "shape", kind: forbidShape, scope: []string{"engine"}, what: []string{"map[uint64]int32", "map[engine.Key]Any"},
		why: "fixture"},
	{name: "def", kind: forbidDef, scope: []string{"..."}, what: []string{`^batchMode$`, `^cache\.hits$`}, why: "fixture"},
	{name: "mirror", kind: forbidDef, scope: []string{"engine"}, what: []string{`^Config\.`}, on: "engine.Options",
		why: "fixture"},
	{name: "file", kind: forbidFile, what: []string{"engine/merge.go"}, why: "fixture"},
}

// archFacts is what the non-test files import, use, call, type and
// define, each with where it happens.
type archFacts struct {
	imports []archFact // path
	uses    []archFact // obj: every identifier that names an object, a field a selector reaches included
	calls   []archFact // obj and args: every call, and every comparison with nil
	types   []archFact // t: every expression of a composite type
	defs    []archFact // name
}

// archFact is one thing a non-test file does, and where.
type archFact struct {
	pos  token.Pos
	file string       // slash path from the module root
	dir  string       // the file's package directory, "." at the root
	fn   types.Object // the enclosing function or method; nil at package level

	path string         // the import path
	obj  types.Object   // the object used or called
	args []types.Object // a call's operands: the object each names, and its named type
	t    types.Type     // the expression's type
	name string         // the definition's "Name", or "Type.Member" for a method or a struct field
}

// collect records file's facts from its package's type information.
func (fs *archFacts) collect(l *surfaceLoader, f *ast.File, info *types.Info) {
	rel, _ := filepath.Rel(l.root, l.fset.File(f.Package).Name())
	at := archFact{file: filepath.ToSlash(rel)}
	at.dir = path.Dir(at.file)
	for _, is := range f.Imports {
		a := at
		a.pos = is.Pos()
		a.path, _ = strconv.Unquote(is.Path.Value)
		fs.imports = append(fs.imports, a)
	}
	fields := map[*ast.Ident]string{} // a struct type's field -> "Type.field"
	for _, d := range f.Decls {
		at.fn = nil
		if fd, ok := d.(*ast.FuncDecl); ok {
			at.fn = info.Defs[fd.Name]
		}
		here := func(p token.Pos) archFact { a := at; a.pos = p; return a }
		ast.Inspect(d, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.TypeSpec:
				if st, ok := x.Type.(*ast.StructType); ok {
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							fields[id] = x.Name.Name + "." + id.Name
						}
					}
				}
			case *ast.Ident:
				if obj := info.Uses[x]; obj != nil {
					a := here(x.Pos())
					a.obj = archOrigin(obj)
					fs.uses = append(fs.uses, a)
				}
				if obj := info.Defs[x]; obj != nil {
					a := here(x.Pos())
					if a.name = fields[x]; a.name == "" {
						a.name = archDefName(obj)
					}
					fs.defs = append(fs.defs, a)
				}
			case *ast.CallExpr:
				if obj := archNamed(info, x.Fun); obj != nil {
					a := here(x.Pos())
					a.obj = obj
					for _, e := range x.Args {
						a.args = append(a.args, archOperand(info, e)...)
					}
					fs.calls = append(fs.calls, a)
				}
			case *ast.BinaryExpr:
				if x.Op == token.EQL || x.Op == token.NEQ {
					for _, side := range [][2]ast.Expr{{x.X, x.Y}, {x.Y, x.X}} {
						if nilObj, ok := archNamed(info, side[1]).(*types.Nil); ok {
							if obj := archNamed(info, side[0]); obj != nil {
								a := here(x.Pos())
								a.obj, a.args = obj, []types.Object{nilObj}
								fs.calls = append(fs.calls, a)
							}
						}
					}
				}
			}
			if e, ok := n.(ast.Expr); ok {
				if tv, ok := info.Types[e]; ok && archComposite(tv.Type) {
					a := here(e.Pos())
					a.t = tv.Type
					fs.types = append(fs.types, a)
				}
			}
			return true
		})
	}
}

// archNamed is the object an identifier or a selector names, nil for
// any other expression.
func archNamed(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return archOrigin(info.Uses[x])
	case *ast.SelectorExpr:
		return archOrigin(info.Uses[x.Sel])
	}
	return nil
}

// archOperand is what an operand names and the named type it has.
func archOperand(info *types.Info, e ast.Expr) []types.Object {
	var objs []types.Object
	if obj := archNamed(info, e); obj != nil {
		objs = append(objs, obj)
	}
	if n := surfaceNamed(info.TypeOf(e)); n != nil {
		objs = append(objs, n.Obj())
	}
	return objs
}

// archOrigin maps an instantiated function or field to its generic
// declaration, the object a row names.
func archOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// archDefName is "Type.Method" for a method and the plain name of any
// other definition.
func archDefName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			if n := surfaceNamed(recv.Type()); n != nil {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

func archComposite(t types.Type) bool {
	switch types.Unalias(t).(type) {
	case *types.Map, *types.Slice, *types.Array, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// archHit is one place a row is broken.
type archHit struct {
	pos  token.Position
	rule *archRule
	what string
}

// archCheck resolves every row and returns the places where a non-test
// file breaks one. A row whose scope, functions, objects, fields or
// shapes do not resolve is an error: a rename must update the table, not
// silence it.
func (l *surfaceLoader) archCheck(rules []archRule) ([]archHit, []error) {
	var hits []archHit
	var errs []error
	for i := range rules {
		r := &rules[i]
		m, err := l.archResolve(r)
		if err != nil {
			errs = append(errs, fmt.Errorf("rule %s: %w", r.name, err))
			continue
		}
		hit := func(at archFact, what string) {
			if m.covers(at) {
				hits = append(hits, archHit{l.fset.Position(at.pos), r, what})
			}
		}
		switch r.kind {
		case forbidImport:
			for _, im := range l.facts.imports {
				for _, w := range r.what {
					if im.path == w || im.path == l.module+"/"+w {
						hit(im, "imports "+im.path)
					}
				}
			}
		case forbidUse, forbidField:
			facts := l.facts.uses
			if len(m.args) > 0 {
				facts = l.facts.calls
			}
			for _, u := range facts {
				if key, ok := m.objs[u.obj]; ok && (len(m.args) == 0 || slices.ContainsFunc(u.args, func(a types.Object) bool { return m.args[a] })) {
					hit(u, "uses "+key)
				}
			}
		case forbidShape:
			for _, ty := range l.facts.types {
				for i, shape := range m.shapes {
					if archShapeMatch(shape, ty.t, m.anyT) {
						hit(ty, "has type "+r.what[i])
						break
					}
				}
			}
		case forbidDef:
			for _, d := range l.facts.defs {
				for _, re := range m.names {
					if re.MatchString(d.name) && (r.on == "" || m.likeOn(d.name)) {
						hit(d, "defines "+d.name)
						break
					}
				}
			}
		case forbidFile:
			for _, f := range r.what {
				if _, err := os.Stat(filepath.Join(l.root, f)); err == nil {
					hits = append(hits, archHit{token.Position{Filename: filepath.Join(l.root, f), Line: 1}, r, "exists"})
				}
			}
		}
	}
	return hits, errs
}

// archMatcher is a row resolved against the load.
type archMatcher struct {
	dirs, files  map[string]bool // scope; both empty for "..."
	in, allowFns map[types.Object]bool
	allowPaths   []string
	objs         map[types.Object]string
	args         map[types.Object]bool
	onFields     []string // lowercased, for a definition row's on
	shapes       []types.Type
	anyT         types.Type
	names        []*regexp.Regexp
}

func (m *archMatcher) covers(at archFact) bool {
	if len(m.dirs)+len(m.files) > 0 && !m.dirs[at.dir] && !m.files[at.file] {
		return false
	}
	if len(m.in) > 0 && !m.in[archOrigin(at.fn)] {
		return false
	}
	if m.allowFns[archOrigin(at.fn)] {
		return false
	}
	for _, p := range m.allowPaths {
		if at.file == p || at.dir == p {
			return false
		}
	}
	return true
}

// likeOn reports whether a definition's name is like a field of the
// row's on type: one contains the other, case folded.
func (m *archMatcher) likeOn(def string) bool {
	name := strings.ToLower(def[strings.LastIndex(def, ".")+1:])
	return slices.ContainsFunc(m.onFields, func(f string) bool {
		return strings.Contains(f, name) || strings.Contains(name, f)
	})
}

func (l *surfaceLoader) archResolve(r *archRule) (*archMatcher, error) {
	m := &archMatcher{dirs: map[string]bool{}, files: map[string]bool{}, in: map[types.Object]bool{},
		allowFns: map[types.Object]bool{}, objs: map[types.Object]string{}, args: map[types.Object]bool{}}
	var pkgs []*types.Package
	for _, s := range r.scope {
		switch {
		case s == "...":
			for _, p := range l.prod {
				pkgs = append(pkgs, p)
			}
			continue
		case strings.HasSuffix(s, ".go"):
			if _, err := os.Stat(filepath.Join(l.root, s)); err != nil {
				return nil, fmt.Errorf("scope %s: %w", s, err)
			}
			m.files[s] = true
			s = path.Dir(s)
		default:
			m.dirs[s] = true
		}
		p := l.prod[path.Join(l.module, s)]
		if p == nil {
			return nil, fmt.Errorf("scope %s is no package of the module", s)
		}
		pkgs = append(pkgs, p)
	}
	if slices.Contains(r.scope, "...") {
		clear(m.dirs)
		clear(m.files)
	}
	fn := func(name string) (types.Object, error) {
		recv, method, isMethod := strings.Cut(name, ".")
		for _, p := range pkgs {
			obj := p.Scope().Lookup(recv)
			if isMethod && obj != nil {
				obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, p, method)
			}
			if _, ok := obj.(*types.Func); ok {
				return obj, nil
			}
		}
		return nil, fmt.Errorf("function %s is in none of the scope's packages", name)
	}
	for _, name := range r.in {
		obj, err := fn(name)
		if err != nil {
			return nil, err
		}
		m.in[obj] = true
	}
	for _, a := range r.allow {
		if strings.Contains(a, "/") {
			if _, err := os.Stat(filepath.Join(l.root, a)); err != nil {
				return nil, fmt.Errorf("allow %s: %w", a, err)
			}
			m.allowPaths = append(m.allowPaths, a)
			continue
		}
		obj, err := fn(a)
		if err != nil {
			return nil, err
		}
		m.allowFns[obj] = true
	}
	switch r.kind {
	case forbidUse:
		for _, w := range r.what {
			obj, err := l.archObject(w)
			if err != nil {
				return nil, err
			}
			m.objs[obj] = w
		}
		for _, a := range r.args {
			obj, err := l.archObject(a)
			if err != nil {
				return nil, err
			}
			m.args[obj] = true
		}
	case forbidField:
		for _, f := range r.what {
			obj, err := l.archObject(r.on + "." + f)
			if err != nil {
				return nil, err
			}
			if v, ok := obj.(*types.Var); !ok || !v.IsField() {
				return nil, fmt.Errorf("%s.%s is no field", r.on, f)
			}
			m.objs[obj] = r.on + "." + f
		}
	case forbidShape:
		scope := types.NewPackage("archshape", "archshape")
		m.anyT = types.NewNamed(types.NewTypeName(token.NoPos, scope, "Any", nil), types.NewInterfaceType(nil, nil), nil)
		scope.Scope().Insert(m.anyT.(*types.Named).Obj())
		for p, pkg := range l.prod {
			if strings.HasPrefix(p, l.module+"/") && scope.Scope().Lookup(pkg.Name()) == nil {
				scope.Scope().Insert(types.NewPkgName(token.NoPos, scope, pkg.Name(), pkg))
			}
		}
		for _, w := range r.what {
			tv, err := types.Eval(l.fset, scope, token.NoPos, w)
			if err != nil || !tv.IsType() {
				return nil, fmt.Errorf("shape %s: %v", w, err)
			}
			m.shapes = append(m.shapes, tv.Type)
		}
	case forbidDef:
		for _, w := range r.what {
			re, err := regexp.Compile(w)
			if err != nil {
				return nil, err
			}
			m.names = append(m.names, re)
		}
		if r.on != "" {
			obj, err := l.archObject(r.on)
			if err != nil {
				return nil, err
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				return nil, fmt.Errorf("%s is no struct", r.on)
			}
			for i := range st.NumFields() {
				m.onFields = append(m.onFields, strings.ToLower(st.Field(i).Name()))
			}
		}
	}
	return m, nil
}

// archObject resolves "pkg.Name" or "pkg.Type.Member" (pkg a directory
// of the module or a standard import path) or a universe name.
func (l *surfaceLoader) archObject(key string) (types.Object, error) {
	if obj := types.Universe.Lookup(key); obj != nil {
		return obj, nil
	}
	slash := strings.LastIndex(key, "/")
	dot := strings.Index(key[slash+1:], ".")
	if dot < 0 {
		return nil, fmt.Errorf("object %s: want pkg.Name", key)
	}
	dir, rest := key[:slash+1+dot], key[slash+2+dot:]
	pkg := l.prod[path.Join(l.module, dir)]
	if pkg == nil {
		var err error
		if pkg, err = l.std.Import(dir); err != nil {
			return nil, fmt.Errorf("object %s: %w", key, err)
		}
	}
	name, member, _ := strings.Cut(rest, ".")
	obj := pkg.Scope().Lookup(name)
	if obj != nil && member != "" {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	}
	if obj == nil {
		return nil, fmt.Errorf("object %s does not resolve", key)
	}
	return obj, nil
}

// archShapeMatch reports whether t has shape pat, where anyT in pat
// matches any type.
func archShapeMatch(pat, t, anyT types.Type) bool {
	pat, t = types.Unalias(pat), types.Unalias(t)
	if pat == anyT {
		return true
	}
	switch p := pat.(type) {
	case *types.Map:
		m, ok := t.(*types.Map)
		return ok && archShapeMatch(p.Key(), m.Key(), anyT) && archShapeMatch(p.Elem(), m.Elem(), anyT)
	case *types.Slice:
		s, ok := t.(*types.Slice)
		return ok && archShapeMatch(p.Elem(), s.Elem(), anyT)
	case *types.Pointer:
		q, ok := t.(*types.Pointer)
		return ok && archShapeMatch(p.Elem(), q.Elem(), anyT)
	case *types.Array:
		a, ok := t.(*types.Array)
		return ok && a.Len() == p.Len() && archShapeMatch(p.Elem(), a.Elem(), anyT)
	}
	return types.Identical(pat, t)
}
