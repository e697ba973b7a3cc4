package plan

import (
	"strings"
	"testing"
	"time"

	"github.com/ghostdb/ghostdb/internal/bus"
	"github.com/ghostdb/ghostdb/internal/device"
	"github.com/ghostdb/ghostdb/internal/schema"
	"github.com/ghostdb/ghostdb/internal/sql"
	"github.com/ghostdb/ghostdb/internal/value"
)

// figure3 builds the paper's schema.
func figure3(t *testing.T) *schema.Schema {
	t.Helper()
	s := schema.New()
	pk := func(n string) schema.Column {
		return schema.Column{Name: n, Type: schema.Type{Kind: value.Int}, PrimaryKey: true}
	}
	str := func(n string, hidden bool) schema.Column {
		return schema.Column{Name: n, Type: schema.Type{Kind: value.String}, Hidden: hidden}
	}
	fk := func(n, ref string) schema.Column {
		return schema.Column{Name: n, Type: schema.Type{Kind: value.Int}, RefTable: ref, Hidden: true}
	}
	mk := func(name string, cols ...schema.Column) {
		tb, err := schema.NewTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	mk("Doctor", pk("DocID"), str("Name", false), str("Country", false))
	mk("Patient", pk("PatID"), str("Name", true),
		schema.Column{Name: "Age", Type: schema.Type{Kind: value.Int}})
	mk("Medicine", pk("MedID"), str("Name", false), str("Type", false))
	mk("Visit", pk("VisID"),
		schema.Column{Name: "Date", Type: schema.Type{Kind: value.Date}},
		str("Purpose", true), fk("DocID", "Doctor"), fk("PatID", "Patient"))
	mk("Prescription", pk("PreID"),
		schema.Column{Name: "Quantity", Type: schema.Type{Kind: value.Int}, Hidden: true},
		fk("MedID", "Medicine"), fk("VisID", "Visit"))
	if err := s.Freeze(); err != nil {
		t.Fatal(err)
	}
	return s
}

func bind(t *testing.T, s *schema.Schema, q string) *Query {
	t.Helper()
	sel, err := sql.ParseSelect(q)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := Bind(s, sel)
	if err != nil {
		t.Fatal(err)
	}
	return bq
}

func TestBindPaperQuery(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Med.Name, Pre.Quantity, Vis.Date
		FROM Medicine Med, Prescription Pre, Visit Vis
		WHERE Vis.Date > 05-11-2006 AND Vis.Purpose = 'Sclerosis'
		AND Med.Type = 'Antibiotic' AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID`)
	if q.Root.Name != "Prescription" {
		t.Errorf("root = %s", q.Root.Name)
	}
	if len(q.Preds) != 3 {
		t.Fatalf("%d preds (joins must be stripped)", len(q.Preds))
	}
	if !q.Preds[1].Hidden() || q.Preds[0].Hidden() || q.Preds[2].Hidden() {
		t.Error("hidden classification wrong")
	}
	// Date literal coerced to Date kind.
	if q.Preds[0].P.Val.Kind() != value.Date {
		t.Errorf("date literal kind = %v", q.Preds[0].P.Val.Kind())
	}
	if got := q.Projs[1].String(); got != "Prescription.Quantity" {
		t.Errorf("proj[1] = %s", got)
	}
	if vis := q.VisiblePreds(); len(vis) != 2 {
		t.Errorf("visible preds = %v", vis)
	}
	if hid := q.HiddenPreds(); len(hid) != 1 || hid[0] != 1 {
		t.Errorf("hidden preds = %v", hid)
	}
	if tv := q.TablesWithVisibleProjection(); !tv["Medicine"] || !tv["Visit"] || tv["Prescription"] {
		t.Errorf("visible projection tables = %v", tv)
	}
}

func TestBindErrors(t *testing.T) {
	s := figure3(t)
	bad := []string{
		`SELECT X FROM Ghost`,
		`SELECT Nope FROM Doctor`,
		`SELECT Doc.Name FROM Doctor Doc, Doctor D2`,                                    // self join
		`SELECT Name FROM Doctor Doc, Medicine Med`,                                     // ambiguous Name + sibling set
		`SELECT Doc.Name FROM Doctor Doc, Patient Pat`,                                  // siblings, no root
		`SELECT Doc.Name FROM Doctor Doc WHERE Doc.Name = 5`,                            // type mismatch... string vs int is incomparable
		`SELECT Vis.VisID FROM Visit Vis WHERE Vis.Date = 'nope'`,                       // bad date literal
		`SELECT V.VisID FROM Visit V WHERE X.Y = 1`,                                     // unknown alias
		`SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Pre.PreID = Vis.VisID`, // non-FK join
	}
	for _, qs := range bad {
		sel, err := sql.ParseSelect(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		if _, err := Bind(s, sel); err == nil {
			t.Errorf("Bind(%q) succeeded", qs)
		}
	}
}

func TestBindQualifierByTableName(t *testing.T) {
	s := figure3(t)
	// Even when aliased, the catalog table name resolves.
	q := bind(t, s, `SELECT Visit.Date FROM Visit V WHERE Visit.Purpose = 'x'`)
	if q.Projs[0].Table != "Visit" {
		t.Errorf("projs = %v", q.Projs)
	}
}

func TestBindStar(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT * FROM Visit Vis, Doctor Doc`)
	// Visit has 5 columns, Doctor 3.
	if len(q.Projs) != 8 {
		t.Errorf("star expanded to %d columns", len(q.Projs))
	}
	if q.Root.Name != "Visit" {
		t.Errorf("root = %s", q.Root.Name)
	}
}

func hasIndexAll(table, column string) bool { return true }

func hasIndexNone(table, column string) bool { return false }

func TestEnumerate(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Pre.PreID FROM Prescription Pre, Visit Vis, Medicine Med
		WHERE Vis.Date > 2006-01-01 AND Med.Type = 'Antibiotic' AND Vis.Purpose = 'Sclerosis'`)
	specs := Enumerate(q, hasIndexAll)
	// Two visible predicates -> 4 strategy combos; cross-filtering adds
	// variants where a non-root table has >= 2 pre-integrated preds
	// (Vis.Date pre + Vis.Purpose index).
	if len(specs) < 4 {
		t.Fatalf("%d specs", len(specs))
	}
	labels := map[string]bool{}
	withCross := 0
	for _, sp := range specs {
		if labels[sp.Label] {
			t.Errorf("duplicate label %s", sp.Label)
		}
		labels[sp.Label] = true
		if sp.CrossFilter {
			withCross++
		}
		if err := sp.Validate(q, hasIndexAll); err != nil {
			t.Errorf("spec %s invalid: %v", sp.Describe(q), err)
		}
	}
	if withCross == 0 {
		t.Error("no cross-filtering variants enumerated")
	}

	// Without any indexes, pre-filtering non-root predicates is
	// infeasible: only all-post plans survive, and the hidden predicate
	// falls back to hidden-post.
	noIx := Enumerate(q, hasIndexNone)
	if len(noIx) == 0 {
		t.Fatal("no plans without indexes")
	}
	for _, sp := range noIx {
		for i, st := range sp.Strategies {
			if st == StratVisPre && q.Preds[i].Col.Table != q.Root.Name {
				t.Errorf("pre-filter enumerated without translator: %s", sp.Describe(q))
			}
			if st == StratHidIndex {
				t.Errorf("index strategy enumerated without index")
			}
		}
	}
}

func TestSpecValidate(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > 2006-01-01 AND Vis.Purpose = 'Sclerosis'`)
	ok := Spec{Label: "ok", Strategies: []Strategy{StratVisPost, StratHidIndex}}
	if err := ok.Validate(q, hasIndexAll); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Strategies: []Strategy{StratVisPost}},                 // arity
		{Strategies: []Strategy{StratHidIndex, StratHidIndex}}, // visible pred with hidden strategy
		{Strategies: []Strategy{StratVisPost, StratVisPre}},    // hidden pred with visible strategy
		{Strategies: []Strategy{StratAuto, StratHidIndex}},     // unresolved
	}
	for i, sp := range bad {
		if err := sp.Validate(q, hasIndexAll); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	noIx := Spec{Strategies: []Strategy{StratVisPre, StratHidPost}}
	if err := noIx.Validate(q, hasIndexNone); err == nil {
		t.Error("pre-filter without translator accepted")
	}
}

func TestDescribeAndStrings(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > 2006-01-01 AND Vis.Purpose = 'Sclerosis'`)
	sp := Spec{Label: "P9", Strategies: []Strategy{StratVisPre, StratHidIndex}, CrossFilter: true}
	d := sp.Describe(q)
	for _, want := range []string{"P9", "Visit.Date:pre", "Visit.Purpose:index", "cross"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe = %q missing %q", d, want)
		}
	}
	for _, st := range []Strategy{StratAuto, StratVisPre, StratVisPost, StratHidIndex, StratHidPost} {
		if st.String() == "" {
			t.Error("empty strategy name")
		}
	}
	clone := sp.Clone()
	clone.Strategies[0] = StratVisPost
	if sp.Strategies[0] != StratVisPre {
		t.Error("Clone shares strategy slice")
	}
}

func TestEstimateOrdersSelectivities(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Pre.PreID FROM Prescription Pre, Visit Vis
		WHERE Vis.Date > 2006-01-01 AND Vis.Purpose = 'Sclerosis'`)
	in := CostInputs{
		TableRows:     map[string]int{"Prescription": 1_000_000, "Visit": 100_000, "Doctor": 1000, "Patient": 10000, "Medicine": 1000},
		Profile:       device.SmartUSB2007(),
		Bus:           bus.USBFullSpeed(),
		AvgValueBytes: 12,
	}
	pre := Spec{Strategies: []Strategy{StratVisPre, StratHidIndex}}
	post := Spec{Strategies: []Strategy{StratVisPost, StratHidIndex}}

	// Highly selective visible predicate: pre-filtering should win.
	in.Counts = []int{100, 2000}
	preCost := Estimate(q, pre, in)
	postCost := Estimate(q, post, in)
	if preCost >= postCost {
		t.Errorf("selective: pre %v >= post %v", preCost, postCost)
	}

	// Very unselective visible predicate: post-filtering should win.
	in.Counts = []int{80_000, 2000}
	preCost = Estimate(q, pre, in)
	postCost = Estimate(q, post, in)
	if preCost <= postCost {
		t.Errorf("unselective: pre %v <= post %v", preCost, postCost)
	}

	// Unknown counts fall back without panicking.
	in.Counts = []int{-1, -1}
	if Estimate(q, Spec{Strategies: []Strategy{StratVisPost, StratHidPost}}, in) <= 0 {
		t.Error("estimate with unknown counts not positive")
	}
	_ = time.Duration(0)
}

func TestBindParams(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Vis.VisID FROM Visit Vis
		WHERE Vis.Date BETWEEN ? AND ? AND Vis.Purpose = ?`)
	if q.NumParams != 3 {
		t.Fatalf("NumParams = %d, want 3", q.NumParams)
	}
	// The shape renders placeholders, not values.
	if !strings.Contains(q.SQL, "BETWEEN ? AND ?") {
		t.Fatalf("shape SQL = %q", q.SQL)
	}

	bound, err := q.BindParams([]value.Value{
		value.NewString("2006-01-01"), // string date coerces at bind time
		value.NewString("2006-12-31"),
		value.NewString("Sclerosis"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if bound.NumParams != 0 {
		t.Fatalf("bound NumParams = %d", bound.NumParams)
	}
	if k := bound.Preds[0].P.Lo.Kind(); k != value.Date {
		t.Errorf("bound Lo kind = %v, want Date", k)
	}
	if got := bound.Preds[1].P.Val.Str(); got != "Sclerosis" {
		t.Errorf("bound Val = %q", got)
	}
	// The shape is untouched: bind-many means each binding is a copy.
	if !q.Preds[0].P.Lo.IsParam() || !q.Preds[1].P.Val.IsParam() {
		t.Error("BindParams mutated the shape")
	}

	// Arity errors.
	if _, err := q.BindParams(nil); err == nil {
		t.Error("BindParams(nil) on 3-param shape should fail")
	}
	if _, err := q.BindParams(make([]value.Value, 4)); err == nil {
		t.Error("BindParams with 4 args should fail")
	}
	// Binding an unbindable kind fails through coercion.
	if _, err := q.BindParams([]value.Value{
		value.NewBool(true), value.NewBool(false), value.NewString("x"),
	}); err == nil {
		t.Error("BindParams with uncoercible kinds should fail")
	}
	// A parameter value cannot itself be a placeholder.
	if _, err := q.BindParams([]value.Value{
		value.NewParam(0), value.NewString("2006-12-31"), value.NewString("x"),
	}); err == nil {
		t.Error("BindParams with a Param argument should fail")
	}

	// A parameterless query binds to itself.
	plain := bind(t, s, `SELECT Vis.VisID FROM Visit Vis WHERE Vis.Purpose = 'Flu'`)
	same, err := plain.BindParams(nil)
	if err != nil || same != plain {
		t.Errorf("parameterless BindParams = %v, %v", same, err)
	}
}

func TestBindAggregateShape(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT Country, COUNT(*), SUM(Quantity), AVG(Quantity)
		FROM Doctor, Visit, Prescription
		GROUP BY Country HAVING COUNT(*) > 2 ORDER BY SUM(Quantity) DESC, Country`)
	if !q.HasPostOps() || !q.Aggregated() || !q.Grouped {
		t.Fatal("aggregate shape flags not set")
	}
	// Physical projections: Country (group key) + Quantity (shared
	// argument of SUM and AVG), deduplicated.
	if len(q.Projs) != 2 {
		t.Fatalf("projs = %v", q.Projs)
	}
	if q.Projs[0].Column != "Country" || q.Projs[1].Column != "Quantity" {
		t.Fatalf("projs = %v", q.Projs)
	}
	// Accumulators: COUNT(*), SUM(Quantity), AVG(Quantity) — the HAVING
	// and ORDER BY expressions reuse the select list's.
	if len(q.Aggs) != 3 {
		t.Fatalf("aggs = %v", q.Aggs)
	}
	if q.Aggs[2].Kind != value.Float {
		t.Errorf("AVG kind = %v, want FLOAT", q.Aggs[2].Kind)
	}
	if len(q.Outputs) != 4 || q.VisibleOuts != 4 {
		t.Fatalf("outputs = %v (visible %d)", q.Outputs, q.VisibleOuts)
	}
	labels := q.ColumnLabels()
	if labels[1] != "COUNT(*)" || labels[2] != "SUM(Prescription.Quantity)" {
		t.Fatalf("labels = %v", labels)
	}
	if q.OutputKind(1) != value.Int || q.OutputKind(3) != value.Float {
		t.Fatalf("output kinds = %v %v", q.OutputKind(1), q.OutputKind(3))
	}
	if len(q.OrderBy) != 2 || q.OrderBy[0].Out != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Out != 0 {
		t.Fatalf("order by = %v", q.OrderBy)
	}
	if len(q.Having) != 1 || q.Having[0].AggIdx != 0 {
		t.Fatalf("having = %v", q.Having)
	}
}

func TestBindHiddenOrderKey(t *testing.T) {
	s := figure3(t)
	// Ordering by an unselected column appends a hidden output.
	q := bind(t, s, `SELECT Name FROM Doctor ORDER BY Country DESC`)
	if q.VisibleOuts != 1 || len(q.Outputs) != 2 {
		t.Fatalf("outputs = %v (visible %d)", q.Outputs, q.VisibleOuts)
	}
	if q.OrderBy[0].Out != 1 || !q.OrderBy[0].Desc {
		t.Fatalf("order by = %v", q.OrderBy)
	}
	if got := q.ColumnLabels(); len(got) != 1 || got[0] != "Doctor.Name" {
		t.Fatalf("labels = %v", got)
	}
}

func TestBindHavingParams(t *testing.T) {
	s := figure3(t)
	q := bind(t, s, `SELECT COUNT(*) FROM Visit WHERE Purpose = ? HAVING COUNT(*) >= ?`)
	if q.NumParams != 2 {
		t.Fatalf("NumParams = %d, want 2", q.NumParams)
	}
	bound, err := q.BindParams([]value.Value{value.NewString("Checkup"), value.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Having[0].Val.Int() != 2 {
		t.Fatalf("bound having = %v", bound.Having[0].Val)
	}
	// The shape keeps its placeholder.
	if !q.Having[0].Val.IsParam() {
		t.Fatal("BindParams mutated the shape's HAVING literal")
	}
	// A string argument cannot compare against an integer COUNT.
	if _, err := q.BindParams([]value.Value{value.NewString("x"), value.NewString("y")}); err == nil {
		t.Fatal("expected a HAVING coercion error")
	}
}

func TestBindAggregateValidation(t *testing.T) {
	s := figure3(t)
	for _, in := range []string{
		"SELECT Name FROM Doctor GROUP BY Country",          // not a grouping column
		"SELECT Name, COUNT(*) FROM Doctor",                 // plain column in a global aggregate
		"SELECT SUM(Name) FROM Doctor",                      // SUM over CHAR
		"SELECT AVG(Date) FROM Visit",                       // AVG over DATE
		"SELECT * FROM Doctor GROUP BY Country",             // star + GROUP BY
		"SELECT COUNT(*) FROM Doctor ORDER BY 2",            // ordinal past the select list
		"SELECT DISTINCT Name FROM Doctor ORDER BY Country", // hidden key under DISTINCT
		"SELECT Name FROM Doctor HAVING COUNT(*) > 1",       // HAVING without aggregated select list
	} {
		sel, err := sql.ParseSelect(in)
		if err != nil {
			t.Fatalf("%q: parse: %v", in, err)
		}
		if _, err := Bind(s, sel); err == nil {
			t.Errorf("%q: expected a bind error", in)
		}
	}
	// MIN/MAX are fine over CHAR and DATE.
	bind(t, s, "SELECT MIN(Name), MAX(Date) FROM Doctor, Visit")
}

// TestDMLBindParamsScriptOrdinals: a DELETE or UPDATE binds from the whole
// script's arguments — the parser numbers placeholders across the script —
// range-checking each ordinal; the shape keeps its '?' text.
func TestDMLBindParamsScriptOrdinals(t *testing.T) {
	s := figure3(t)
	stmts, err := sql.ParseScript(`UPDATE Prescription SET Quantity = ? WHERE PreID = ?;
		DELETE FROM Visit WHERE Purpose IN (?, 'Flu') AND VisID BETWEEN ? AND 9`)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := BindDML(s, stmts[0])
	if err != nil {
		t.Fatal(err)
	}
	del, err := BindDML(s, stmts[1])
	if err != nil {
		t.Fatal(err)
	}
	if upd.NumParams != 2 || del.NumParams != 2 {
		t.Fatalf("NumParams = %d, %d, want 2, 2", upd.NumParams, del.NumParams)
	}
	args := []value.Value{value.NewInt(7), value.NewInt(3), value.NewString("Checkup"), value.NewInt(4)}
	bd, err := del.BindParams(args)
	if err != nil {
		t.Fatal(err)
	}
	if bd.NumParams != 0 || bd.SQL != del.SQL || !strings.Contains(bd.SQL, "IN (?, 'Flu')") {
		t.Fatalf("bound DELETE: NumParams %d, SQL %q", bd.NumParams, bd.SQL)
	}
	if got := bd.Preds[0].P.Set[0].Str(); got != "Checkup" {
		t.Errorf("IN binds %q from ordinal 3, want Checkup", got)
	}
	if got := bd.Preds[1].P.Lo.Int(); got != 4 {
		t.Errorf("BETWEEN binds %d from ordinal 4, want 4", got)
	}
	bu, err := upd.BindParams(args)
	if err != nil {
		t.Fatal(err)
	}
	if v := bu.Sets[0].Val; v.Kind() != value.Int || v.Int() != 7 {
		t.Errorf("SET binds %v, want INTEGER 7", v)
	}
	if !upd.Sets[0].Val.IsParam() {
		t.Error("BindParams mutated the shape")
	}
	// The DELETE's ordinals lie past the first two arguments.
	if _, err := del.BindParams(args[:2]); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("DELETE bound from two arguments: %v, want out of range", err)
	}
	if _, err := upd.BindParams([]value.Value{value.NewString("x"), value.NewInt(1)}); err == nil {
		t.Error("UPDATE bound a CHAR to an INTEGER column")
	}
	plain, err := BindDML(s, &sql.Delete{Table: "Visit"})
	if err != nil {
		t.Fatal(err)
	}
	if same, err := plain.BindParams(args); err != nil || same != plain {
		t.Errorf("parameterless BindParams = %v, %v", same, err)
	}
}
