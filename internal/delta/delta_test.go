package delta

// The delta plane's contract is differential: normalizing base+delta
// incrementally must be observably identical — DDL, schema JSON, FD
// cover, score memo — to a from-scratch run on the concatenated input,
// at every worker count. These tests pin that on randomized relations
// (nulls included), on datagen projections, and on adversarial splits
// that force demotions, re-specialization, and the fallback path.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"normalize/internal/core"
	"normalize/internal/datagen"
	"normalize/internal/fd"
	"normalize/internal/relation"
	"normalize/internal/sqlgen"
)

func randomRelation(r *rand.Rand, attrs, rows, card, pctNull int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			if r.Intn(100) < pctNull {
				row[j] = ""
			} else {
				row[j] = fmt.Sprintf("v%d", r.Intn(card))
			}
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

// rowsOf materializes a slice of string rows from a relation range.
func rowsOf(rel *relation.Relation, lo, hi int) [][]string {
	rows := make([][]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		row := make([]string, len(rel.Attrs))
		for j := range row {
			row[j] = rel.Value(i, j)
		}
		rows = append(rows, row)
	}
	return rows
}

// slice returns a relation holding rows [lo, hi).
func slice(rel *relation.Relation, lo, hi int) *relation.Relation {
	return relation.MustNew(rel.Name, rel.Attrs, rowsOf(rel, lo, hi))
}

// runBoth normalizes the concatenated input from scratch and via the
// delta path, and fails unless every observable — DDL, schema JSON,
// cover, number of degradations — is identical.
func runBoth(t *testing.T, rel *relation.Relation, baseRows int, opts core.Options, cfg Config, label string) *Stats {
	t.Helper()
	base := slice(rel, 0, baseRows)
	deltaRows := rowsOf(rel, baseRows, rel.NumRows())

	parent, err := core.NormalizeRelation(base, opts)
	if err != nil {
		t.Fatalf("%s: parent run: %v", label, err)
	}
	full, err := core.NormalizeRelation(rel, opts)
	if err != nil {
		t.Fatalf("%s: full run: %v", label, err)
	}

	cfg.Options = opts
	child, stats, err := Normalize(context.Background(), base, deltaRows, parent, cfg)
	if err != nil {
		t.Fatalf("%s: delta run: %v", label, err)
	}

	if a, b := sqlgen.Schema(full.Tables), sqlgen.Schema(child.Tables); a != b {
		t.Fatalf("%s: DDL diverged\n--- from scratch ---\n%s\n--- delta ---\n%s", label, a, b)
	}
	if !full.Cover.Equal(child.Cover) {
		t.Fatalf("%s: covers diverged\nfull:\n%sdelta:\n%s", label,
			full.Cover.Format(rel.Attrs), child.Cover.Format(rel.Attrs))
	}
	if len(full.Tables) != len(child.Tables) {
		t.Fatalf("%s: table count %d vs %d", label, len(full.Tables), len(child.Tables))
	}
	for i := range full.Tables {
		if !reflect.DeepEqual(full.Tables[i].Data.Rows(), child.Tables[i].Data.Rows()) {
			t.Fatalf("%s: table %s instances diverged", label, full.Tables[i].Name)
		}
	}
	// The maintained score memo must agree with the from-scratch one on
	// every set both runs measured (both are exact by construction).
	for key, want := range full.ScoreMemo.Distinct {
		if got, ok := child.ScoreMemo.Distinct[key]; ok && got != want {
			t.Fatalf("%s: memo distinct[%s] = %d, from scratch %d", label, key, got, want)
		}
	}
	for key, want := range full.ScoreMemo.MaxLen {
		if got, ok := child.ScoreMemo.MaxLen[key]; ok && got != want {
			t.Fatalf("%s: memo maxlen[%s] = %d, from scratch %d", label, key, got, want)
		}
	}
	return stats
}

func TestDeltaDifferentialRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < 40; trial++ {
		attrs := 2 + r.Intn(7)
		rows := 8 + r.Intn(60)
		card := 1 + r.Intn(4)
		pctNull := r.Intn(25)
		rel := randomRelation(r, attrs, rows, card, pctNull)
		baseRows := 1 + r.Intn(rows-1)
		workers := []int{1, 4}[trial%2]
		label := fmt.Sprintf("trial %d (attrs=%d rows=%d base=%d card=%d null=%d%% workers=%d)",
			trial, attrs, rows, baseRows, card, pctNull, workers)
		stats := runBoth(t, rel, baseRows, core.Options{Workers: workers}, Config{}, label)
		if stats.DeltaRows != rows-baseRows {
			t.Fatalf("%s: DeltaRows = %d, want %d", label, stats.DeltaRows, rows-baseRows)
		}
		if stats.Checked < 0 || stats.Demoted < 0 || stats.Reused < 0 {
			t.Fatalf("%s: negative counters: %+v", label, stats)
		}
	}
}

func TestDeltaDifferentialMaxLhs(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(r, 3+r.Intn(5), 12+r.Intn(40), 2, 10)
		baseRows := rel.NumRows() / 2
		label := fmt.Sprintf("maxlhs trial %d", trial)
		runBoth(t, rel, baseRows, core.Options{MaxLhs: 2, Workers: 1}, Config{}, label)
	}
}

func TestDeltaDifferentialDatagen(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	sources := []*relation.Relation{
		datagen.Horse(1).Denormalized,
		datagen.Plista(2).Denormalized,
	}
	for _, src := range sources {
		n := src.NumRows()
		if n > 80 {
			n = 80
		}
		rel := slice(src, 0, n)
		for _, workers := range []int{1, 4} {
			baseRows := n - 1 - r.Intn(n/4)
			label := fmt.Sprintf("%s workers=%d", src.Name, workers)
			runBoth(t, rel, baseRows, core.Options{Workers: workers}, Config{}, label)
		}
	}
}

// TestDeltaSingleRowAppend covers the smallest delta and a base of one
// row (everything holds on a single row, so the parent cover is the
// trivial one and the delta does all the work).
func TestDeltaSingleRowAppend(t *testing.T) {
	rel := relation.MustNew("t", []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"},
		{"1", "y", "p"},
		{"2", "x", "q"},
	})
	runBoth(t, rel, 1, core.Options{Workers: 1}, Config{}, "base=1")
	runBoth(t, rel, 2, core.Options{Workers: 1}, Config{}, "base=2")
}

// TestDeltaFallback forces the demotion budget to trip: the base rows
// are constant (every FD holds), the appended rows refute nearly all of
// them. The fallback must still produce the identical schema.
func TestDeltaFallback(t *testing.T) {
	rows := [][]string{
		{"1", "1", "1", "1"},
		{"1", "1", "1", "1"},
		{"2", "3", "4", "5"},
		{"6", "7", "8", "9"},
		{"2", "7", "4", "1"},
	}
	rel := relation.MustNew("t", []string{"a", "b", "c", "d"}, rows)
	stats := runBoth(t, rel, 2, core.Options{Workers: 1},
		Config{FallbackFraction: 0.01}, "fallback")
	if !stats.FellBack {
		t.Fatalf("expected fallback with fraction 0.01, got %+v", stats)
	}
	// Disabling the fallback must reach the same schema incrementally.
	stats = runBoth(t, rel, 2, core.Options{Workers: 1},
		Config{FallbackFraction: -1}, "no-fallback")
	if stats.FellBack {
		t.Fatalf("fallback fired despite negative fraction: %+v", stats)
	}
	if stats.Demoted == 0 {
		t.Fatalf("constant base + conflicting delta should demote FDs: %+v", stats)
	}
}

// TestDeltaUntouchedNotChecked pins the counter semantics: appending a
// row whose values are all fresh singletons creates no agreeing pairs,
// so no candidate with a non-empty LHS partition fragment exists and
// only the empty-LHS candidates (if any) are checked.
func TestDeltaUntouchedNotChecked(t *testing.T) {
	rel := relation.MustNew("t", []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"},
		{"2", "y", "q"},
		{"3", "z", "r"},
		{"fresh1", "fresh2", "fresh3"},
	})
	base := slice(rel, 0, 3)
	parent, err := core.NormalizeRelation(base, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Normalize(context.Background(), base, rowsOf(rel, 3, 4), parent,
		Config{Options: core.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checked != 0 {
		t.Fatalf("all-singleton append should validate nothing, checked %d", stats.Checked)
	}
	if stats.Demoted != 0 || stats.FellBack {
		t.Fatalf("all-singleton append demoted FDs: %+v", stats)
	}
}

// TestDeltaReusedDemotedAccounting checks the books balance: every
// parent-cover single-RHS FD is either reused or demoted (absent a
// fallback), never both, never dropped.
func TestDeltaReusedDemotedAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		rel := randomRelation(r, 2+r.Intn(6), 10+r.Intn(40), 1+r.Intn(3), 15)
		baseRows := 2 + r.Intn(rel.NumRows()-2)
		base := slice(rel, 0, baseRows)
		parent, err := core.NormalizeRelation(base, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		seedCount := 0
		for _, f := range parent.Cover.FDs {
			seedCount += f.Rhs.Cardinality()
		}
		_, stats, err := Normalize(context.Background(), base,
			rowsOf(rel, baseRows, rel.NumRows()), parent,
			Config{FallbackFraction: -1, Options: core.Options{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if got := stats.Reused + stats.Demoted; got != int64(seedCount) {
			t.Fatalf("trial %d: reused %d + demoted %d = %d, parent cover has %d",
				trial, stats.Reused, stats.Demoted, got, seedCount)
		}
	}
}

func TestAppendRelationMatchesFreshIngest(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rel := randomRelation(r, 1+r.Intn(6), 2+r.Intn(40), 1+r.Intn(5), 20)
		cut := 1 + r.Intn(rel.NumRows()-1)
		grown, err := AppendRelation(slice(rel, 0, cut), rowsOf(rel, cut, rel.NumRows()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fresh := rel.Columnar()
		got := grown.Columnar()
		if !reflect.DeepEqual(fresh.Enc.Columns, got.Enc.Columns) {
			t.Fatalf("trial %d: codes diverge from fresh ingest", trial)
		}
		if !reflect.DeepEqual(fresh.Dicts, got.Dicts) {
			t.Fatalf("trial %d: dictionaries diverge from fresh ingest", trial)
		}
		if !reflect.DeepEqual(rel.Rows(), grown.Rows()) {
			t.Fatalf("trial %d: materialized rows diverge", trial)
		}
	}
}

// TestAppendRelationRejectsRaggedRows pins the error surface.
func TestAppendRelationRejectsRaggedRows(t *testing.T) {
	base := relation.MustNew("t", []string{"a", "b"}, [][]string{{"1", "2"}})
	if _, err := AppendRelation(base, [][]string{{"only-one"}}); err == nil {
		t.Fatal("ragged append row accepted")
	}
}

func TestDeltaGuards(t *testing.T) {
	base := relation.MustNew("t", []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	parent, err := core.NormalizeRelation(base, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	delta := [][]string{{"5", "6"}}
	ctx := context.Background()

	cases := []struct {
		name   string
		parent *core.Result
		cfg    Config
		rel    *relation.Relation
		want   string
	}{
		{"nil parent", nil, Config{}, base, "lacks cover"},
		{"no cover", &core.Result{ScoreMemo: parent.ScoreMemo}, Config{}, base, "lacks cover"},
		{"no memo", &core.Result{Cover: parent.Cover}, Config{}, base, "lacks cover"},
		{"degraded", &core.Result{Cover: parent.Cover, ScoreMemo: parent.ScoreMemo,
			Degradations: []core.Degradation{{}}}, Config{}, base, "degraded"},
		{"custom discover", parent, Config{Options: core.Options{
			Discover: func(*relation.Relation) *fd.Set { return nil }}}, base, "custom discovery"},
		{"budget", parent, Config{Options: core.Options{
			Budget: core.Budget{MaxRows: 10}}}, base, "budget"},
		{"attr mismatch", parent, Config{},
			relation.MustNew("t", []string{"a"}, [][]string{{"1"}}), "attributes"},
	}
	for _, tc := range cases {
		rows := delta
		if len(tc.rel.Attrs) == 1 {
			rows = [][]string{{"5"}}
		}
		_, _, err := Normalize(ctx, tc.rel, rows, tc.parent, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestDeltaEmptyDelta: appending zero rows must reproduce the parent
// schema (and reuse the whole cover).
func TestDeltaEmptyDelta(t *testing.T) {
	rel := relation.MustNew("t", []string{"a", "b", "c"}, [][]string{
		{"1", "x", "x"},
		{"2", "y", "x"},
		{"3", "y", "z"},
	})
	parent, err := core.NormalizeRelation(rel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	child, stats, err := Normalize(context.Background(), rel, nil, parent,
		Config{Options: core.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sqlgen.Schema(parent.Tables), sqlgen.Schema(child.Tables); a != b {
		t.Fatalf("empty delta changed the schema\n%s\nvs\n%s", a, b)
	}
	if stats.Checked != 0 || stats.Demoted != 0 {
		t.Fatalf("empty delta did validation work: %+v", stats)
	}
}

// TestDeltaChained appends twice, threading the intermediate result:
// lineage chains must stay differential at every link.
func TestDeltaChained(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	rel := randomRelation(r, 5, 45, 3, 10)
	opts := core.Options{Workers: 1}

	base1 := slice(rel, 0, 15)
	parent, err := core.NormalizeRelation(base1, opts)
	if err != nil {
		t.Fatal(err)
	}
	mid, _, err := Normalize(context.Background(), base1, rowsOf(rel, 15, 30), parent,
		Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	base2 := slice(rel, 0, 30)
	child, _, err := Normalize(context.Background(), base2, rowsOf(rel, 30, 45), mid,
		Config{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.NormalizeRelation(rel, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sqlgen.Schema(full.Tables), sqlgen.Schema(child.Tables); a != b {
		t.Fatalf("chained delta diverged\n%s\nvs\n%s", a, b)
	}
}

// TestDeltaPrimaryKeyViolation: on a relation where primary-key
// selection makes a skipped FD actionable (see core's
// keyProtectedViolation), the delta run must match the from-scratch run
// and leave every table in BCNF, whatever the split.
func TestDeltaPrimaryKeyViolation(t *testing.T) {
	rel := relation.MustNew("t", []string{"c0", "c1", "c2", "c3", "c4", "c5"}, [][]string{
		{"1", "1", "2", "1", "0", "2"},
		{"0", "2", "2", "3", "1", "2"},
		{"1", "0", "1", "1", "1", "1"},
		{"1", "1", "1", "0", "1", "3"},
		{"1", "1", "1", "0", "0", "0"},
		{"0", "1", "3", "3", "2", "2"},
		{"1", "1", "2", "3", "1", "2"},
	})
	opts := core.Options{MaxLhs: 2, Workers: 1}
	for baseRows := 1; baseRows < rel.NumRows(); baseRows++ {
		label := fmt.Sprintf("base=%d", baseRows)
		runBoth(t, rel, baseRows, opts, Config{}, label)
		base := slice(rel, 0, baseRows)
		parent, err := core.NormalizeRelation(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		child, _, err := Normalize(context.Background(), base, rowsOf(rel, baseRows, rel.NumRows()), parent, Config{Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range child.Tables {
			if err := core.VerifyNormalFormMax(tbl, 2); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
	}
}
