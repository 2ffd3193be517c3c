package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/relation"
	"normalize/internal/violation"
)

func address() *relation.Relation {
	return relation.MustNew("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
}

// TestPaperRunningExample reproduces Section 1 end to end: the address
// relation decomposes into R1(First, Last, Postcode) and R2(Postcode,
// City, Mayor) with keys {First, Last} and {Postcode} and the foreign
// key Postcode, shrinking the dataset from 36 to 27 values.
func TestPaperRunningExample(t *testing.T) {
	res, err := NormalizeRelation(address(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		for _, tbl := range res.Tables {
			t.Logf("table: %s", tbl)
		}
		t.Fatalf("got %d tables, want 2", len(res.Tables))
	}
	var r1, r2 *Table
	for _, tbl := range res.Tables {
		if tbl.Attrs.Contains(3) { // City
			r2 = tbl
		} else {
			r1 = tbl
		}
	}
	if r1 == nil || r2 == nil {
		t.Fatal("decomposition shape unexpected")
	}
	if !r1.Attrs.Equal(bitset.Of(5, 0, 1, 2)) {
		t.Errorf("R1 attrs = %v, want {First, Last, Postcode}", r1.Attrs)
	}
	if !r2.Attrs.Equal(bitset.Of(5, 2, 3, 4)) {
		t.Errorf("R2 attrs = %v, want {Postcode, City, Mayor}", r2.Attrs)
	}
	if r1.PrimaryKey == nil || !r1.PrimaryKey.Equal(bitset.Of(5, 0, 1)) {
		t.Errorf("R1 primary key = %v, want {First, Last}", r1.PrimaryKey)
	}
	if r2.PrimaryKey == nil || !r2.PrimaryKey.Equal(bitset.Of(5, 2)) {
		t.Errorf("R2 primary key = %v, want {Postcode}", r2.PrimaryKey)
	}
	if len(r1.ForeignKeys) != 1 || !r1.ForeignKeys[0].Attrs.Equal(bitset.Of(5, 2)) {
		t.Errorf("R1 foreign keys = %v", r1.ForeignKeys)
	}
	if r1.ForeignKeys[0].RefTable != r2.Name {
		t.Errorf("FK references %q, want %q", r1.ForeignKeys[0].RefTable, r2.Name)
	}
	// Value count 36 → 27 (R1 6×3 + R2 3×3).
	values := 0
	for _, tbl := range res.Tables {
		values += tbl.Data.NumRows() * tbl.Data.NumAttrs()
	}
	if values != 27 {
		t.Errorf("total values = %d, want 27", values)
	}
	if res.Stats.NumFDs != 12 {
		t.Errorf("discovered %d FDs, paper reports 12", res.Stats.NumFDs)
	}
	if res.Stats.Decompositions != 1 {
		t.Errorf("decompositions = %d, want 1", res.Stats.Decompositions)
	}
}

func TestOutputIsBCNF(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 8; trial++ {
		rel := correlated(r, 40+r.Intn(80))
		res, err := NormalizeRelation(rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range res.Tables {
			if err := VerifyNormalForm(tbl); err != nil {
				t.Errorf("trial %d: %v", trial, err)
			}
		}
	}
}

// TestLosslessJoin verifies full information recoverability: natural-
// joining all decomposed tables reproduces the original tuples.
func TestLosslessJoin(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		rel := correlated(r, 30+r.Intn(60))
		res, err := NormalizeRelation(rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkLossless(rel, res.Tables); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

// checkLossless joins the decomposition tree back together and compares
// with the (deduplicated) original. Tables are joined in result order,
// except that a table sharing no attribute with the join so far waits
// until one does.
func checkLossless(orig *relation.Relation, tables []*Table) error {
	if len(tables) == 0 {
		return fmt.Errorf("no tables")
	}
	joined := tables[0].Data
	rest := append([]*Table(nil), tables[1:]...)
	for len(rest) > 0 {
		next := 0
		for i, tbl := range rest {
			if sharesAttr(joined, tbl.Data) {
				next = i
				break
			}
		}
		var err error
		joined, err = joined.NaturalJoin("joined", rest[next].Data)
		if err != nil {
			return err
		}
		rest = append(rest[:next], rest[next+1:]...)
	}
	// Reorder columns to the original attribute order.
	cols := make([]int, len(orig.Attrs))
	for i, a := range orig.Attrs {
		cols[i] = joined.AttrIndex(a)
		if cols[i] < 0 {
			return fmt.Errorf("attribute %s lost", a)
		}
	}
	reordered := joined.Project("joined", cols)
	dedup := orig.DedupCopy(orig.Name)
	if !reordered.SameRowSet(dedup) {
		return fmt.Errorf("join of decomposition differs from original (%d vs %d distinct rows)",
			reordered.Dedup().NumRows(), dedup.NumRows())
	}
	return nil
}

func sharesAttr(a, b *relation.Relation) bool {
	for _, name := range b.Attrs {
		if a.AttrIndex(name) >= 0 {
			return true
		}
	}
	return false
}

// correlated generates a denormalized relation with an embedded
// snowflake: id → (grp → (cat)), plus payload columns.
func correlated(r *rand.Rand, rows int) *relation.Relation {
	data := make([][]string, rows)
	for i := range data {
		id := i
		grp := id % 10
		cat := grp % 3
		data[i] = []string{
			fmt.Sprintf("id%03d", id),
			fmt.Sprintf("p%d", r.Intn(5)),
			fmt.Sprintf("g%02d", grp),
			fmt.Sprintf("gname%02d", grp),
			fmt.Sprintf("c%d", cat),
			fmt.Sprintf("cname%d", cat),
		}
	}
	return relation.MustNew("facts",
		[]string{"id", "payload", "grp", "grpname", "cat", "catname"}, data)
}

func TestSnowflakeReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rel := correlated(r, 100)
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) < 2 {
		t.Fatalf("expected a decomposition, got %d tables", len(res.Tables))
	}
	// The grp → grpname and cat → catname groups must be split off.
	foundGrp, foundCat := false, false
	for _, tbl := range res.Tables {
		names := tbl.AttrNames(tbl.Attrs)
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		if set["grpname"] && !set["id"] {
			foundGrp = true
		}
		if set["catname"] && !set["id"] {
			foundCat = true
		}
	}
	if !foundGrp || !foundCat {
		for _, tbl := range res.Tables {
			t.Logf("table: %s", tbl)
		}
		t.Errorf("snowflake dimensions not split off (grp=%v cat=%v)", foundGrp, foundCat)
	}
}

func TestSecondNFKeepsTransitiveDependencies(t *testing.T) {
	// Key {order, product}; order → customer is a partial dependency
	// (2NF violation); customer → custcity is transitive and must
	// survive in 2NF while BCNF would split it too.
	rows := [][]string{}
	for o := 0; o < 8; o++ {
		cust := fmt.Sprintf("c%d", o%3)
		city := fmt.Sprintf("city%d", o%3)
		for p := 0; p < 3; p++ {
			rows = append(rows, []string{
				fmt.Sprintf("o%d", o), fmt.Sprintf("p%d", p),
				fmt.Sprint(o + p), cust, city,
			})
		}
	}
	rel := relation.MustNew("orders",
		[]string{"order", "product", "qty", "customer", "custcity"}, rows)

	twoNF, err := NormalizeRelation(rel, Options{Mode: violation.SecondNF})
	if err != nil {
		t.Fatal(err)
	}
	bcnf, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(twoNF.Tables) >= len(bcnf.Tables) {
		t.Errorf("2NF produced %d tables, BCNF %d — 2NF must stop earlier",
			len(twoNF.Tables), len(bcnf.Tables))
	}
	// The transitive pair customer/custcity stays together with order
	// in some 2NF table.
	together := false
	for _, tbl := range twoNF.Tables {
		names := map[string]bool{}
		for _, n := range tbl.AttrNames(tbl.Attrs) {
			names[n] = true
		}
		if names["order"] && names["customer"] && names["custcity"] {
			together = true
		}
	}
	if !together {
		for _, tbl := range twoNF.Tables {
			t.Logf("2NF table: %s", tbl)
		}
		t.Error("2NF split the transitive dependency, which only 3NF/BCNF should")
	}
	if err := checkLossless(rel, twoNF.Tables); err != nil {
		t.Error(err)
	}
}

func TestNormalizationIdempotent(t *testing.T) {
	// Re-normalizing the instance of any output table must find nothing
	// to do (0 decompositions): the fixpoint property of the pipeline.
	r := rand.New(rand.NewSource(37))
	rel := correlated(r, 60)
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range res.Tables {
		again, err := NormalizeRelation(tbl.Data, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if again.Stats.Decompositions != 0 {
			t.Errorf("re-normalizing %s decomposed %d times", tbl.Name, again.Stats.Decompositions)
		}
	}
}

func TestThirdNFModePreservesDependencies(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	rel := correlated(r, 60)
	res, err := NormalizeRelation(rel, Options{Mode: violation.ThirdNF})
	if err != nil {
		t.Fatal(err)
	}
	// Every original FD LHS must fit completely into some table.
	if err := checkLossless(rel, res.Tables); err != nil {
		t.Error(err)
	}
}

func TestDeciderStopKeepsTable(t *testing.T) {
	stop := FuncDecider{
		ViolatingFD: func(*Table, []RankedFD) (int, *bitset.Set) { return -1, nil },
	}
	res, err := NormalizeRelation(address(), Options{Decider: stop})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("decider stop ignored: %d tables", len(res.Tables))
	}
	if res.Stats.Decompositions != 0 {
		t.Error("decompositions counted despite stop")
	}
}

func TestDeciderPruneRhs(t *testing.T) {
	// Prune Mayor from the chosen FD's RHS: Mayor stays in R1.
	prune := FuncDecider{
		ViolatingFD: func(tbl *Table, ranked []RankedFD) (int, *bitset.Set) {
			if tbl.Attrs.Cardinality() == 5 {
				return 0, bitset.Of(5, 4)
			}
			return -1, nil // accept any follow-up table as is
		},
	}
	res, err := NormalizeRelation(address(), Options{Decider: prune})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range res.Tables {
		if tbl.Attrs.Contains(3) && tbl.Attrs.Contains(4) && !tbl.Attrs.Contains(0) {
			t.Errorf("Mayor followed City despite pruning: %s", tbl)
		}
	}
}

func TestSharedRhsAnnotated(t *testing.T) {
	// Two violating FDs sharing an RHS attribute must be flagged.
	seen := false
	d := FuncDecider{
		ViolatingFD: func(tbl *Table, ranked []RankedFD) (int, *bitset.Set) {
			for _, rf := range ranked {
				if !rf.SharedRhs.IsEmpty() {
					seen = true
				}
			}
			return 0, nil
		},
	}
	// grp and grpname both determine cat/catname transitively, so the
	// extended FDs of grp and cat overlap on catname.
	r := rand.New(rand.NewSource(17))
	if _, err := NormalizeRelation(correlated(r, 60), Options{Decider: d}); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Error("no shared RHS attributes flagged on overlapping violating FDs")
	}
}

func TestEveryTableHasPrimaryKeyOnCleanData(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	rel := correlated(r, 50)
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range res.Tables {
		if tbl.PrimaryKey == nil {
			t.Errorf("table %s has no primary key", tbl)
		}
	}
}

func TestNullLhsNeverBecomesKey(t *testing.T) {
	rel := relation.MustNew("r", []string{"code", "city", "extra"}, [][]string{
		{"", "a", "1"},
		{"", "a", "2"},
		{"x", "b", "3"},
		{"y", "c", "4"},
	})
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range res.Tables {
		if tbl.PrimaryKey != nil && tbl.PrimaryKey.Contains(0) {
			t.Errorf("null-containing attribute became primary key in %s", tbl)
		}
	}
}

func TestNormalizeRelationsMultipleInputs(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	rels := []*relation.Relation{correlated(r, 30), address()}
	res, err := NormalizeRelations(rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) < 4 {
		t.Errorf("expected tables from both relations, got %d", len(res.Tables))
	}
	if res.Stats.Records != 30+6 {
		t.Errorf("records = %d", res.Stats.Records)
	}
}

// TestNormalizeRelationsRhsAveragesOneInput: for one input the
// multi-relation path reports the single-relation path's RHS averages.
func TestNormalizeRelationsRhsAveragesOneInput(t *testing.T) {
	rel := correlated(rand.New(rand.NewSource(23)), 30)
	one, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if one.Stats.AvgRhsBefore == 0 || one.Stats.AvgRhsAfter == 0 {
		t.Fatalf("test setup: averages %v/%v", one.Stats.AvgRhsBefore, one.Stats.AvgRhsAfter)
	}
	all, err := NormalizeRelations([]*relation.Relation{rel}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.AvgRhsBefore != one.Stats.AvgRhsBefore || all.Stats.AvgRhsAfter != one.Stats.AvgRhsAfter {
		t.Errorf("averages %v/%v, want %v/%v", all.Stats.AvgRhsBefore, all.Stats.AvgRhsAfter,
			one.Stats.AvgRhsBefore, one.Stats.AvgRhsAfter)
	}
}

// TestNormalizeRelationsRhsAveragesTwoInputs: over several inputs the
// RHS averages are means over all relations' aggregated FDs, so each
// relation weighs in with the size of its cover.
func TestNormalizeRelationsRhsAveragesTwoInputs(t *testing.T) {
	rels := []*relation.Relation{correlated(rand.New(rand.NewSource(23)), 30), address()}
	var single, aggregated, rhsAfter float64
	for _, rel := range rels {
		res, err := NormalizeRelation(rel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		k := float64(res.Cover.Len())
		single += float64(res.Cover.CountSingle())
		aggregated += k
		rhsAfter += res.Stats.AvgRhsAfter * k
	}
	all, err := NormalizeRelations(rels, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := single / aggregated; math.Abs(all.Stats.AvgRhsBefore-want) > 1e-9 {
		t.Errorf("AvgRhsBefore = %v, want %v", all.Stats.AvgRhsBefore, want)
	}
	if want := rhsAfter / aggregated; math.Abs(all.Stats.AvgRhsAfter-want) > 1e-9 {
		t.Errorf("AvgRhsAfter = %v, want %v", all.Stats.AvgRhsAfter, want)
	}
}

func TestSingleRowRelationGetsNoEmptyKey(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{{"x", "y"}})
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("single row split into %d tables", len(res.Tables))
	}
	if pk := res.Tables[0].PrimaryKey; pk != nil && pk.IsEmpty() {
		t.Error("empty primary key assigned")
	}
}

func TestSuggestForeignKeysViaPublicPath(t *testing.T) {
	// Covered again at the root package; here ensure the keyed-attr
	// plumbing sees decomposition-created primary keys.
	res, err := NormalizeRelation(address(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	singlePKs := 0
	for _, tbl := range res.Tables {
		if tbl.PrimaryKey != nil && tbl.PrimaryKey.Cardinality() == 1 {
			singlePKs++
		}
	}
	if singlePKs == 0 {
		t.Error("no single-attribute primary key produced for the FK suggester to target")
	}
}

func TestZeroAttributeRelationRejected(t *testing.T) {
	rel := relation.MustNew("r", nil, nil)
	if _, err := NormalizeRelation(rel, Options{}); err == nil {
		t.Error("zero-attribute relation must be rejected")
	}
}

func TestAlreadyNormalizedStaysIntact(t *testing.T) {
	rel := relation.MustNew("r", []string{"id", "v"}, [][]string{
		{"1", "a"}, {"2", "b"}, {"3", "a"},
	})
	res, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("BCNF-conform relation decomposed into %d tables", len(res.Tables))
	}
	if res.Tables[0].PrimaryKey == nil || !res.Tables[0].PrimaryKey.Equal(bitset.Of(2, 0)) {
		t.Errorf("primary key = %v, want {id}", res.Tables[0].PrimaryKey)
	}
}

func TestClosureVariantsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	rel := correlated(r, 60)
	base, err := NormalizeRelation(rel, Options{Closure: ClosureOptimized})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []ClosureAlgorithm{ClosureImproved, ClosureNaive} {
		res, err := NormalizeRelation(rel, Options{Closure: algo})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tables) != len(base.Tables) {
			t.Errorf("closure variant %d produced %d tables, optimized %d",
				algo, len(res.Tables), len(base.Tables))
		}
	}
}

// keyProtectedViolation is a relation on which primary-key selection
// creates a BCNF violation under MaxLhs 2: during decomposition the FD
// c3,c4 → c5 cannot split table t, because its extended RHS would tear
// a foreign key apart; once t's primary key is chosen, Algorithm 4
// removes the key's attributes from that RHS and the split is possible.
func keyProtectedViolation() *relation.Relation {
	return relation.MustNew("t", []string{"c0", "c1", "c2", "c3", "c4", "c5"}, [][]string{
		{"1", "1", "2", "1", "0", "2"},
		{"0", "2", "2", "3", "1", "2"},
		{"1", "0", "1", "1", "1", "1"},
		{"1", "1", "1", "0", "1", "3"},
		{"1", "1", "1", "0", "0", "0"},
		{"0", "1", "3", "3", "2", "2"},
		{"1", "1", "2", "3", "1", "2"},
	})
}

// TestPrimaryKeyViolationDecomposed: a table whose newly chosen primary
// key makes a skipped FD actionable goes back through the
// decomposition loop, so every output table is in BCNF.
func TestPrimaryKeyViolationDecomposed(t *testing.T) {
	rel := keyProtectedViolation()
	for _, workers := range []int{1, 2} {
		res, err := NormalizeRelation(rel, Options{MaxLhs: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, tbl := range res.Tables {
			if err := VerifyNormalFormMax(tbl, 2); err != nil {
				t.Errorf("workers=%d: %v", workers, err)
			}
		}
		if err := checkLossless(rel, res.Tables); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
}
