package normalize

import (
	"context"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"normalize/internal/relation"
)

func addressRelation(t *testing.T) *Relation {
	t.Helper()
	rel, err := NewRelation("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestPublicAPINormalize(t *testing.T) {
	res, err := Normalize(addressRelation(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(res.Tables))
	}
	for _, tbl := range res.Tables {
		if err := VerifyNormalForm(tbl); err != nil {
			t.Error(err)
		}
	}
	ddl := DDL(res.Tables)
	for _, want := range []string{"CREATE TABLE", "PRIMARY KEY", "FOREIGN KEY"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q", want)
		}
	}
}

func TestPublicAPIDiscovery(t *testing.T) {
	rel := addressRelation(t)
	hy := DiscoverFDs(rel, HyFD, 0)
	ta := DiscoverFDs(rel, TANE, 0)
	df := DiscoverFDs(rel, DFD, 0)
	if hy.CountSingle() != 12 || !hy.Equal(ta) || !hy.Equal(df) {
		t.Errorf("HyFD found %d FDs; TANE agreement %v, DFD agreement %v",
			hy.CountSingle(), hy.Equal(ta), hy.Equal(df))
	}
	keys := DiscoverKeys(rel)
	found := false
	for _, k := range keys {
		if k.Equal(NewAttrSet(5, 0, 1)) {
			found = true
		}
	}
	if !found {
		t.Error("{First, Last} missing from discovered keys")
	}
	ExtendFDs(hy, ClosureOptimized)
	// After extension, First,Last must determine everything.
	for _, f := range hy.FDs {
		if f.Lhs.Equal(NewAttrSet(5, 0, 1)) && f.Rhs.Cardinality() != 3 {
			t.Errorf("extended rhs of {First,Last} = %v", f.Rhs)
		}
	}
}

func TestPublicAPICSV(t *testing.T) {
	rel, err := ReadCSV("r", strings.NewReader("a,b\n1,x\n2,x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rel.NumAttrs() != 2 {
		t.Errorf("parsed %dx%d", rel.NumRows(), rel.NumAttrs())
	}
}

func TestPublicAPIForeignKeySuggestion(t *testing.T) {
	nation, _ := NewRelation("nation",
		[]string{"nationkey", "n_name"},
		[][]string{{"0", "FRANCE"}, {"1", "GERMANY"}})
	customer, _ := NewRelation("customer",
		[]string{"custkey", "c_name", "nationkey"},
		[][]string{{"10", "Ann", "0"}, {"11", "Bob", "1"}, {"12", "Cleo", "0"}})
	res, err := NormalizeAll([]*Relation{nation, customer}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inds := DiscoverINDs([]*Relation{nation, customer})
	if len(inds) == 0 {
		t.Fatal("no INDs discovered")
	}
	fks := SuggestForeignKeys(res.Tables)
	found := false
	for _, fk := range fks {
		if fk.IND.Dependent.Relation == "customer" &&
			fk.IND.Referenced.Relation == "nation" &&
			fk.IND.Dependent.Attribute == "nationkey" {
			found = true
			if fk.Score < 0.9 {
				t.Errorf("obvious FK scored only %v", fk.Score)
			}
		}
	}
	if !found {
		t.Errorf("customer.nationkey → nation.nationkey not suggested: %+v", fks)
	}
}

func TestPublicAPICompositeForeignKeySuggestion(t *testing.T) {
	// Normalize the original TPC-H relations independently; the
	// composite reference lineitem.(partkey, suppkey) → partsupp can
	// only come from an n-ary inclusion dependency.
	ds := mustGen(t)(GenerateTPCH(0.0001, 1))
	var lineitem, partsupp *Relation
	for _, r := range ds.Original {
		switch r.Name {
		case "lineitem":
			lineitem = r
		case "partsupp":
			partsupp = r
		}
	}
	// Keep both relations whole (the user declines every split) and pick
	// the semantically right key for partsupp — at this tiny scale the
	// random cost/comment columns are accidentally unique and would
	// outrank (partkey, suppkey) in the automatic mode.
	stop := FuncDecider{
		ViolatingFD: func(*Table, []RankedFD) (int, *AttrSet) { return -1, nil },
		PrimaryKey: func(tbl *Table, ranked []RankedKey) int {
			for i, rk := range ranked {
				names := tbl.AttrNames(rk.Key)
				if len(names) == 2 && names[0] == "partkey" && names[1] == "suppkey" {
					return i
				}
			}
			return 0
		},
	}
	res, err := NormalizeAll([]*Relation{lineitem, partsupp}, Options{MaxLhs: 2, Decider: stop})
	if err != nil {
		t.Fatal(err)
	}
	fks := SuggestCompositeForeignKeys(res.Tables)
	found := false
	for _, fk := range fks {
		if fk.ReferencedRel == "partsupp" && len(fk.DependentCols) == 2 &&
			fk.DependentCols[0] == "partkey" && fk.DependentCols[1] == "suppkey" {
			found = true
		}
	}
	if !found {
		t.Errorf("lineitem (partkey, suppkey) → partsupp not suggested: %+v", fks)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	if ds := mustGen(t)(GenerateTPCH(0.0001, 1)); ds.Denormalized.NumAttrs() != 52 {
		t.Error("TPCH generator shape wrong")
	}
	if ds := mustGen(t)(GenerateMusicBrainz(8, 1)); len(ds.Original) != 11 {
		t.Error("MusicBrainz generator shape wrong")
	}
	if ds := GenerateHorse(1); ds.Denormalized.NumAttrs() != 27 {
		t.Error("Horse generator shape wrong")
	}
}

// TestNormalizeLeavesInputUntouched pins that a run never writes its
// input, so callers may normalize one relation again and again: the
// root table is a deduplicated copy, and every table reads the input's
// code columns without changing them. TPC-H lineitem, with every fifth
// row doubled and every seventh comment null, is normalized at workers
// 1 and 2, and once under a memory ceiling that makes the PLI store
// spill; after each run the input's encoding and rows must equal a
// snapshot taken before the first.
func TestNormalizeLeavesInputUntouched(t *testing.T) {
	ds, err := GenerateTPCH(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := ds.Original[7] // lineitem
	var rows [][]string
	for i, row := range src.Rows() {
		row = append([]string(nil), row...)
		if i%7 == 0 {
			row[len(row)-1] = "" // null
		}
		rows = append(rows, row)
		if i%5 == 0 {
			rows = append(rows, row)
		}
	}
	rel, err := NewRelation(src.Name, src.Attrs, rows)
	if err != nil {
		t.Fatal(err)
	}

	enc := rel.Encode()
	wantEnc := &relation.Encoded{
		NumRows:     enc.NumRows,
		Columns:     make([][]int, len(enc.Columns)),
		Cardinality: append([]int(nil), enc.Cardinality...),
		HasNull:     append([]bool(nil), enc.HasNull...),
	}
	for c, codes := range enc.Columns {
		wantEnc.Columns[c] = append([]int(nil), codes...)
	}
	wantRows := make([][]string, rel.NumRows())
	for i, row := range rel.Rows() {
		wantRows[i] = append([]string(nil), row...)
	}

	var spills atomic.Int64
	spilling := FuncObserver{OnCounter: func(_ Stage, name string, delta int64) {
		if name == CounterPLISpillEvents || name == CounterPLIRecomputes {
			spills.Add(delta)
		}
	}}
	for _, run := range []struct {
		name string
		opts Options
	}{
		{"workers-1", Options{MaxLhs: 3, Workers: 1}},
		{"workers-2", Options{MaxLhs: 3, Workers: 2}},
		{"spilling", Options{MaxLhs: 3, Workers: 1, Budget: Budget{MaxMemoryBytes: 5 << 20}, Observer: spilling}},
	} {
		res, err := NormalizeContext(context.Background(), rel, run.opts)
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if len(res.Tables) < 2 {
			t.Fatalf("%s: %d tables, want a decomposition", run.name, len(res.Tables))
		}
		if !reflect.DeepEqual(rel.Encode(), wantEnc) {
			t.Fatalf("%s: the run changed its input's encoding", run.name)
		}
		if !reflect.DeepEqual(rel.Rows(), wantRows) {
			t.Fatalf("%s: the run changed its input's rows", run.name)
		}
	}
	if spills.Load() == 0 {
		t.Fatal("the ceiling never made the PLI store spill or recompute: the spilling run no longer exercises the store")
	}
}
