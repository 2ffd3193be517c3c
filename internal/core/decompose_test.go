package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/closure"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/fd"
	"normalize/internal/keys"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// makeTable builds a 5-attribute table over the address example for
// decomposition unit tests.
func makeTable() *Table {
	rel := address().Dedup()
	fds := fd.NewSet(5)
	fds.AddAttrs([]int{0, 1}, []int{2, 3, 4})
	fds.AddAttrs([]int{2}, []int{3, 4})
	return &Table{
		Name:        "address",
		Attrs:       bitset.Full(5),
		Data:        rel,
		FDs:         fds,
		NullAttrs:   bitset.New(5),
		universe:    5,
		sourceAttrs: rel.Attrs,
	}
}

func TestDecomposeShapes(t *testing.T) {
	tbl := makeTable()
	v := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	used := map[string]bool{"address": true}
	r1, r2 := Decompose(tbl, v, used)

	if !r1.Attrs.Equal(bitset.Of(5, 0, 1, 2)) || !r2.Attrs.Equal(bitset.Of(5, 2, 3, 4)) {
		t.Fatalf("split attrs: r1=%v r2=%v", r1.Attrs, r2.Attrs)
	}
	if r2.PrimaryKey == nil || !r2.PrimaryKey.Equal(v.Lhs) {
		t.Error("R2 primary key must be the violating LHS")
	}
	if len(r1.ForeignKeys) != 1 || r1.ForeignKeys[0].RefTable != r2.Name {
		t.Errorf("R1 foreign keys = %v", r1.ForeignKeys)
	}
	if r2.Data.NumRows() != 3 {
		t.Errorf("R2 must deduplicate to 3 rows, has %d", r2.Data.NumRows())
	}
	if r1.Data.NumRows() != 6 {
		t.Errorf("R1 rows = %d", r1.Data.NumRows())
	}
}

func TestDecomposeProjectsFDsPerLemma3(t *testing.T) {
	tbl := makeTable()
	v := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	r1, r2 := Decompose(tbl, v, map[string]bool{"address": true})

	// R2 = {2,3,4}: keeps Postcode→City,Mayor; loses First,Last→... .
	if r2.FDs.Len() != 1 || !r2.FDs.FDs[0].Lhs.Equal(bitset.Of(5, 2)) {
		t.Errorf("R2 FDs = %v", r2.FDs.FDs)
	}
	// R1 = {0,1,2}: First,Last→Postcode (projected) survives; the
	// Postcode FD loses its entire RHS and is dropped.
	if r1.FDs.Len() != 1 {
		t.Fatalf("R1 FDs = %v", r1.FDs.FDs)
	}
	if !r1.FDs.FDs[0].Rhs.Equal(bitset.Of(5, 2)) {
		t.Errorf("R1 projected rhs = %v", r1.FDs.FDs[0].Rhs)
	}
}

func TestDecomposeDistributesForeignKeys(t *testing.T) {
	tbl := makeTable()
	tbl.ForeignKeys = []ForeignKey{
		{Attrs: bitset.Of(5, 3, 4), RefTable: "cities"}, // moves to R2 (∩ rhs ≠ ∅)
		{Attrs: bitset.Of(5, 0), RefTable: "people"},    // stays in R1
	}
	v := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	r1, r2 := Decompose(tbl, v, map[string]bool{"address": true})

	foundCities, foundPeople := false, false
	for _, fk := range r2.ForeignKeys {
		if fk.RefTable == "cities" {
			foundCities = true
		}
	}
	for _, fk := range r1.ForeignKeys {
		if fk.RefTable == "people" {
			foundPeople = true
		}
	}
	if !foundCities || !foundPeople {
		t.Errorf("FK distribution wrong: r1=%v r2=%v", r1.ForeignKeys, r2.ForeignKeys)
	}
}

func TestDecomposePreservesParentPrimaryKey(t *testing.T) {
	tbl := makeTable()
	tbl.PrimaryKey = bitset.Of(5, 0, 1)
	v := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	r1, _ := Decompose(tbl, v, map[string]bool{"address": true})
	if r1.PrimaryKey == nil || !r1.PrimaryKey.Equal(bitset.Of(5, 0, 1)) {
		t.Error("parent primary key lost in R1")
	}
	// And it is an independent clone.
	r1.PrimaryKey.Add(2)
	if tbl.PrimaryKey.Contains(2) {
		t.Error("primary key not cloned")
	}
}

func TestUniqueNameDisambiguation(t *testing.T) {
	used := map[string]bool{"postcode": true, "postcode2": true}
	if got := uniqueName("postcode", used); got != "postcode3" {
		t.Errorf("uniqueName = %q", got)
	}
	if !used["postcode3"] {
		t.Error("uniqueName must register the new name")
	}
}

func TestTableStringAndLocalMapping(t *testing.T) {
	tbl := makeTable()
	tbl.PrimaryKey = bitset.Of(5, 0, 1)
	s := tbl.String()
	if s != "address(*First, *Last, Postcode, City, Mayor)" {
		t.Errorf("String = %q", s)
	}
	sub := &Table{
		Name: "r2", Attrs: bitset.Of(5, 2, 3, 4), universe: 5,
		sourceAttrs: tbl.sourceAttrs,
	}
	local := sub.localSet(bitset.Of(5, 2, 4))
	if !local.Equal(bitset.Of(3, 0, 2)) {
		t.Errorf("localSet = %v", local)
	}
	back := sub.universalSet(local)
	if !back.Equal(bitset.Of(5, 2, 4)) {
		t.Errorf("universalSet = %v", back)
	}
}

func TestVerifyNormalFormDetectsViolation(t *testing.T) {
	// The raw address relation is NOT in BCNF; the checker must say so.
	tbl := makeTable()
	if err := VerifyNormalForm(tbl); err == nil {
		t.Error("VerifyNormalForm accepted a BCNF-violating table")
	}
}

// dependentRelation draws a relation of a few random columns with
// small value pools followed by columns that are each a function of
// the first or second, so the closed cover has violating FDs. Those two
// have no nulls, since a violating LHS becomes a primary key; the other
// random columns and the functions do. The small pools make duplicate
// rows likely.
func dependentRelation(r *rand.Rand, rows int) *relation.Relation {
	base, dep := 3+r.Intn(2), 1+r.Intn(3)
	cards, src, mods := make([]int, base), make([]int, dep), make([]int, dep)
	for c := range cards {
		cards[c] = 2 + r.Intn(4)
	}
	for j := range src {
		src[j], mods[j] = r.Intn(2), 2+r.Intn(3)
	}
	names := make([]string, base+dep)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	vals := make([]int, base)
	for i := range data {
		row := make([]string, base+dep)
		for c := range vals {
			vals[c] = r.Intn(cards[c])
			if c >= 2 && r.Float64() < 0.15 {
				continue // null
			}
			row[c] = fmt.Sprintf("v%d", vals[c])
		}
		for j, c := range src {
			if m := vals[c] % mods[j]; m != 0 {
				row[base+j] = fmt.Sprintf("w%d", m) // null when m is 0
			}
		}
		data[i] = row
	}
	return relation.MustNew("dep", names, data)
}

// TestDecomposeRemainderNeedsNoDedup pins why DecomposeContext builds
// R1 = R \ Y as a plain projection: the root is duplicate-free and R1
// keeps X, which determines Y, so the projection already equals the
// deduplicated one — rows, codes, cardinalities, null flags and
// dictionaries. Each input has nulls and duplicate rows; the FDs are
// every violating FD of the closed HyFD cover and, for each with a
// multi-attribute RHS, the FD with one RHS attribute pruned, as a
// FuncDecider may return it.
func TestDecomposeRemainderNeedsNoDedup(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	var dupInputs, checked, pruned int
	for trial := 0; trial < 40; trial++ {
		rel := dependentRelation(r, 20+r.Intn(60))
		if rel.DistinctCount(bitset.Full(rel.NumAttrs())) < rel.NumRows() {
			dupInputs++
		}
		fds := hyfd.Discover(rel, hyfd.Options{Workers: 1})
		closure.OptimizedParallel(fds, 1)
		p := &run{cache: plicache.NewCache(plistore.New(nil, ""))}
		root := p.buildRoot(rel, fds)
		root.Keys = keys.Derive(root.FDs, root.Attrs)

		check := func(v *fd.FD) {
			t.Helper()
			r1, _ := Decompose(root, v, map[string]bool{root.Name: true})
			want := root.Data.ProjectDedupSet(root.Name, root.localSet(root.Attrs.Difference(v.Rhs)))
			got, wantEnc := r1.Data.Encode(), want.Encode()
			switch {
			case got.NumRows != wantEnc.NumRows:
				t.Fatalf("trial %d split %s: R1 has %d rows, dedup %d", trial, v, got.NumRows, wantEnc.NumRows)
			case !reflect.DeepEqual(got.Columns, wantEnc.Columns):
				t.Fatalf("trial %d split %s: R1 codes differ from the dedup projection's", trial, v)
			case !reflect.DeepEqual(got.Cardinality, wantEnc.Cardinality):
				t.Fatalf("trial %d split %s: cardinalities %v, dedup %v", trial, v, got.Cardinality, wantEnc.Cardinality)
			case !reflect.DeepEqual(got.HasNull, wantEnc.HasNull):
				t.Fatalf("trial %d split %s: null flags %v, dedup %v", trial, v, got.HasNull, wantEnc.HasNull)
			case !reflect.DeepEqual(r1.Data.Columnar().Dicts, want.Columnar().Dicts):
				t.Fatalf("trial %d split %s: dictionaries differ from the dedup projection's", trial, v)
			}
			checked++
		}
		for _, v := range p.detect(root) {
			check(v)
			if v.Rhs.Cardinality() > 1 {
				c := v.Clone()
				c.Rhs.Remove(c.Rhs.First())
				check(c)
				pruned++
			}
		}
	}
	if dupInputs == 0 || checked == 0 || pruned == 0 {
		t.Fatalf("inputs with duplicate rows %d, splits checked %d, pruned %d: the test no longer exercises the property",
			dupInputs, checked, pruned)
	}
	t.Logf("%d splits checked (%d pruned) over %d inputs with duplicate rows", checked, pruned, dupInputs)
}
