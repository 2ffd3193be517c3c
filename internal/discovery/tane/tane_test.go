package tane

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/relation"
)

// address is the paper's running example (Table 1); it has exactly
// twelve minimal FDs according to Section 1.
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

func TestAddressExample(t *testing.T) {
	got := Discover(address(), Options{})
	if got.CountSingle() != 12 {
		t.Errorf("found %d FDs on the address example, the paper reports 12:\n%s",
			got.CountSingle(), got.Format(address().Attrs))
	}
	// Postcode → City and Postcode → Mayor must be among them.
	post := bitset.Of(5, 2)
	foundCity, foundMayor := false, false
	for _, f := range got.FDs {
		if f.Lhs.Equal(post) {
			foundCity = f.Rhs.Contains(3)
			foundMayor = f.Rhs.Contains(4)
		}
	}
	if !foundCity || !foundMayor {
		t.Error("Postcode → City,Mayor not discovered")
	}
	if !got.Equal(bruteforce.DiscoverFDs(address(), 5)) {
		t.Error("TANE disagrees with brute force on the address example")
	}
}

func TestConstantColumn(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"x", "3"},
	})
	got := Discover(rel, Options{})
	// ∅ → a (constant), and nothing determines b minimally except... b is
	// a key, so b → a would be non-minimal given ∅ → a.
	want := bruteforce.DiscoverFDs(rel, 2)
	if !got.Equal(want) {
		t.Errorf("got:\n%swant:\n%s", got.Format(rel.Attrs), want.Format(rel.Attrs))
	}
	hasEmpty := false
	for _, f := range got.FDs {
		if f.Lhs.IsEmpty() && f.Rhs.Contains(0) {
			hasEmpty = true
		}
	}
	if !hasEmpty {
		t.Error("∅ → a not found for constant column")
	}
}

func TestSingleColumnKey(t *testing.T) {
	rel := relation.MustNew("r", []string{"id", "v", "w"}, [][]string{
		{"1", "a", "p"}, {"2", "a", "q"}, {"3", "b", "p"},
	})
	got := Discover(rel, Options{})
	if !got.Equal(bruteforce.DiscoverFDs(rel, 3)) {
		t.Errorf("mismatch with brute force:\n%s", got.Format(rel.Attrs))
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, nil)
	got := Discover(rel, Options{})
	// Vacuously ∅ → a,b.
	if got.CountSingle() != 2 || !got.FDs[0].Lhs.IsEmpty() {
		t.Errorf("empty relation FDs = %s", got.Format(rel.Attrs))
	}
}

func TestSingleRow(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{{"x", "y"}})
	got := Discover(rel, Options{})
	if !got.Equal(bruteforce.DiscoverFDs(rel, 2)) {
		t.Errorf("single-row mismatch: %s", got.Format(rel.Attrs))
	}
}

func TestDuplicateRows(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{
		{"x", "y"}, {"x", "y"}, {"z", "w"},
	})
	got := Discover(rel, Options{})
	if !got.Equal(bruteforce.DiscoverFDs(rel, 2)) {
		t.Errorf("duplicate-rows mismatch: %s", got.Format(rel.Attrs))
	}
}

func TestNullsCompareEqual(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{
		{"", "x"}, {"", "y"},
	})
	got := Discover(rel, Options{})
	// a is constant (two nulls) so ∅→a; a→b must NOT hold (nulls agree
	// on a but b differs).
	for _, f := range got.FDs {
		if f.Lhs.Equal(bitset.Of(2, 0)) && f.Rhs.Contains(1) {
			t.Error("a → b must not hold under null=null semantics")
		}
	}
	if !got.Equal(bruteforce.DiscoverFDs(rel, 2)) {
		t.Error("null semantics disagree with brute force")
	}
}

func TestMaxLhsPruning(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(3)), 6, 30, 3)
	full := Discover(rel, Options{})
	pruned := Discover(rel, Options{MaxLhs: 2})
	// Pruned result = full result restricted to Lhs size ≤ 2.
	want := 0
	for _, f := range full.FDs {
		if f.Lhs.Cardinality() <= 2 {
			want += f.Rhs.Cardinality()
		}
	}
	if pruned.CountSingle() != want {
		t.Errorf("MaxLhs=2: got %d FDs, want %d", pruned.CountSingle(), want)
	}
	for _, f := range pruned.FDs {
		if f.Lhs.Cardinality() > 2 {
			t.Errorf("FD with oversized lhs: %v", f)
		}
	}
}

// randomRelation builds a relation with controlled redundancy so that
// non-trivial FDs exist.
func randomRelation(r *rand.Rand, attrs, rows, card int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			row[j] = fmt.Sprintf("v%d", r.Intn(card))
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		attrs := 3 + r.Intn(4)
		rows := 5 + r.Intn(25)
		card := 2 + r.Intn(3)
		rel := randomRelation(r, attrs, rows, card)
		got := Discover(rel, Options{})
		want := bruteforce.DiscoverFDs(rel, attrs)
		if !got.Equal(want) {
			t.Fatalf("trial %d (attrs=%d rows=%d card=%d):\nTANE:\n%sbrute:\n%s",
				trial, attrs, rows, card, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestRandomWithNullsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		base := randomRelation(r, 4, 15, 3)
		// Sprinkle nulls into the rows the relation is built from.
		rows := base.Rows()
		for _, row := range rows {
			if r.Intn(3) == 0 {
				row[r.Intn(4)] = ""
			}
		}
		rel := relation.MustNew(base.Name, base.Attrs, rows)
		if !slices.Contains(rel.Encode().HasNull, true) {
			t.Fatalf("trial %d: no null reached the encoding", trial)
		}
		got := Discover(rel, Options{})
		want := bruteforce.DiscoverFDs(rel, 4)
		if !got.Equal(want) {
			t.Fatalf("trial %d:\nTANE:\n%sbrute:\n%s",
				trial, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestResultIsMinimalAndNonTrivial(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	rel := randomRelation(r, 5, 40, 2)
	got := Discover(rel, Options{})
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// No FD's lhs may be a proper subset of another FD's lhs sharing an
	// rhs attribute.
	for i, f := range got.FDs {
		for j, g := range got.FDs {
			if i == j {
				continue
			}
			if f.Lhs.IsProperSubsetOf(g.Lhs) && f.Rhs.Intersects(g.Rhs) {
				t.Fatalf("non-minimal pair: %v generalizes %v", f, g)
			}
		}
	}
}
