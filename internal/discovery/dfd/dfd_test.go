package dfd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/relation"
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

func TestAddressExample(t *testing.T) {
	got := Discover(address(), Options{})
	if got.CountSingle() != 12 {
		t.Errorf("found %d FDs, paper reports 12:\n%s",
			got.CountSingle(), got.Format(address().Attrs))
	}
	if !got.Equal(bruteforce.DiscoverFDs(address(), 5)) {
		t.Error("DFD disagrees with brute force")
	}
}

func TestEdgeCases(t *testing.T) {
	empty := relation.MustNew("r", []string{"a", "b"}, nil)
	if got := Discover(empty, Options{}); got.CountSingle() != 2 || !got.FDs[0].Lhs.IsEmpty() {
		t.Errorf("empty relation: %s", got.Format(empty.Attrs))
	}
	constant := relation.MustNew("r", []string{"c", "v"}, [][]string{
		{"k", "1"}, {"k", "2"},
	})
	got := Discover(constant, Options{})
	if !got.Equal(bruteforce.DiscoverFDs(constant, 2)) {
		t.Errorf("constant column: %s", got.Format(constant.Attrs))
	}
	single := relation.MustNew("r", []string{"a"}, [][]string{{"x"}, {"y"}})
	if got := Discover(single, Options{}); got.CountSingle() != 0 {
		t.Errorf("lone non-constant column: %s", got.Format(single.Attrs))
	}
}

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
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		attrs := 3 + r.Intn(4)
		rows := 5 + r.Intn(30)
		card := 2 + r.Intn(3)
		rel := randomRelation(r, attrs, rows, card)
		got := Discover(rel, Options{})
		want := bruteforce.DiscoverFDs(rel, attrs)
		if !got.Equal(want) {
			t.Fatalf("trial %d (attrs=%d rows=%d card=%d):\nDFD:\n%sbrute:\n%s",
				trial, attrs, rows, card, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestNullsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		base := randomRelation(r, 4, 20, 3)
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
			t.Fatalf("trial %d:\nDFD:\n%sbrute:\n%s",
				trial, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestAgreementWithHyFD(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(r, 6, 60, 3)
		if !Discover(rel, Options{}).Equal(hyfd.Discover(rel, hyfd.Options{})) {
			t.Fatalf("trial %d: DFD and HyFD disagree", trial)
		}
	}
}

func TestMaxLhsPruning(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	rel := randomRelation(r, 6, 30, 3)
	full := Discover(rel, Options{})
	pruned := Discover(rel, Options{MaxLhs: 2})
	want := 0
	for _, f := range full.FDs {
		if f.Lhs.Cardinality() <= 2 {
			want += f.Rhs.Cardinality()
		}
	}
	if pruned.CountSingle() != want {
		t.Errorf("MaxLhs=2: got %d, want %d", pruned.CountSingle(), want)
	}
}

func TestMinimalHittingSets(t *testing.T) {
	n := 5
	universe := bitset.Full(n).Remove(4)
	// Non-deps {0,1} and {2}: complements {2,3} and {0,1,3}.
	nds := []*bitset.Set{bitset.Of(n, 0, 1), bitset.Of(n, 2)}
	hs := minimalHittingSets(universe, nds, n, n)
	got := map[string]bool{}
	for _, h := range hs {
		got[h.String()] = true
	}
	// Minimal hitting sets of {2,3} and {0,1,3}: {3}, {2,0}, {2,1}.
	want := []string{"{3}", "{0, 2}", "{1, 2}"}
	if len(got) != len(want) {
		t.Fatalf("hitting sets = %v, want %v", got, want)
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("missing hitting set %s", w)
		}
	}
}

func TestRemoveSupersets(t *testing.T) {
	n := 4
	in := []*bitset.Set{
		bitset.Of(n, 0, 1), bitset.Of(n, 0), bitset.Of(n, 0, 1), bitset.Of(n, 2),
	}
	out := removeSupersets(in)
	if len(out) != 2 {
		t.Fatalf("removeSupersets kept %d sets", len(out))
	}
}
