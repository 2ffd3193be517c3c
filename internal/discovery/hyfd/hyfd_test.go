package hyfd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"normalize/internal/discovery/bruteforce"
	"normalize/internal/discovery/tane"
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
		t.Errorf("found %d FDs, the paper reports 12:\n%s",
			got.CountSingle(), got.Format(address().Attrs))
	}
	if !got.Equal(bruteforce.DiscoverFDs(address(), 5)) {
		t.Error("HyFD disagrees with brute force on the address example")
	}
}

func TestEmptyAndTinyRelations(t *testing.T) {
	empty := relation.MustNew("r", []string{"a", "b"}, nil)
	got := Discover(empty, Options{})
	if got.CountSingle() != 2 || !got.FDs[0].Lhs.IsEmpty() {
		t.Errorf("empty relation: %s", got.Format(empty.Attrs))
	}

	single := relation.MustNew("r", []string{"a", "b"}, [][]string{{"x", "y"}})
	if !Discover(single, Options{}).Equal(bruteforce.DiscoverFDs(single, 2)) {
		t.Error("single-row mismatch")
	}

	one := relation.MustNew("r", []string{"a"}, [][]string{{"x"}, {"y"}})
	if got := Discover(one, Options{}); got.CountSingle() != 0 {
		t.Errorf("one non-constant column: no FDs expected, got %s", got.Format(one.Attrs))
	}
}

func TestConstantAndNullColumns(t *testing.T) {
	rel := relation.MustNew("r", []string{"const", "null1", "id", "dep"}, [][]string{
		{"k", "", "1", "a"},
		{"k", "", "2", "a"},
		{"k", "", "3", "b"},
	})
	got := Discover(rel, Options{})
	want := bruteforce.DiscoverFDs(rel, 4)
	if !got.Equal(want) {
		t.Errorf("got:\n%swant:\n%s", got.Format(rel.Attrs), want.Format(rel.Attrs))
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

// correlatedRelation produces data with real FD structure: some columns
// are functions of others.
func correlatedRelation(r *rand.Rand, rows int) *relation.Relation {
	data := make([][]string, rows)
	for i := range data {
		k := r.Intn(rows)
		g := k % 7
		data[i] = []string{
			fmt.Sprintf("k%d", k),
			fmt.Sprintf("g%d", g),
			fmt.Sprintf("h%d", g*2),       // depends on g
			fmt.Sprintf("x%d", r.Intn(4)), // random
			fmt.Sprintf("y%d", k%3),       // depends on k
		}
	}
	return relation.MustNew("corr", []string{"k", "g", "h", "x", "y"}, data)
}

func TestRandomAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		attrs := 3 + r.Intn(4)
		rows := 5 + r.Intn(30)
		card := 2 + r.Intn(3)
		rel := randomRelation(r, attrs, rows, card)
		got := Discover(rel, Options{})
		want := bruteforce.DiscoverFDs(rel, attrs)
		if !got.Equal(want) {
			t.Fatalf("trial %d (attrs=%d rows=%d card=%d):\nHyFD:\n%sbrute:\n%s",
				trial, attrs, rows, card, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestCorrelatedAgainstTane(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		rel := correlatedRelation(r, 20+r.Intn(60))
		got := Discover(rel, Options{})
		want := tane.Discover(rel, tane.Options{})
		if !got.Equal(want) {
			t.Fatalf("trial %d:\nHyFD:\n%sTANE:\n%s",
				trial, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestWithNullsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 15; trial++ {
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
			t.Fatalf("trial %d:\nHyFD:\n%sbrute:\n%s",
				trial, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 5; trial++ {
		rel := randomRelation(r, 8, 100, 3)
		seq := Discover(rel, Options{Workers: 1})
		par := Discover(rel, Options{})
		if !seq.Equal(par) {
			t.Fatalf("trial %d: parallel result differs", trial)
		}
	}
}

func TestMaxLhsPruning(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	rel := randomRelation(r, 7, 30, 3)
	full := Discover(rel, Options{})
	for _, max := range []int{1, 2, 3} {
		pruned := Discover(rel, Options{MaxLhs: max})
		want := 0
		for _, f := range full.FDs {
			if f.Lhs.Cardinality() <= max {
				want += f.Rhs.Cardinality()
			}
		}
		if pruned.CountSingle() != want {
			t.Errorf("MaxLhs=%d: got %d FDs, want %d", max, pruned.CountSingle(), want)
		}
		for _, f := range pruned.FDs {
			if f.Lhs.Cardinality() > max {
				t.Errorf("MaxLhs=%d: oversized lhs %v", max, f.Lhs)
			}
		}
	}
}

func TestFewSampleRoundsStillCorrect(t *testing.T) {
	// Correctness must come from the validator, not the sampler: even
	// a single sampling round must yield the exact result.
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(r, 5, 25, 2)
		got := Discover(rel, Options{sampleRounds: 1})
		want := bruteforce.DiscoverFDs(rel, 5)
		if !got.Equal(want) {
			t.Fatalf("trial %d with 1 sample round:\ngot:\n%swant:\n%s",
				trial, got.Format(rel.Attrs), want.Format(rel.Attrs))
		}
	}
}

func TestResultValidatesStructurally(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	rel := correlatedRelation(r, 50)
	got := Discover(rel, Options{})
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// All FDs actually hold on the instance.
	enc := rel.Encode()
	for _, f := range got.FDs {
		f.Rhs.ForEach(func(a int) bool {
			if !bruteforce.Holds(enc, f.Lhs, a) {
				t.Errorf("reported FD does not hold: %s", f.Format(rel.Attrs))
			}
			return true
		})
	}
	// Pairwise minimality.
	for i, f := range got.FDs {
		for j, g := range got.FDs {
			if i != j && f.Lhs.IsProperSubsetOf(g.Lhs) && f.Rhs.Intersects(g.Rhs) {
				t.Errorf("non-minimal: %v generalizes %v", f, g)
			}
		}
	}
}
