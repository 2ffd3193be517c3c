package ucc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/plicache"
	"normalize/internal/relation"
)

func keysOf(sets []*bitset.Set) map[string]bool {
	m := make(map[string]bool, len(sets))
	for _, s := range sets {
		m[s.String()] = true
	}
	return m
}

func TestAddressExampleKeys(t *testing.T) {
	rel := relation.MustNew("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
	got := keysOf(Discover(rel, Options{}))
	// {First, Last} is the key the paper derives in Section 1.
	if !got["{0, 1}"] {
		t.Errorf("{First, Last} not found among UCCs: %v", got)
	}
	want := keysOf(bruteforce.DiscoverUCCs(rel, 5))
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing UCC %s", k)
		}
	}
}

func TestSingleColumnKey(t *testing.T) {
	rel := relation.MustNew("r", []string{"id", "v"}, [][]string{
		{"1", "a"}, {"2", "a"}, {"3", "b"},
	})
	got := Discover(rel, Options{})
	if len(got) != 1 || !got[0].Equal(bitset.Of(2, 0)) {
		t.Errorf("UCCs = %v", keysOf(got))
	}
}

func TestNoKeyAtAll(t *testing.T) {
	// Duplicate rows: no attribute combination is unique.
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{
		{"x", "y"}, {"x", "y"},
	})
	if got := Discover(rel, Options{}); len(got) != 0 {
		t.Errorf("duplicated rows cannot have a UCC, got %v", keysOf(got))
	}
}

func TestEmptyAndSingleRow(t *testing.T) {
	empty := relation.MustNew("r", []string{"a", "b"}, nil)
	got := Discover(empty, Options{})
	if len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("empty relation: want the empty UCC, got %v", keysOf(got))
	}
	single := relation.MustNew("r", []string{"a"}, [][]string{{"x"}})
	got = Discover(single, Options{})
	if len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("single row: want the empty UCC, got %v", keysOf(got))
	}
}

func TestNullsCompareEqual(t *testing.T) {
	rel := relation.MustNew("r", []string{"a"}, [][]string{{""}, {""}})
	if got := Discover(rel, Options{}); len(got) != 0 {
		t.Error("two null rows must not be unique under null=null semantics")
	}
}

func TestMaxSize(t *testing.T) {
	// Key requires 3 attributes; MaxSize 2 must not report it.
	rel := relation.MustNew("r", []string{"a", "b", "c"}, [][]string{
		{"0", "0", "0"},
		{"0", "0", "1"},
		{"0", "1", "0"},
		{"1", "0", "0"},
		{"0", "1", "1"},
		{"1", "0", "1"},
		{"1", "1", "0"},
		{"1", "1", "1"},
	})
	if got := Discover(rel, Options{MaxSize: 2}); len(got) != 0 {
		t.Errorf("MaxSize=2 must suppress the 3-attribute key, got %v", keysOf(got))
	}
	got := Discover(rel, Options{})
	if len(got) != 1 || got[0].Cardinality() != 3 {
		t.Errorf("want exactly the full key, got %v", keysOf(got))
	}
}

// randomRelations returns 40 small random relations of 2–6 attributes,
// 3–32 rows and 2–5 values per column.
func randomRelations() []*relation.Relation {
	r := rand.New(rand.NewSource(5))
	var rels []*relation.Relation
	for trial := 0; trial < 40; trial++ {
		attrs := 2 + r.Intn(5)
		rows := 3 + r.Intn(30)
		card := 2 + r.Intn(4)
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
		rels = append(rels, relation.MustNew("rand", names, data))
	}
	return rels
}

func TestRandomAgainstBruteForce(t *testing.T) {
	for trial, rel := range randomRelations() {
		got := keysOf(Discover(rel, Options{}))
		want := keysOf(bruteforce.DiscoverUCCs(rel, rel.NumAttrs()))
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v, want %v", trial, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing %s", trial, k)
			}
		}
	}
}

// TestSubstrateEquivalence: a pre-built shared substrate must not
// change the result or its order.
func TestSubstrateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 8; trial++ {
		attrs, rows, card := 4+r.Intn(4), 20+r.Intn(60), 2+r.Intn(3)
		names := make([]string, attrs)
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i)
		}
		data := make([][]string, rows)
		for i := range data {
			data[i] = make([]string, attrs)
			for j := range data[i] {
				data[i][j] = fmt.Sprintf("v%d", r.Intn(card))
			}
		}
		rel := relation.MustNew("rand", names, data)
		sub, err := plicache.Build(context.Background(), rel)
		if err != nil {
			t.Fatal(err)
		}
		own := fmt.Sprint(Discover(rel, Options{}))
		shared := fmt.Sprint(Discover(rel, Options{Substrate: sub}))
		if own != shared {
			t.Fatalf("trial %d: substrate-backed UCCs %s, own build %s", trial, shared, own)
		}
	}
}

func TestResultsAreMinimal(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		rel := relation.MustNew("r", []string{"a", "b", "c", "d"}, func() [][]string {
			rows := make([][]string, 20)
			for i := range rows {
				rows[i] = []string{
					fmt.Sprint(r.Intn(10)), fmt.Sprint(r.Intn(4)),
					fmt.Sprint(r.Intn(4)), fmt.Sprint(r.Intn(2)),
				}
			}
			return rows
		}())
		uccs := Discover(rel, Options{})
		for i, u := range uccs {
			for j, v := range uccs {
				if i != j && u.IsProperSubsetOf(v) {
					t.Fatalf("non-minimal UCC pair: %v ⊂ %v", u, v)
				}
			}
		}
	}
}
