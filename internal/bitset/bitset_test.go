package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		s := New(n)
		if !s.IsEmpty() {
			t.Errorf("New(%d) not empty", n)
		}
		if s.Cardinality() != 0 {
			t.Errorf("New(%d) cardinality %d", n, s.Cardinality())
		}
		if s.Size() != n {
			t.Errorf("New(%d).Size() = %d", n, s.Size())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative size")
		}
	}()
	New(-1)
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	elems := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, e := range elems {
		s.Add(e)
	}
	for _, e := range elems {
		if !s.Contains(e) {
			t.Errorf("missing %d", e)
		}
	}
	if s.Contains(2) || s.Contains(66) {
		t.Error("contains element never added")
	}
	if s.Cardinality() != len(elems) {
		t.Errorf("cardinality = %d, want %d", s.Cardinality(), len(elems))
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("remove failed")
	}
	if s.Cardinality() != len(elems)-1 {
		t.Error("cardinality after remove wrong")
	}
}

func TestContainsOutOfRange(t *testing.T) {
	s := Of(10, 3)
	if s.Contains(-1) || s.Contains(10) || s.Contains(1000) {
		t.Error("out-of-range Contains should be false")
	}
}

func TestFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		f := Full(n)
		if f.Cardinality() != n {
			t.Errorf("Full(%d) cardinality %d", n, f.Cardinality())
		}
		for e := 0; e < n; e++ {
			if !f.Contains(e) {
				t.Errorf("Full(%d) missing %d", n, e)
			}
		}
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(100, 1, 2, 3, 70)
	b := Of(100, 2, 3, 4, 99)
	if got := a.Union(b).Elements(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 70, 99}) {
		t.Errorf("union = %v", got)
	}
	if got := a.Intersect(b).Elements(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("intersect = %v", got)
	}
	if got := a.Difference(b).Elements(); !reflect.DeepEqual(got, []int{1, 70}) {
		t.Errorf("difference = %v", got)
	}
	// Originals untouched.
	if !reflect.DeepEqual(a.Elements(), []int{1, 2, 3, 70}) {
		t.Error("union/intersect mutated receiver")
	}
}

func TestSubsetRelations(t *testing.T) {
	a := Of(64, 1, 2)
	b := Of(64, 1, 2, 3)
	if !a.IsSubsetOf(b) || b.IsSubsetOf(a) {
		t.Error("subset relation wrong")
	}
	if !a.IsProperSubsetOf(b) {
		t.Error("proper subset wrong")
	}
	if !a.IsSubsetOf(a.Clone()) || a.IsProperSubsetOf(a.Clone()) {
		t.Error("self subset handling wrong")
	}
	if !New(64).IsSubsetOf(a) {
		t.Error("empty set must be subset of everything")
	}
}

func TestIntersects(t *testing.T) {
	a := Of(128, 100)
	b := Of(128, 100, 5)
	c := Of(128, 5)
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("Intersects wrong")
	}
}

func TestEqual(t *testing.T) {
	a := Of(64, 1, 5)
	if !a.Equal(Of(64, 5, 1)) {
		t.Error("equal sets not Equal")
	}
	if a.Equal(Of(64, 1)) || a.Equal(Of(65, 1, 5)) || a.Equal(nil) {
		t.Error("unequal sets reported Equal")
	}
}

func TestFirstNextAfterElements(t *testing.T) {
	s := Of(200, 3, 64, 65, 199)
	if s.First() != 3 {
		t.Errorf("First = %d", s.First())
	}
	if s.NextAfter(3) != 64 || s.NextAfter(65) != 199 || s.NextAfter(199) != -1 {
		t.Error("NextAfter wrong")
	}
	if s.NextAfter(-1) != 3 {
		t.Error("NextAfter(-1) should equal First")
	}
	if New(10).First() != -1 {
		t.Error("First of empty should be -1")
	}
	if !reflect.DeepEqual(s.Elements(), []int{3, 64, 65, 199}) {
		t.Errorf("Elements = %v", s.Elements())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := Of(10, 1, 2, 3)
	var seen []int
	s.ForEach(func(e int) bool {
		seen = append(seen, e)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("seen = %v", seen)
	}
}

func TestKeyUniqueness(t *testing.T) {
	a := Of(100, 1, 64)
	b := Of(100, 1, 64)
	c := Of(100, 1, 65)
	if a.Key() != b.Key() {
		t.Error("equal sets with different keys")
	}
	if a.Key() == c.Key() {
		t.Error("different sets with same key")
	}
}

func TestString(t *testing.T) {
	if got := Of(10, 0, 3, 7).String(); got != "{0, 3, 7}" {
		t.Errorf("String = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

func TestTrimOnFull(t *testing.T) {
	// Full must not set bits beyond the universe; Equal with a manually
	// filled set would otherwise fail.
	f := Full(70)
	g := New(70)
	for i := 0; i < 70; i++ {
		g.Add(i)
	}
	if !f.Equal(g) {
		t.Error("Full(70) != manually filled set")
	}
}

// randomSet draws a random subset of [0,n).
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for e := 0; e < n; e++ {
		if r.Intn(2) == 0 {
			s.Add(e)
		}
	}
	return s
}

func TestQuickDeMorgan(t *testing.T) {
	// complement(a ∪ b) == complement(a) ∩ complement(b)
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		n := 1 + r.Intn(190)
		a, b := randomSet(r, n), randomSet(r, n)
		full := Full(n)
		left := full.Difference(a.Union(b))
		right := full.Difference(a).Intersect(full.Difference(b))
		return left.Equal(right)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickSubsetIffDifferenceEmpty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		n := 1 + r.Intn(190)
		a, b := randomSet(r, n), randomSet(r, n)
		return a.IsSubsetOf(b) == a.Difference(b).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCardinalityUnion(t *testing.T) {
	// |a ∪ b| = |a| + |b| - |a ∩ b|
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		n := 1 + r.Intn(190)
		a, b := randomSet(r, n), randomSet(r, n)
		return a.Union(b).Cardinality() == a.Cardinality()+b.Cardinality()-a.Intersect(b).Cardinality()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickElementsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 1 + r.Intn(190)
		a := randomSet(r, n)
		b := Of(n, a.Elements()...)
		return a.Equal(b) && a.Key() == b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromWords(t *testing.T) {
	s := Of(70, 0, 3, 63, 64, 69)
	got := FromWords(70, s.Words())
	if !got.Equal(s) || got.Key() != s.Key() {
		t.Fatalf("FromWords(words of %v) = %v", s, got)
	}
	got.Add(5)
	if s.Contains(5) {
		t.Fatal("FromWords shares the caller's words")
	}
	if got := FromWords(3, []uint64{0xff}); got.String() != "{0, 1, 2}" {
		t.Fatalf("bits past n kept: %v", got)
	}
}
