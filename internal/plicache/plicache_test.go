package plicache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"normalize/internal/relation"
)

// randomRelation builds a deterministic random relation with value
// repetition (small alphabets) and occasional nulls.
func randomRelation(r *rand.Rand, name string, attrs, rows int) *relation.Relation {
	header := make([]string, attrs)
	for i := range header {
		header[i] = fmt.Sprintf("a%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			switch v := r.Intn(5); v {
			case 0:
				row[j] = "" // null
			default:
				row[j] = fmt.Sprintf("v%d", v)
			}
		}
		data[i] = row
	}
	return relation.MustNew(name, header, data)
}

func encodedEqual(a, b *relation.Encoded) error {
	if a.NumRows != b.NumRows {
		return fmt.Errorf("NumRows %d vs %d", a.NumRows, b.NumRows)
	}
	if !reflect.DeepEqual(a.Columns, b.Columns) {
		return fmt.Errorf("Columns differ: %v vs %v", a.Columns, b.Columns)
	}
	if !reflect.DeepEqual(a.Cardinality, b.Cardinality) {
		return fmt.Errorf("Cardinality %v vs %v", a.Cardinality, b.Cardinality)
	}
	if !reflect.DeepEqual(a.HasNull, b.HasNull) {
		return fmt.Errorf("HasNull %v vs %v", a.HasNull, b.HasNull)
	}
	return nil
}

// TestProjectDedupMatchesEncode is the load-bearing property of the
// substrates the pipeline registers for decomposition children: the
// substrate over the encoding relation.ProjectDedup derives from the
// parent's codes must be observably identical to encoding the
// materialized projection from scratch — including code assignment
// order, cardinalities, and null flags.
func TestProjectDedupMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 200; trial++ {
		attrs := 2 + r.Intn(6)
		rows := r.Intn(60)
		rel := randomRelation(r, "parent", attrs, rows)

		// Random projection (non-empty, ascending order like localSet).
		var cols []int
		for c := 0; c < attrs; c++ {
			if r.Intn(2) == 0 {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []int{r.Intn(attrs)}
		}

		derived := New(rel.ProjectDedup("child", cols).Encode())
		var want [][]string
		seen := make(map[string]bool)
		for _, row := range rel.Rows() {
			proj := make([]string, len(cols))
			for j, c := range cols {
				proj[j] = row[c]
			}
			if k := fmt.Sprintf("%q", proj); !seen[k] {
				seen[k] = true
				want = append(want, proj)
			}
		}
		direct := relation.MustNew("child", rel.Project("child", cols).Attrs, want)
		if err := encodedEqual(derived.Encoded(), direct.Encode()); err != nil {
			t.Fatalf("trial %d cols %v: %v", trial, cols, err)
		}
	}
}

// TestProjectDedupHasNullConservative documents that derived null
// flags match the parent column: dedup can only drop duplicate tuples,
// never a distinct value, so a column has a null after the projection
// iff it had one before.
func TestProjectDedupHasNullConservative(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, [][]string{
		{"", "x"}, {"", "x"}, {"1", "y"},
	})
	s := New(rel.ProjectDedup("p", []int{0, 1}).Encode())
	if !s.Encoded().HasNull[0] || s.Encoded().HasNull[1] {
		t.Errorf("HasNull = %v, want [true false]", s.Encoded().HasNull)
	}
}

func TestSubstratePLILazySharing(t *testing.T) {
	rel := relation.MustNew("r", []string{"a"}, [][]string{{"x"}, {"x"}, {"y"}})
	s := New(rel.Encode())
	p1, p2 := s.PLI(0), s.PLI(0)
	if p1 != p2 {
		t.Error("PLI(0) must build once and return the cached partition")
	}
	if p1.Size() != 2 || p1.NumClusters() != 1 {
		t.Errorf("unexpected partition: size %d clusters %d", p1.Size(), p1.NumClusters())
	}
}

func TestCacheIdentityAndContentKey(t *testing.T) {
	ctx := context.Background()
	c := NewCache()
	rel1 := relation.MustNew("one", []string{"a", "b"}, [][]string{{"x", "1"}, {"y", "2"}})
	// Same content, different name and object.
	rel2 := relation.MustNew("two", []string{"a", "b"}, [][]string{{"x", "1"}, {"y", "2"}})
	// Different content.
	rel3 := relation.MustNew("three", []string{"a", "b"}, [][]string{{"x", "1"}})

	s1, err := c.For(ctx, rel1)
	if err != nil {
		t.Fatal(err)
	}
	s1again, err := c.For(ctx, rel1)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s1again {
		t.Error("identity lookup must return the cached substrate")
	}
	s2, err := c.For(ctx, rel2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1 {
		t.Error("content-identical relations must share one substrate")
	}
	s3, err := c.For(ctx, rel3)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Error("content-distinct relations must not share a substrate")
	}
	builds, _, hits := c.Stats()
	if builds != 2 || hits != 2 {
		t.Errorf("stats builds=%d hits=%d, want 2 and 2", builds, hits)
	}
}

func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	rel := relation.MustNew("r", []string{"a"}, [][]string{{"x"}})
	s, err := c.For(context.Background(), rel)
	if err != nil || s == nil {
		t.Fatalf("nil cache For: %v, %v", s, err)
	}
	if c.Lookup(rel) != nil {
		t.Error("nil cache Lookup must return nil")
	}
	c.PutDerived(rel, s) // must not panic
}

func TestCachePutDerived(t *testing.T) {
	c := NewCache()
	parent := relation.MustNew("p", []string{"a", "b"}, [][]string{{"x", "1"}, {"x", "2"}})
	ps, err := c.For(context.Background(), parent)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Encoded() != parent.Encode() {
		t.Fatal("substrate must wrap the relation's own encoding")
	}
	child := parent.ProjectDedup("c", []int{0})
	c.PutDerived(child, New(child.Encode()))
	got := c.Lookup(child)
	if got == nil {
		t.Fatal("derived substrate not registered")
	}
	if err := encodedEqual(got.Encoded(), relation.MustNew("c", []string{"a"}, [][]string{{"x"}}).Encode()); err != nil {
		t.Fatal(err)
	}
}

// TestCacheConcurrent hammers one cache from many goroutines under the
// race detector: same-content relations must converge on one substrate.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	rows := [][]string{{"x", "1"}, {"y", "2"}, {"x", "2"}}
	var wg sync.WaitGroup
	subs := make([]*Substrate, 16)
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel := relation.MustNew("r", []string{"a", "b"}, rows)
			s, err := c.For(ctx, rel)
			if err != nil {
				t.Error(err)
				return
			}
			_ = s.PLI(0)
			_ = s.Inverted(1)
			subs[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(subs); i++ {
		if subs[i] != subs[0] {
			t.Fatal("concurrent builders must converge on one substrate")
		}
	}
}

func TestCanceledBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows := make([][]string, 5000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i)}
	}
	rel := relation.MustNew("big", []string{"a"}, rows)
	if _, err := NewCache().For(ctx, rel); err == nil {
		t.Error("cancelled build must fail")
	}
}

// TestExtendMatchesFresh pins the delta plane's substrate property: a
// substrate extended over appended rows must produce PLIs and inverted
// indexes observably identical to ones built from scratch on the
// combined encoding — cluster contents, ordering, and singleton
// stripping included.
func TestExtendMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(808))
	for trial := 0; trial < 100; trial++ {
		attrs := 1 + r.Intn(6)
		baseRows := 1 + r.Intn(40)
		extraRows := 1 + r.Intn(40)
		rel := randomRelation(r, "base", attrs, baseRows+extraRows)
		extra := make([][]string, extraRows)
		for i := range extra {
			row := make([]string, attrs)
			for j := range row {
				row[j] = rel.Value(baseRows+i, j)
			}
			extra[i] = row
		}
		base := relation.MustNew("base", rel.Attrs, rel.Rows()[:baseRows])

		grown, err := base.Columnar().Append(extra)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ext := Extend(New(base.Encode()), grown.Enc)
		fresh := New(rel.Encode())

		if err := encodedEqual(ext.Encoded(), fresh.Encoded()); err != nil {
			t.Fatalf("trial %d: encodings differ: %v", trial, err)
		}
		for a := 0; a < attrs; a++ {
			ep, fp := ext.PLI(a), fresh.PLI(a)
			if !reflect.DeepEqual(ep.Clusters(), fp.Clusters()) {
				t.Fatalf("trial %d attr %d: clusters differ\nextended: %v\nfresh: %v",
					trial, a, ep.Clusters(), fp.Clusters())
			}
			if !reflect.DeepEqual(ep.Inverted(), fp.Inverted()) {
				t.Fatalf("trial %d attr %d: inverted indexes differ", trial, a)
			}
			if ep.Size() != fp.Size() || ep.NumClusters() != fp.NumClusters() {
				t.Fatalf("trial %d attr %d: size/clusters %d/%d vs %d/%d",
					trial, a, ep.Size(), ep.NumClusters(), fp.Size(), fp.NumClusters())
			}
		}
	}
}
