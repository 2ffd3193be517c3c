package hyfd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

// TestRevalidateDifferential: revalidating the cover of the first k rows
// against the whole relation must give exactly the from-scratch cover,
// at every worker count and LHS bound. So must revalidating the most
// general seed (∅ → every A), which holds on any single row, from
// firstNew = 1. Every seed FD is either reused or demoted.
func TestRevalidateDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		rel := randomRelation(r, 2+r.Intn(6), 2+r.Intn(80), 1+r.Intn(4))
		n := rel.NumAttrs()
		k := 1 + r.Intn(rel.NumRows()-1)
		maxLhs := []int{0, 2}[trial%2]
		want := Discover(rel, Options{MaxLhs: maxLhs, Workers: 1}).Format(rel.Attrs)
		prefix := relation.MustNew(rel.Name, rel.Attrs, rel.Rows()[:k])
		general := fd.NewSet(n)
		general.Add(bitset.New(n), bitset.Full(n))
		for _, workers := range []int{1, 2} {
			opts := Options{MaxLhs: maxLhs, Workers: workers}
			for _, c := range []struct {
				seed     *fd.Set
				firstNew int
			}{{Discover(prefix, opts), k}, {general, 1}} {
				label := fmt.Sprintf("trial %d (rows=%d maxLhs=%d workers=%d firstNew=%d)",
					trial, rel.NumRows(), maxLhs, workers, c.firstNew)
				got, rv, err := Revalidate(ctx, rel, c.seed, c.firstNew, -1, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if s := got.Format(rel.Attrs); s != want {
					t.Fatalf("%s: revalidated cover\n%sfrom scratch\n%s", label, s, want)
				}
				if sum := rv.Reused + rv.Demoted; sum != int64(c.seed.CountSingle()) {
					t.Fatalf("%s: reused %d + demoted %d, seed has %d FDs",
						label, rv.Reused, rv.Demoted, c.seed.CountSingle())
				}
			}
		}
	}
}

// TestRevalidateDemotionCap: once the appended rows refute more seed
// FDs than maxDemoted, revalidation stops with ErrTooManyDemoted; at
// the cap itself it completes.
func TestRevalidateDemotionCap(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b", "c"}, [][]string{
		{"1", "1", "1"},
		{"1", "1", "1"},
		{"2", "3", "4"},
	})
	seed := Discover(relation.MustNew("r", rel.Attrs, rel.Rows()[:2]), Options{})
	if seed.CountSingle() != 3 {
		t.Fatalf("constant rows should give ∅ → abc, got\n%s", seed.Format(rel.Attrs))
	}
	ctx := context.Background()
	if _, _, err := Revalidate(ctx, rel, seed, 2, 2, Options{}); !errors.Is(err, ErrTooManyDemoted) {
		t.Fatalf("cap 2 with 3 demotions: err = %v, want ErrTooManyDemoted", err)
	}
	got, rv, err := Revalidate(ctx, rel, seed, 2, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rv.Demoted != 3 || rv.Reused != 0 {
		t.Fatalf("demoted %d, reused %d; want 3, 0", rv.Demoted, rv.Reused)
	}
	if want := Discover(rel, Options{}); !got.Equal(want) {
		t.Fatalf("revalidated cover\n%sfrom scratch\n%s", got.Format(rel.Attrs), want.Format(rel.Attrs))
	}
}
