package core

import (
	"context"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/scoring"
)

// TestSortRankedKeysDeterministic: primary-key candidates, scored as
// selectPrimaryKey scores them, rank best first in an order that does
// not depend on the order they arrive in, tied scores included.
func TestSortRankedKeysDeterministic(t *testing.T) {
	rel := address()
	var cands []RankedKey
	for _, k := range []*bitset.Set{bitset.Of(5, 0, 1), bitset.Of(5, 2, 0), bitset.Of(5, 4, 3)} {
		cands = append(cands, RankedKey{Key: k, Score: scoring.KeyScore(rel, k)})
	}
	// A tie, broken by the keys' element order.
	cands = append(cands, RankedKey{Key: bitset.Of(5, 3), Score: 0.25}, RankedKey{Key: bitset.Of(5, 1), Score: 0.25})
	a := append([]RankedKey(nil), cands...)
	b := []RankedKey{cands[4], cands[2], cands[0], cands[3], cands[1]}
	sortRankedKeys(a)
	sortRankedKeys(b)
	for i := range a {
		if !a[i].Key.Equal(b[i].Key) {
			t.Fatalf("ranking not deterministic at %d: %v vs %v", i, a[i].Key, b[i].Key)
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Score < a[i].Score {
			t.Errorf("ranking not sorted descending at %d: %v before %v", i, a[i-1].Score, a[i].Score)
		}
	}
}

// TestSortRankedFDsBestFirst: the pipeline's ranking of violating FDs
// on the address example puts Postcode → City, Mayor first, whichever
// order the FDs arrive in, and sortRankedFDs breaks score ties by the
// FD's element order.
func TestSortRankedFDsBestFirst(t *testing.T) {
	p := &run{cache: plicache.NewCache(plistore.New(nil, "")), opts: Options{Workers: 1}}
	root := p.buildRoot(address(), fd.NewSet(5))
	p.scores = newScoreIndex(root.Data, nil)
	postcode := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	first := &fd.FD{Lhs: bitset.Of(5, 0), Rhs: bitset.Of(5, 4)}
	for _, viol := range [][]*fd.FD{{first, postcode}, {postcode, first}} {
		ranked, err := p.rankViolatingFDs(context.Background(), root, viol)
		if err != nil {
			t.Fatal(err)
		}
		if !ranked[0].FD.Lhs.Equal(postcode.Lhs) || ranked[0].Score <= ranked[1].Score {
			t.Errorf("Postcode FD should rank first, got %v (%.3f) before %v (%.3f)",
				ranked[0].FD, ranked[0].Score, ranked[1].FD, ranked[1].Score)
		}
	}

	tied := []RankedFD{{FD: postcode, Score: 0.5}, {FD: first, Score: 0.5}}
	sortRankedFDs(tied)
	if tied[0].FD != first {
		t.Errorf("tie not broken by element order: %v before %v", tied[0].FD, tied[1].FD)
	}
}
