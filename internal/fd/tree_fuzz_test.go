package fd

import (
	"math/rand"
	"testing"
)

// FuzzFDTree decodes an op stream (see checkTreeOps) — a universe of up
// to 130 attributes, then Add, AddSet, RemoveRhs, ViolatedBy,
// GeneralizedRhs, MinimalCover and Level/MaxLevel — and checks every
// answer of the tree against the brute-force reference. Seeds are
// random streams on one-, two- and three-word universes.
func FuzzFDTree(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 3, 9, 64, 65, 100, 130} {
		f.Add(randomTreeOps(r, n, 40))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkTreeOps(data); err != nil {
			t.Fatal(err)
		}
	})
}
