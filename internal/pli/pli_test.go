package pli

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func sortClusters(cs [][]int) [][]int {
	out := make([][]int, len(cs))
	for i, c := range cs {
		cc := make([]int, len(c))
		copy(cc, c)
		sort.Ints(cc)
		out[i] = cc
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

func TestFromColumn(t *testing.T) {
	// values: a b a c b a → clusters {0,2,5} and {1,4}
	codes := []int{0, 1, 0, 2, 1, 0}
	p := FromColumn(codes, 3)
	if p.NumRows() != 6 {
		t.Errorf("NumRows = %d", p.NumRows())
	}
	got := sortClusters(p.Clusters())
	want := [][]int{{0, 2, 5}, {1, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clusters = %v, want %v", got, want)
	}
	if p.Size() != 5 || p.NumClusters() != 2 || p.Error() != 3 {
		t.Errorf("Size=%d NumClusters=%d Error=%d", p.Size(), p.NumClusters(), p.Error())
	}
}

func TestSingletonsStripped(t *testing.T) {
	p := FromColumn([]int{0, 1, 2, 3}, 4)
	if !p.IsUnique() || p.NumClusters() != 0 || p.Error() != 0 {
		t.Error("all-distinct column must give empty stripped partition")
	}
}

func TestFromClustersCopiesAndStrips(t *testing.T) {
	c := []int{1, 2}
	p := FromClusters(5, [][]int{c, {3}})
	if p.NumClusters() != 1 {
		t.Errorf("NumClusters = %d", p.NumClusters())
	}
	c[0] = 99
	if p.Clusters()[0][0] == 99 {
		t.Error("FromClusters must copy input clusters")
	}
}

func TestInverted(t *testing.T) {
	p := FromColumn([]int{0, 1, 0, 2}, 3)
	inv := p.Inverted()
	if inv[0] != inv[2] || inv[0] < 0 {
		t.Error("rows 0 and 2 must share a cluster id")
	}
	if inv[1] != -1 || inv[3] != -1 {
		t.Error("stripped rows must be -1")
	}
}

func TestIntersect(t *testing.T) {
	// Column X: a a a b b; Column Y: p p q q q
	px := FromColumn([]int{0, 0, 0, 1, 1}, 2)
	py := FromColumn([]int{0, 0, 1, 1, 1}, 2)
	pxy := px.Intersect(py)
	got := sortClusters(pxy.Clusters())
	want := [][]int{{0, 1}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("intersection clusters = %v, want %v", got, want)
	}
}

func TestIntersectYieldsUnique(t *testing.T) {
	px := FromColumn([]int{0, 0, 1, 1}, 2)
	py := FromColumn([]int{0, 1, 0, 1}, 2)
	if !px.Intersect(py).IsUnique() {
		t.Error("X×Y should be a key here")
	}
}

func TestRefinesAndFirstViolation(t *testing.T) {
	// Postcode → City from the paper: postcode clusters constant in city.
	post := FromColumn([]int{0, 0, 1, 2, 0, 1}, 3)
	city := []int{0, 0, 1, 2, 0, 1}
	if !post.Refines(city) {
		t.Error("Postcode → City should hold")
	}
	if a, b := post.FirstViolation(city); a != -1 || b != -1 {
		t.Error("no violation expected")
	}
	first := []int{0, 1, 2, 3, 4, 0} // First name does not depend on postcode
	if post.Refines(first) {
		t.Error("Postcode → First should not hold")
	}
	a, b := post.FirstViolation(first)
	if a < 0 || b < 0 || first[a] == first[b] {
		t.Errorf("FirstViolation returned (%d,%d), not a violating pair", a, b)
	}
}

// TestQuickIntersectMatchesCombinedEncoding checks PLI intersection
// against building the PLI of the value-pair column directly.
func TestQuickIntersectMatchesCombinedEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 2 + r.Intn(60)
		cardX, cardY := 1+r.Intn(5), 1+r.Intn(5)
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = r.Intn(cardX)
			y[i] = r.Intn(cardY)
		}
		// Combined code.
		comb := make([]int, n)
		codes := map[[2]int]int{}
		for i := range comb {
			k := [2]int{x[i], y[i]}
			c, ok := codes[k]
			if !ok {
				c = len(codes)
				codes[k] = c
			}
			comb[i] = c
		}
		direct := FromColumn(comb, len(codes))
		inter := FromColumn(x, cardX).Intersect(FromColumn(y, cardY))
		return reflect.DeepEqual(sortClusters(direct.Clusters()), sortClusters(inter.Clusters()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickRefinesMatchesBruteForce checks Refines against the FD
// definition (all pairs agreeing on X agree on A).
func TestQuickRefinesMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func() bool {
		n := 2 + r.Intn(40)
		cardX, cardA := 1+r.Intn(4), 1+r.Intn(4)
		x := make([]int, n)
		a := make([]int, n)
		for i := range x {
			x[i] = r.Intn(cardX)
			a[i] = r.Intn(cardA)
		}
		want := true
		for i := 0; i < n && want; i++ {
			for j := i + 1; j < n; j++ {
				if x[i] == x[j] && a[i] != a[j] {
					want = false
					break
				}
			}
		}
		return FromColumn(x, cardX).Refines(a) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSizeCachedThroughIntersect pins satellite 1: Size and Error are
// computed at construction on every path, including intersections.
func TestSizeCachedThroughIntersect(t *testing.T) {
	px := FromColumn([]int{0, 0, 0, 1, 1, 2}, 3)
	py := FromColumn([]int{0, 0, 1, 1, 1, 2}, 3)
	var buf Buffer
	for _, p := range []*PLI{px, py, px.Intersect(py), new(Intersector).IntersectInto(&buf, px, py.Inverted())} {
		n := 0
		for _, c := range p.Clusters() {
			n += len(c)
		}
		if p.Size() != n {
			t.Errorf("Size() = %d, clusters cover %d rows", p.Size(), n)
		}
		if p.Error() != n-p.NumClusters() {
			t.Errorf("Error() = %d, want %d", p.Error(), n-p.NumClusters())
		}
	}
}

// TestInvertedCached pins the lazy cached inverted index: repeated
// calls return the same backing slice instead of re-deriving it.
func TestInvertedCached(t *testing.T) {
	p := FromColumn([]int{0, 1, 0, 2, 1}, 3)
	a, b := p.Inverted(), p.Inverted()
	if &a[0] != &b[0] {
		t.Error("Inverted() must cache and return the same index")
	}
}

// TestIntersectSelectivitySwap checks that the operand swap preserves
// the product partition (Intersect is symmetric).
func TestIntersectSelectivitySwap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 5 + r.Intn(50)
		cx, cy := 1+r.Intn(6), 1+r.Intn(6)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cy)
		}
		px, py := FromColumn(x, cx), FromColumn(y, cy)
		ab := sortClusters(px.Intersect(py).Clusters())
		ba := sortClusters(py.Intersect(px).Clusters())
		if !reflect.DeepEqual(ab, ba) {
			t.Fatalf("intersect not symmetric: %v vs %v", ab, ba)
		}
	}
}

// TestIntersectorMatchesIntersect checks a reused Intersector against
// the plain Intersect, including reuse across differently-shaped
// operands (stale buckets must not leak between calls).
func TestIntersectorMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var ix Intersector
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(80)
		cx, cy := 1+r.Intn(8), 1+r.Intn(8)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cy)
		}
		px, py := FromColumn(x, cx), FromColumn(y, cy)
		inv := py.Inverted()
		want := sortClusters(px.Intersect(py).Clusters())
		got := sortClusters(ix.IntersectInto(nil, px, inv).Clusters())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Intersector result %v, want %v", got, want)
		}
	}
}
