package pli

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func snapshotClusters(p *PLI) [][]int {
	out := make([][]int, 0, p.NumClusters())
	for _, c := range p.Clusters() {
		out = append(out, append([]int(nil), c...))
	}
	return out
}

// TestQuickArenaMatchesAllocPath is the arena property test: the
// arena-backed intersector produces clusters identical — including
// cluster order and row order, which validation verdict sampling
// depends on — to the alloc-per-cluster path, across random shapes.
func TestQuickArenaMatchesAllocPath(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	arena := NewArenaIntersector()
	var plain Intersector
	f := func() bool {
		n := 2 + r.Intn(100)
		cx, cy := 1+r.Intn(10), 1+r.Intn(10)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cy)
		}
		px, py := FromColumn(x, cx), FromColumn(y, cy)
		inv := py.Inverted()
		got := snapshotClusters(arena.IntersectInverted(px, inv))
		want := snapshotClusters(plain.IntersectInverted(px, inv))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestArenaGenerationWindow pins the arena's lifetime contract: a
// result stays intact through the NEXT IntersectInverted call (the
// two-generation ping-pong) and is only reclaimed by the second-next
// one. Validation folds one verdict behind the checks, so this window
// is exactly what the discovery loops rely on.
func TestArenaGenerationWindow(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	ix := NewArenaIntersector()
	mk := func() (*PLI, []int) {
		n := 50 + r.Intn(50)
		cx := 2 + r.Intn(6)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cx)
		}
		return FromColumn(x, cx), FromColumn(y, cx).Inverted()
	}
	for trial := 0; trial < 100; trial++ {
		p1, i1 := mk()
		r1 := ix.IntersectInverted(p1, i1)
		snap := snapshotClusters(r1)
		p2, i2 := mk()
		ix.IntersectInverted(p2, i2) // next call must NOT disturb r1
		if got := snapshotClusters(r1); !reflect.DeepEqual(got, snap) {
			t.Fatalf("trial %d: arena result mutated by the next call", trial)
		}
	}
}

// TestQuickFromColumnMatchesMapGrouping checks the flat two-pass
// FromColumn against a reference map grouping: clusters in ascending
// code order with rows ascending inside, singletons stripped.
func TestQuickFromColumnMatchesMapGrouping(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	f := func() bool {
		n := 1 + r.Intn(120)
		card := 1 + r.Intn(n)
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(card)
		}
		// Reference: group rows by code, keep clusters of size >= 2 in
		// ascending code order.
		byCode := make(map[int][]int)
		for i, c := range col {
			byCode[c] = append(byCode[c], i)
		}
		var want [][]int
		for c := 0; c < card; c++ {
			if len(byCode[c]) >= 2 {
				want = append(want, byCode[c])
			}
		}
		got := FromColumn(col, card).Clusters()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIntersectCountMatchesInverted: the count-only intersection
// reports exactly the Size and NumClusters of the materialized product
// on the same operands, and a product carved from a caller-owned Buffer
// equals the allocating path's.
func TestQuickIntersectCountMatchesInverted(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	var counter, plain Intersector
	var buf Buffer
	f := func() bool {
		n := 2 + r.Intn(120)
		cx, cy := 1+r.Intn(12), 1+r.Intn(12)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cy)
		}
		px, py := FromColumn(x, cx), FromColumn(y, cy)
		inv := py.Inverted()
		want := plain.IntersectInverted(px, inv)
		size, clusters := counter.IntersectCount(px, inv)
		into := counter.IntersectInto(&buf, px, inv)
		return size == want.Size() && clusters == want.NumClusters() &&
			reflect.DeepEqual(snapshotClusters(into), snapshotClusters(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestArenaIntersectorConcurrentSlots runs one arena intersector per
// goroutine (the per-slot ownership model of the work-stealing
// validation) under -race, checking each slot's results against the
// serial path.
func TestArenaIntersectorConcurrentSlots(t *testing.T) {
	const slots = 8
	n := 400
	cx := 5
	x, y := make([]int, n), make([]int, n)
	r := rand.New(rand.NewSource(53))
	for i := range x {
		x[i], y[i] = r.Intn(cx), r.Intn(cx)
	}
	px, py := FromColumn(x, cx), FromColumn(y, cx)
	inv := py.Inverted()
	var plain Intersector
	want := snapshotClusters(plain.IntersectInverted(px, inv))
	errs := make(chan error, slots)
	for s := 0; s < slots; s++ {
		go func() {
			ix := NewArenaIntersector()
			for k := 0; k < 200; k++ {
				if got := snapshotClusters(ix.IntersectInverted(px, inv)); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("slot diverged at iteration %d", k)
					return
				}
			}
			errs <- nil
		}()
	}
	for s := 0; s < slots; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
