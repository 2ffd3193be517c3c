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

// TestQuickIntersectIntoMatchesOwnedPath: a product carved from
// alternating caller-owned Buffers has clusters identical — including
// cluster order and row order, which validation verdict sampling
// depends on — to the product that owns its memory, across random
// shapes.
func TestQuickIntersectIntoMatchesOwnedPath(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	var reused, plain Intersector
	var bufs [2]Buffer
	k := 0
	f := func() bool {
		n := 2 + r.Intn(100)
		cx, cy := 1+r.Intn(10), 1+r.Intn(10)
		x, y := make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i] = r.Intn(cx), r.Intn(cy)
		}
		px, py := FromColumn(x, cx), FromColumn(y, cy)
		inv := py.Inverted()
		k++
		got := snapshotClusters(reused.IntersectInto(&bufs[k&1], px, inv))
		want := snapshotClusters(plain.IntersectInto(nil, px, inv))
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntersectIntoAlternatingBuffers pins the Buffer lifetime a chain
// relies on: a result carved from one Buffer stays intact through the
// next call, which reads it as its input and writes into the other
// Buffer, and the chain's product equals the owned path's. HyFD's
// validation chains alternate exactly so.
func TestIntersectIntoAlternatingBuffers(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	var ix, plain Intersector
	var bufs [2]Buffer
	for trial := 0; trial < 100; trial++ {
		n := 50 + r.Intn(50)
		cx := 2 + r.Intn(6)
		x, y, z := make([]int, n), make([]int, n), make([]int, n)
		for i := range x {
			x[i], y[i], z[i] = r.Intn(cx), r.Intn(cx), r.Intn(cx)
		}
		px := FromColumn(x, cx)
		invY, invZ := FromColumn(y, cx).Inverted(), FromColumn(z, cx).Inverted()
		r1 := ix.IntersectInto(&bufs[trial&1], px, invY)
		snap := snapshotClusters(r1)
		r2 := ix.IntersectInto(&bufs[(trial+1)&1], r1, invZ)
		if got := snapshotClusters(r1); !reflect.DeepEqual(got, snap) {
			t.Fatalf("trial %d: result mutated by the next call into the other buffer", trial)
		}
		want := snapshotClusters(plain.IntersectInto(nil, plain.IntersectInto(nil, px, invY), invZ))
		if got := snapshotClusters(r2); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: chained product %v, want %v", trial, got, want)
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
// equals the owned path's.
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
		want := plain.IntersectInto(nil, px, inv)
		size, clusters := counter.IntersectCount(px, inv)
		into := counter.IntersectInto(&buf, px, inv)
		return size == want.Size() && clusters == want.NumClusters() &&
			reflect.DeepEqual(snapshotClusters(into), snapshotClusters(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestIntersectIntoConcurrentSlots runs one Intersector with its two
// Buffers per goroutine (the per-slot ownership model of the
// work-stealing validation) under -race, checking each slot's chained
// results against the serial owned path.
func TestIntersectIntoConcurrentSlots(t *testing.T) {
	const slots = 8
	n := 400
	cx := 5
	x, y, z := make([]int, n), make([]int, n), make([]int, n)
	r := rand.New(rand.NewSource(53))
	for i := range x {
		x[i], y[i], z[i] = r.Intn(cx), r.Intn(cx), r.Intn(cx)
	}
	px := FromColumn(x, cx)
	invY, invZ := FromColumn(y, cx).Inverted(), FromColumn(z, cx).Inverted()
	var plain Intersector
	want := snapshotClusters(plain.IntersectInto(nil, plain.IntersectInto(nil, px, invY), invZ))
	errs := make(chan error, slots)
	for s := 0; s < slots; s++ {
		go func() {
			var ix Intersector
			var bufs [2]Buffer
			for k := 0; k < 200; k++ {
				p := ix.IntersectInto(&bufs[0], px, invY)
				if got := snapshotClusters(ix.IntersectInto(&bufs[1], p, invZ)); !reflect.DeepEqual(got, want) {
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

// TestIntersectIntoCodeColumn: a dictionary code column is itself a
// row → id index, so probing a partition into the codes of column y
// yields the partition of X∪{y} without y's partition. The product has
// the same row sets, Size and NumClusters as intersecting with y's
// partition, and the same clusters in the same order as probing into
// that partition's inverted index. The columns cover a frequent null
// code, all-singleton values and a single value, against a column
// partition and against an intersected one.
func TestIntersectIntoCodeColumn(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	var ix Intersector
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(120)
		cx, cw := 1+r.Intn(8), 1+r.Intn(8)
		x, w := make([]int, n), make([]int, n)
		for i := range x {
			x[i], w[i] = r.Intn(cx), r.Intn(cw)
		}
		px := FromColumn(x, cx)
		probes := []*PLI{px, px.Intersect(FromColumn(w, cw))}

		var cols [][]int
		var cards []int
		nullish, card := make([]int, n), 1+r.Intn(6)
		for i := range nullish {
			if r.Intn(3) > 0 {
				nullish[i] = r.Intn(card) // code 0 stands for null
			}
		}
		distinct, single := make([]int, n), make([]int, n)
		for i := range distinct {
			distinct[i] = i
		}
		cols = append(cols, nullish, distinct, single)
		cards = append(cards, card, n, 1)

		for c, codes := range cols {
			py := FromColumn(codes, cards[c])
			for k, p := range probes {
				got := ix.IntersectInto(nil, p, codes)
				want := p.Intersect(py)
				if !reflect.DeepEqual(sortClusters(got.Clusters()), sortClusters(want.Clusters())) ||
					got.Size() != want.Size() || got.NumClusters() != want.NumClusters() {
					t.Fatalf("trial %d column %d probe %d: code probe %v (size %d, %d clusters), partition product %v (size %d, %d clusters)",
						trial, c, k, got.Clusters(), got.Size(), got.NumClusters(), want.Clusters(), want.Size(), want.NumClusters())
				}
				if inv := snapshotClusters(ix.IntersectInto(nil, p, py.Inverted())); !reflect.DeepEqual(snapshotClusters(got), inv) {
					t.Fatalf("trial %d column %d probe %d: code probe %v, inverted-index probe %v", trial, c, k, got.Clusters(), inv)
				}
			}
		}
	}
}
