package pli

import (
	"math/rand"
	"testing"
)

// benchColumns builds two dictionary-encoded columns of n rows with the
// given cardinalities, deterministic across runs.
func benchColumns(n, cardX, cardY int) (x, y []int) {
	r := rand.New(rand.NewSource(42))
	x = make([]int, n)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = r.Intn(cardX)
		y[i] = r.Intn(cardY)
	}
	return x, y
}

func BenchmarkIntersect(b *testing.B) {
	x, y := benchColumns(100_000, 100, 1000)
	px := FromColumn(x, 100)
	py := FromColumn(y, 1000)
	py.Inverted() // pre-build the cached index, as the validators do
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px.Intersect(py)
	}
}

// BenchmarkIntersectInto is one intersection that owns its result,
// with fresh scratch per call.
func BenchmarkIntersectInto(b *testing.B) {
	x, y := benchColumns(100_000, 100, 1000)
	px := FromColumn(x, 100)
	inv := FromColumn(y, 1000).Inverted()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		new(Intersector).IntersectInto(nil, px, inv)
	}
}

// BenchmarkIntersectorReuse is IntersectInto with the scratch and two
// alternating result Buffers reused across candidates — the shape of
// HyFD's candidate validation. Steady state allocates only the result
// header.
func BenchmarkIntersectorReuse(b *testing.B) {
	x, y := benchColumns(100_000, 100, 1000)
	px := FromColumn(x, 100)
	inv := FromColumn(y, 1000).Inverted()
	var ix Intersector
	var bufs [2]Buffer
	ix.IntersectInto(&bufs[0], px, inv) // warm the buckets
	ix.IntersectInto(&bufs[1], px, inv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.IntersectInto(&bufs[i&1], px, inv)
	}
}

func BenchmarkRefines(b *testing.B) {
	x, y := benchColumns(100_000, 100, 1000)
	px := FromColumn(x, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px.Refines(y)
	}
}

func BenchmarkFirstViolation(b *testing.B) {
	x, y := benchColumns(100_000, 100, 1000)
	px := FromColumn(x, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		px.FirstViolation(y)
	}
}

func BenchmarkFromColumn(b *testing.B) {
	x, _ := benchColumns(100_000, 1000, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromColumn(x, 1000)
	}
}
