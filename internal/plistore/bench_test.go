package plistore

import (
	"math/rand"
	"testing"

	"normalize/internal/budget"
	"normalize/internal/pli"
)

// benchColumns builds a deterministic working set: n dictionary-encoded
// columns of `rows` rows each, cardinalities spread from near-constant
// (long runs, compresses hard) to near-distinct (short clusters).
func benchColumns(n, rows int) ([][]int, []int) {
	r := rand.New(rand.NewSource(7))
	cols := make([][]int, n)
	cards := make([]int, n)
	for i := range cols {
		cards[i] = 2 << uint(i%10)
		cols[i] = randColumn(r, rows, cards[i])
	}
	return cols, cards
}

// BenchmarkPLIStore measures the store's three hot paths in isolation:
// compressing a partition in (delta-varint encode), materializing it
// back out (decode into clusters), and a full pressure cycle where a
// tight ceiling forces spill-to-disk and reload on re-acquire. The
// compress/decode pair bounds the overhead a governed run pays even
// when nothing ever spills; the cycle bounds the cost when it does.
func BenchmarkPLIStore(b *testing.B) {
	const rows = 8192
	cols, cards := benchColumns(16, rows)

	b.Run("compress", func(b *testing.B) {
		s := New(unbounded(), b.TempDir())
		defer s.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h, err := s.PutColumn(cols[i%len(cols)], cards[i%len(cols)])
			if err != nil {
				b.Fatal(err)
			}
			_ = h
		}
	})

	b.Run("decode", func(b *testing.B) {
		s := New(unbounded(), b.TempDir())
		defer s.Close()
		handles := make([]*Handle, len(cols))
		for i := range cols {
			h, err := s.PutColumn(cols[i], cards[i])
			if err != nil {
				b.Fatal(err)
			}
			handles[i] = h
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := handles[i%len(handles)]
			h.dec.Store(nil) // drop the cache: every Acquire decodes
			p, err := h.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			_ = p
			h.Release()
		}
	})

	b.Run("intersect-acquired", func(b *testing.B) {
		s := New(unbounded(), b.TempDir())
		defer s.Close()
		ha, err := s.PutColumn(cols[0], cards[0])
		if err != nil {
			b.Fatal(err)
		}
		hb, err := s.PutColumn(cols[1], cards[1])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pa, err := ha.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			pb, err := hb.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			_ = pa.Intersect(pb)
			hb.Release()
			ha.Release()
		}
	})

	b.Run("spill-reload-cycle", func(b *testing.B) {
		// Intersected partitions have no columnar codes to recompute
		// from, so under a ceiling below their compressed resting
		// footprint the clock must push segments to disk — every round
		// of acquires reloads what the previous round evicted.
		tr := budget.NewTracker(0, 128<<10)
		s := New(tr, b.TempDir())
		defer s.Close()
		handles := make([]*Handle, len(cols))
		for i := range cols {
			p := pli.FromColumn(cols[i], cards[i]).Intersect(
				pli.FromColumn(cols[(i+1)%len(cols)], cards[(i+1)%len(cols)]))
			h, err := s.Put(p)
			if err != nil {
				b.Fatal(err)
			}
			handles[i] = h
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := handles[i%len(handles)]
			p, err := h.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			_ = p
			h.Release()
		}
		b.StopTimer()
		st := s.Stats()
		b.ReportMetric(float64(st.SpillEvents)/float64(b.N), "spills/op")
		b.ReportMetric(float64(st.Reloads)/float64(b.N), "reloads/op")
	})
}
