package plistore

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"normalize/internal/budget"
	"normalize/internal/observe"
	"normalize/internal/pli"
)

// unbounded returns a tracker with a ceiling nothing reaches: a store
// over it is governed, so it compresses every partition, but it never
// evicts or spills.
func unbounded() *budget.Tracker { return budget.NewTracker(0, math.MaxInt64) }

// randColumn builds a deterministic dictionary-encoded column.
func randColumn(r *rand.Rand, rows, card int) []int {
	codes := make([]int, rows)
	for i := range codes {
		codes[i] = r.Intn(card)
	}
	return codes
}

// mustAcquire acquires h and compares the materialized partition
// against want, cluster for cluster, row for row.
func mustAcquire(t *testing.T, h *Handle, want *pli.PLI) {
	t.Helper()
	got, err := h.Acquire()
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer h.Release()
	if got.NumRows() != want.NumRows() || got.Size() != want.Size() || got.NumClusters() != want.NumClusters() {
		t.Fatalf("shape mismatch: got %d/%d/%d rows/size/clusters, want %d/%d/%d",
			got.NumRows(), got.Size(), got.NumClusters(), want.NumRows(), want.Size(), want.NumClusters())
	}
	if want.NumClusters() > 0 && !reflect.DeepEqual(got.Clusters(), want.Clusters()) {
		t.Fatalf("clusters differ:\ngot  %v\nwant %v", got.Clusters(), want.Clusters())
	}
}

// TestRoundTrip: compress-and-decode is the identity for single-column
// and intersected partitions, with no eviction in play.
func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := New(unbounded(), t.TempDir())
	defer s.Close()
	for trial := 0; trial < 20; trial++ {
		rows, card := 1+r.Intn(3000), 1+r.Intn(40)
		codes := randColumn(r, rows, card)
		want := pli.FromColumn(codes, card)
		h, err := s.PutColumn(codes, card)
		if err != nil {
			t.Fatal(err)
		}
		h.dec.Store(nil) // force the decode path
		mustAcquire(t, h, want)

		codes2 := randColumn(r, rows, 1+r.Intn(6))
		inter := want.Intersect(pli.FromColumn(codes2, 6))
		hi, err := s.Put(inter)
		if err != nil {
			t.Fatal(err)
		}
		hi.dec.Store(nil)
		mustAcquire(t, hi, inter)
	}
}

// TestMetadataResident: O(1) metadata must answer without
// materializing, and match the flat partition's.
func TestMetadataResident(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := New(unbounded(), t.TempDir())
	defer s.Close()
	codes := randColumn(r, 500, 7)
	want := pli.FromColumn(codes, 7)
	h, err := s.PutColumn(codes, 7)
	if err != nil {
		t.Fatal(err)
	}
	h.dec.Store(nil)
	if h.NumRows() != want.NumRows() || h.Size() != want.Size() ||
		h.NumClusters() != want.NumClusters() || h.Error() != want.Error() {
		t.Fatalf("metadata mismatch: %d/%d/%d/%d vs %d/%d/%d/%d",
			h.NumRows(), h.Size(), h.NumClusters(), h.Error(),
			want.NumRows(), want.Size(), want.NumClusters(), want.Error())
	}
	if h.dec.Load() != nil {
		t.Fatal("metadata accessors materialized the partition")
	}
}

// TestResidentHandle: a store without a memory ceiling is resident —
// Acquire hands back the partition that was put, and the store neither
// compresses nor registers anything, so its stats stay zero and it
// reports no counter.
func TestResidentHandle(t *testing.T) {
	tr := budget.NewTracker(10, 0) // an FD ceiling alone governs no memory
	s := New(tr, t.TempDir())
	defer s.Close()
	p := pli.FromColumn([]int{0, 0, 1, 1, 2}, 3)
	h, err := s.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	codes := []int{0, 1, 0, 1, 1, 2}
	hc, err := s.PutColumn(codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatal("resident handle did not return the partition that was put")
	}
	h.Release()
	if h.NumRows() != p.NumRows() || h.Error() != p.Error() ||
		h.Size() != p.Size() || h.NumClusters() != p.NumClusters() {
		t.Fatal("resident metadata mismatch")
	}
	mustAcquire(t, hc, pli.FromColumn(codes, 3))
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("resident store stats = %+v, want zero", st)
	}
	if tr.Memory() != 0 {
		t.Fatalf("resident store charged %d bytes", tr.Memory())
	}
	var counters []string
	s.FlushCounters(observe.Func{OnCounter: func(_ observe.Stage, name string, _ int64) {
		counters = append(counters, name)
	}}, observe.Discovery)
	if len(counters) > 0 {
		t.Fatalf("resident store reported counters %v", counters)
	}
}

// TestEvictionSpillAndReload: pushing the store past the ceiling must
// spill intersected partitions (no recompute source) to the temp file,
// and re-acquiring them must reload losslessly. Closing removes the
// spill file.
func TestEvictionSpillAndReload(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	// The ceiling sits below even the compressed resting footprint, so
	// dropping decoded caches (eviction phase 0) cannot be enough and
	// the sweep must spill compressed segments (phase 1).
	tr := budget.NewTracker(0, 24<<10)
	s := New(tr, dir)

	var handles []*Handle
	var wants []*pli.PLI
	for i := 0; i < 12; i++ {
		codes := randColumn(r, 2000, 5)
		p := pli.FromColumn(codes, 5)
		h, err := s.Put(p) // intersected: spill is the only cold form
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		handles = append(handles, h)
		wants = append(wants, p)
	}
	if got := s.Stats().SpillEvents; got == 0 {
		t.Fatalf("no spills after overcommitting a %d-byte ceiling (live %d)", 24<<10, s.Stats().Live)
	}
	for i, h := range handles {
		mustAcquire(t, h, wants[i])
	}
	if got := s.Stats().Reloads; got == 0 {
		t.Fatal("no reloads after re-acquiring spilled partitions")
	}
	if tr.Memory() > tr.MemLimit() {
		t.Fatalf("resting memory %d above the %d ceiling", tr.Memory(), tr.MemLimit())
	}

	s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("spill file left behind after Close: %s", e.Name())
	}
}

// TestEvictionRecompute: single-column partitions whose recompute beats
// the spill round-trip are dropped entirely and rebuilt from codes.
func TestEvictionRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	tr := budget.NewTracker(0, 48<<10)
	s := New(tr, t.TempDir())
	defer s.Close()

	var handles []*Handle
	var columns [][]int
	for i := 0; i < 10; i++ {
		codes := randColumn(r, 2000, 4)
		h, err := s.PutColumn(codes, 4)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		handles = append(handles, h)
		columns = append(columns, codes)
	}
	for i, h := range handles {
		mustAcquire(t, h, pli.FromColumn(columns[i], 4))
	}
	if got := s.Stats().Recomputes; got == 0 {
		t.Fatalf("no recomputes; stats = %+v", s.Stats())
	}
}

// TestPinBlocksEviction: a pinned partition survives an eviction sweep
// untouched, even when that makes the sweep fail.
func TestPinBlocksEviction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tr := budget.NewTracker(0, 32<<10)
	s := New(tr, t.TempDir())
	defer s.Close()

	codes := randColumn(r, 1500, 3)
	h, err := s.PutColumn(codes, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Acquire() // pin
	if err != nil {
		t.Fatal(err)
	}
	// A foreign charge far beyond the ceiling: the reclaimer runs and
	// must skip the pinned entry, so the charge fails...
	if err := tr.Grow(1 << 20); err == nil {
		t.Fatal("foreign charge beyond the ceiling succeeded with everything pinned")
	}
	tr.Grow(-1 << 20)
	// ...and the pinned partition is still the cached one.
	if got := h.dec.Load(); got != p {
		t.Fatal("pinned partition was evicted mid-hold")
	}
	h.Release()
}

// TestReclaimerDisplacesForeignCharges is the contract that makes
// -max-memory govern the whole pipeline: a charge unrelated to the
// store (FD-tree growth, decomposition materialization) crossing the
// ceiling evicts cold partitions instead of tripping.
func TestReclaimerDisplacesForeignCharges(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	tr := budget.NewTracker(0, 256<<10)
	s := New(tr, t.TempDir())
	defer s.Close()

	var handles []*Handle
	var wants []*pli.PLI
	for i := 0; i < 8; i++ {
		codes := randColumn(r, 2000, 5)
		p := pli.FromColumn(codes, 5)
		h, err := s.Put(p)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		wants = append(wants, p)
	}
	before := s.Stats().Live
	if before == 0 {
		t.Fatal("store holds no charges; the foreign charge below would prove nothing")
	}
	// Fill the remaining headroom and then some: only evicting store
	// state can admit this charge.
	foreign := tr.MemLimit() - tr.Memory() + before/2
	if err := tr.Grow(foreign); err != nil {
		t.Fatalf("foreign charge was not absorbed by eviction: %v (live %d)", err, s.Stats().Live)
	}
	if got := s.Stats().Live; got >= before {
		t.Fatalf("store live %d did not shrink from %d", got, before)
	}
	// Evicted partitions still round-trip.
	for i, h := range handles {
		mustAcquire(t, h, wants[i])
	}
}

// TestRecharge: after an external tracker reset (the pipeline's
// degradation ladder does this between attempts), Recharge re-bases the
// store's outstanding charges.
func TestRecharge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tr := budget.NewTracker(0, 1<<20)
	s := New(tr, t.TempDir())
	defer s.Close()
	for i := 0; i < 4; i++ {
		if _, err := s.PutColumn(randColumn(r, 1000, 6), 6); err != nil {
			t.Fatal(err)
		}
	}
	live := s.Stats().Live
	if live == 0 {
		t.Fatal("no live charges")
	}
	tr.Reset()
	if tr.Memory() != 0 {
		t.Fatal("reset did not zero the tracker")
	}
	s.Recharge()
	if got := tr.Memory(); got != live {
		t.Fatalf("recharged memory = %d, want %d", got, live)
	}
}

// TestFreelistReuse: segment buffers released by drop/spill come back
// out of the size-class freelist instead of being reallocated.
func TestFreelistReuse(t *testing.T) {
	s := New(unbounded(), t.TempDir())
	defer s.Close()
	b := s.allocBuf(1 << 12)
	if cap(b) != 1<<12 {
		t.Fatalf("allocBuf(4096) cap = %d, want 4096", cap(b))
	}
	s.mu.Lock()
	s.putBufLocked(b)
	s.mu.Unlock()
	if got := s.allocBuf(3 << 10); cap(got) != 1<<12 || &got[0] != &b[0] {
		t.Fatal("freelist spare was not reused for a same-class request")
	}
}

// FuzzPLIRoundTrip is the differential contract of the store: for
// arbitrary column contents, the store's round-trip of the
// single-column partition, an Extend of its prefix, and an intersected
// partition must equal the flat pli package's results — held flat by a
// resident store, resting compressed in memory, and after a forced
// spill under a tiny budget.
func FuzzPLIRoundTrip(f *testing.F) {
	f.Add([]byte("abcabc"), uint16(64), uint8(3))
	f.Add([]byte{0, 0, 0, 0}, uint16(9), uint8(1))
	f.Add([]byte("the quick brown fox"), uint16(500), uint8(12))
	f.Add([]byte{255, 1, 255, 2, 255, 3}, uint16(1000), uint8(250))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rows uint16, cardIn uint8) {
		card := int(cardIn) + 1
		codes := make([]int, rows)
		for i := range codes {
			if len(data) > 0 {
				codes[i] = int(data[i%len(data)]) % card
			}
		}
		want := pli.FromColumn(codes, card)

		// Prefix + Extend, the delta-path shape: the extended partition
		// is registered with its full column as recompute source.
		base := pli.FromColumn(codes[:len(codes)/2], card)
		wantExt := pli.Extend(base, codes, len(codes)/2, card)

		// A second derived column for the intersection.
		codes2 := make([]int, rows)
		for i := range codes2 {
			if len(data) > 0 {
				codes2[i] = int(data[(i*7+3)%len(data)]) % 4
			}
		}
		wantInter := want.Intersect(pli.FromColumn(codes2, 4))

		check := func(s *Store, forceEvict bool) {
			governed := s.tr.MemLimit() > 0
			h, err := s.PutColumn(codes, card)
			if err != nil {
				t.Fatalf("PutColumn: %v", err)
			}
			he, err := s.PutPLI(wantExt, codes, card)
			if err != nil {
				t.Fatalf("PutPLI: %v", err)
			}
			hi, err := s.Put(wantInter)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if forceEvict {
				// A foreign charge the size of the whole ceiling keeps the
				// sweep over the limit no matter what it frees, so every
				// unpinned entry ends dropped or spilled.
				s.tr.Grow(s.tr.MemLimit())
				s.tr.Grow(-s.tr.MemLimit())
			}
			for _, c := range []struct {
				h    *Handle
				want *pli.PLI
			}{{h, want}, {he, wantExt}, {hi, wantInter}} {
				if governed {
					c.h.dec.Store(nil) // force the decode path
				}
				got, err := c.h.Acquire()
				if err != nil {
					t.Fatalf("Acquire: %v", err)
				}
				if got.NumRows() != c.want.NumRows() || got.Size() != c.want.Size() ||
					got.NumClusters() != c.want.NumClusters() ||
					(got.NumClusters() > 0 && !reflect.DeepEqual(got.Clusters(), c.want.Clusters())) {
					t.Fatalf("round-trip mismatch:\ngot  %v (%d rows, size %d)\nwant %v (%d rows, size %d)",
						got.Clusters(), got.NumRows(), got.Size(),
						c.want.Clusters(), c.want.NumRows(), c.want.Size())
				}
				c.h.Release()
			}
		}

		// Held flat by a resident store: nothing compressed or
		// registered.
		resident := New(nil, t.TempDir())
		check(resident, false)
		if st := resident.Stats(); st != (Stats{}) {
			t.Fatalf("resident store stats = %+v, want zero", st)
		}
		resident.Close()

		// Resting compressed in memory, under a ceiling nothing reaches.
		rest := New(unbounded(), t.TempDir())
		check(rest, false)
		rest.Close()

		// Under a ceiling, with a full eviction sweep forced between the
		// puts and the reads: the spill/recompute paths must round-trip
		// identically.
		tr := budget.NewTracker(0, 8<<20)
		tight := New(tr, t.TempDir())
		check(tight, true)
		tight.Close()
	})
}
