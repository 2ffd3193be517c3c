package plistore

import (
	"errors"
	"sync"
	"sync/atomic"

	"normalize/internal/budget"
	"normalize/internal/observe"
	"normalize/internal/pli"
)

// Compressed-entry lifecycle. A handle's decoded partition is cached
// independently of this state and dropped first under pressure.
const (
	stateHot     = iota // compressed segments resident in memory
	stateSpilled        // segments on disk in the store's spill file
	stateDropped        // compressed form discarded; recompute from codes
)

// maxFreePerClass bounds how many spare buffers the size-class
// freelist retains per class; beyond that, eviction lets the GC have
// them.
const maxFreePerClass = 8

// Store owns the partitions discovery retains. Its regime follows its
// tracker. Governed (the tracker has a memory ceiling), it compresses
// every partition, charges the footprint against the tracker, and
// evicts cold state when a charge would cross the ceiling. Resident
// (no ceiling), it keeps every partition flat and uncompressed,
// charges nothing and registers nothing, so Acquire and Release touch
// no shared state and Stats stays zero. All methods are safe for
// concurrent use by parallel validation workers. The zero store is not
// usable; see New.
type Store struct {
	tr       *budget.Tracker
	dir      string
	governed bool

	mu      sync.Mutex
	entries []*Handle
	hand    int
	sp      *spillFile
	free    [][][]byte // size class → spare segment buffers

	// live is the sum of this store's outstanding tracker charges, so
	// Recharge can re-base them after an external tracker Reset.
	live atomic.Int64

	compressedBytes atomic.Int64
	spillEvents     atomic.Int64
	reloads         atomic.Int64
	recomputes      atomic.Int64
}

// New returns a store over tr, spilling into dir ("" means the OS temp
// dir). It is governed when tr has a memory ceiling and resident
// otherwise, including for a nil tracker; a resident store never
// creates a spill file.
func New(tr *budget.Tracker, dir string) *Store {
	s := &Store{tr: tr, dir: dir, governed: tr.MemLimit() > 0}
	if s.governed {
		// Register eviction as the tracker's memory reclaimer: any
		// charge that would trip the ceiling — the store's own, or an
		// unrelated one like FD-tree growth or decomposition
		// materialization — first displaces cold partitions. Without
		// this, only the store's own charges could trigger eviction and
		// every other charge would fall straight into the degradation
		// ladder.
		tr.SetReclaimer(s.evict)
	}
	return s
}

// Handle is a reference to one partition: O(1) metadata always
// resident, the flat *pli.PLI materialized on demand via Acquire. In a
// resident store the partition is simply held.
type Handle struct {
	st *Store

	numRows   int
	size      int
	nclusters int

	pins atomic.Int64            // acquisitions outstanding; > 0 blocks eviction
	ref  atomic.Bool             // clock second-chance bit, set on every Acquire
	dec  atomic.Pointer[pli.PLI] // cached decoded partition; the partition itself when resident

	mu        sync.Mutex // guards segs and state transitions
	state     int
	segs      []segment
	compBytes int64

	// Recompute source for single-column partitions: the dictionary
	// codes already retained by the plicache substrate, so dropping the
	// compressed form frees bytes without losing the partition. nil for
	// intersected partitions, which can only reload from the spill
	// file.
	codes []int
	card  int
}

// PutColumn builds the single-column partition of a dictionary code
// column. A governed store registers it as recomputable: under
// pressure its compressed form may be dropped entirely and rebuilt
// from codes. codes is retained (not copied) — it is the substrate's
// column, alive for the run anyway.
func (s *Store) PutColumn(codes []int, cardinality int) (*Handle, error) {
	return s.put(pli.FromColumn(codes, cardinality), codes, cardinality)
}

// PutPLI registers an already-built partition together with the code
// column it is the single-column partition of (pli.Extend results on
// the delta path: recomputing FromColumn(codes, card) is guaranteed
// identical).
func (s *Store) PutPLI(p *pli.PLI, codes []int, cardinality int) (*Handle, error) {
	return s.put(p, codes, cardinality)
}

// Put registers an intersected (derived) partition. It has no
// recompute source, so under pressure a governed store spills it to
// the temp file and reloads it from there.
func (s *Store) Put(p *pli.PLI) (*Handle, error) {
	return s.put(p, nil, 0)
}

// put registers p. A resident store only wraps it; a governed one
// compresses, charges and registers it for eviction, keeping p as the
// decoded cache because the caller almost always uses it immediately.
func (s *Store) put(p *pli.PLI, codes []int, card int) (*Handle, error) {
	h := &Handle{st: s, numRows: p.NumRows(), size: p.Size(), nclusters: p.NumClusters()}
	h.dec.Store(p)
	if !s.governed {
		return h, nil
	}
	segs, comp := s.encode(p.Clusters())
	h.state, h.segs, h.compBytes = stateHot, segs, comp
	h.codes, h.card = codes, card
	h.ref.Store(true)
	s.compressedBytes.Add(comp)
	if err := s.grow(comp + h.decodedBytes()); err != nil {
		// Try again without caching the decoded form before giving up
		// and letting the degradation ladder take over.
		h.dec.Store(nil)
		if err2 := s.grow(comp); err2 != nil {
			s.mu.Lock()
			for i := range segs {
				s.putBufLocked(segs[i].buf)
			}
			s.mu.Unlock()
			return nil, err2
		}
	}
	s.mu.Lock()
	s.entries = append(s.entries, h)
	s.mu.Unlock()
	return h, nil
}

// encode compresses clusters into size-classed segments. Buffer
// capacities are powers of two drawn from the store's freelist, and
// the worst-case varint bound per cluster guarantees appends never
// outgrow the chosen class, so buffers round-trip through the freelist
// intact.
func (s *Store) encode(clusters [][]int) ([]segment, int64) {
	var segs []segment
	var comp int64
	var cur []byte
	flush := func() {
		if len(cur) == 0 {
			return
		}
		segs = append(segs, segment{buf: cur, n: len(cur)})
		comp += int64(len(cur))
		cur = nil
	}
	for _, c := range clusters {
		bound := clusterBound(c)
		if cur != nil && len(cur)+bound > cap(cur) {
			flush()
		}
		if cur == nil {
			want := bound
			if want < segTarget {
				want = segTarget
			}
			cur = s.allocBuf(want)[:0]
		}
		cur = appendCluster(cur, c)
	}
	flush()
	return segs, comp
}

// Acquire materializes the partition, pinning it against eviction
// until the matching Release. The pin is taken before the cache probe,
// so a concurrently sweeping evictor either sees the pin or leaves a
// decoded value this acquisition re-decodes — never a freed partition
// in use. A resident store's partition needs no pin.
func (h *Handle) Acquire() (*pli.PLI, error) {
	if !h.st.governed {
		return h.dec.Load(), nil
	}
	h.pins.Add(1)
	h.ref.Store(true)
	if p := h.dec.Load(); p != nil {
		return p, nil
	}
	p, err := h.decode()
	if err != nil {
		h.pins.Add(-1)
		return nil, err
	}
	return p, nil
}

// Release unpins a partition returned by Acquire.
func (h *Handle) Release() {
	if h.st.governed {
		h.pins.Add(-1)
	}
}

// decode rebuilds the flat partition from whichever form survives:
// resident segments, spilled segments (streamed through a scratch
// buffer — the compressed form stays on disk, so an entry spills at
// most once), or the recompute source.
func (h *Handle) decode() (*pli.PLI, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.dec.Load(); p != nil {
		return p, nil
	}
	var p *pli.PLI
	switch h.state {
	case stateDropped:
		h.st.recomputes.Add(1)
		p = pli.FromColumn(h.codes, h.card)
	case stateSpilled:
		h.st.reloads.Add(1)
		maxSeg := 0
		for i := range h.segs {
			if h.segs[i].n > maxSeg {
				maxSeg = h.segs[i].n
			}
		}
		scratch := h.st.allocBuf(maxSeg)
		clusters, _, err := decodeSegments(func(i int) ([]byte, error) {
			b := scratch[:h.segs[i].n]
			if err := h.st.spillRead(b, h.segs[i].off); err != nil {
				return nil, err
			}
			return b, nil
		}, len(h.segs), h.numRows, h.size, h.nclusters)
		s := h.st
		s.mu.Lock()
		s.putBufLocked(scratch)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		p = pli.FromOwnedClusters(h.numRows, h.size, clusters)
	default:
		clusters, _, err := decodeSegments(func(i int) ([]byte, error) {
			return h.segs[i].buf[:h.segs[i].n], nil
		}, len(h.segs), h.numRows, h.size, h.nclusters)
		if err != nil {
			return nil, err
		}
		p = pli.FromOwnedClusters(h.numRows, h.size, clusters)
	}
	if err := h.st.grow(h.decodedBytes()); err != nil {
		return nil, err
	}
	h.dec.Store(p)
	return p, nil
}

// decodedBytes approximates the flat footprint: the shared row slab,
// cluster headers, and — for single-column partitions, whose consumers
// (HyFD) always build the inverted index — the row → cluster
// index.
func (h *Handle) decodedBytes() int64 {
	b := 8*int64(h.size) + 24*int64(h.nclusters) + 96
	if h.codes != nil {
		b += 8 * int64(h.numRows)
	}
	return b
}

// recomputeCost approximates rebuilding a single-column partition from
// its dictionary codes: two counting passes touching 8 bytes per row,
// all memory-bandwidth work.
func (h *Handle) recomputeCost() int64 { return 16 * int64(h.numRows) }

// reloadCost approximates the spill round-trip a drop would avoid: a
// syscall-bound write now plus a pread-and-varint-decode per future
// miss, weighted ~48x per byte over the recompute passes' streaming
// loads. The model drops typical single-column partitions (a full
// column scan beats disk IO) and spills only ultra-compressible ones,
// where reloading a tiny run-length-like blob wins; intersected
// partitions have no recompute source and always spill.
func (h *Handle) reloadCost() int64 { return 48 * h.compBytes }

// O(1) metadata, resident regardless of the partition's state. The
// engines' candidate ordering (most-selective-first) and TANE's key
// pruning read these without materializing anything.

// NumRows returns the row count of the underlying relation.
func (h *Handle) NumRows() int { return h.numRows }

// Size returns the total rows covered by (stripped) clusters.
func (h *Handle) Size() int { return h.size }

// NumClusters returns the number of stripped clusters.
func (h *Handle) NumClusters() int { return h.nclusters }

// Error returns the partition error e(X) = Size − NumClusters.
func (h *Handle) Error() int { return h.size - h.nclusters }

// IsUnique reports whether the partition has no clusters.
func (h *Handle) IsUnique() bool { return h.Size() == 0 }

// grow charges bytes against the tracker. The tracker invokes the
// store's eviction sweep (registered in New) before reporting a memory
// trip, so by the time an error comes back here eviction has already
// failed to free enough: roll the charge back and propagate the trip,
// which the pipeline's degradation ladder handles as before.
func (s *Store) grow(n int64) error {
	s.live.Add(n)
	if err := s.tr.Grow(n); err != nil {
		s.live.Add(-n)
		s.tr.Grow(-n)
		return err
	}
	return nil
}

func (s *Store) shrink(n int64) {
	s.live.Add(-n)
	s.tr.Grow(-n)
}

// evict sweeps a clock hand over the entries until charged memory is
// back under the ceiling, freeing cheapest-first: phase 0 drops
// decoded partitions (pure cache — recoverable from the compressed
// form at decode cost), phase 1 frees compressed segments, dropping
// recomputable entries when recomputing beats a spill round-trip and
// spilling the rest oldest-first in hand order. Pinned entries and
// entries mid-decode (mutex held) are skipped; each entry gets one
// second chance per sweep via its reference bit. Reports whether the
// footprint got back under the limit.
func (s *Store) evict() bool {
	limit := s.tr.MemLimit()
	s.mu.Lock()
	defer s.mu.Unlock()
	for phase := 0; phase < 2 && s.tr.Memory() > limit; phase++ {
		n := len(s.entries)
		if n == 0 {
			break
		}
		for step := 0; step < 2*n && s.tr.Memory() > limit; step++ {
			h := s.entries[s.hand%n]
			s.hand++
			if h.pins.Load() > 0 {
				continue
			}
			if h.ref.CompareAndSwap(true, false) {
				continue // second chance
			}
			if !h.mu.TryLock() {
				continue // mid-decode; not a victim
			}
			if h.pins.Load() > 0 {
				h.mu.Unlock()
				continue
			}
			if h.dec.Load() != nil {
				h.dec.Store(nil)
				s.shrink(h.decodedBytes())
			}
			if phase == 1 && h.state == stateHot {
				if h.codes != nil && h.recomputeCost() <= h.reloadCost() {
					for i := range h.segs {
						s.putBufLocked(h.segs[i].buf)
						h.segs[i].buf = nil
					}
					h.segs = nil
					h.state = stateDropped
					s.shrink(h.compBytes)
				} else if err := s.spillLocked(h); err == nil {
					h.state = stateSpilled
					s.spillEvents.Add(1)
					s.shrink(h.compBytes)
				}
				// On spill error the entry simply stays hot; the sweep
				// moves on and the caller's charge fails if nothing
				// else frees enough.
			}
			h.mu.Unlock()
		}
	}
	return s.tr.Memory() <= limit
}

// spillLocked writes h's segments to the spill file (creating it on
// first use) and releases their buffers. Called with both s.mu and
// h.mu held; the two-pass write-then-commit keeps the entry consistent
// if the disk write fails partway.
func (s *Store) spillLocked(h *Handle) error {
	if s.sp == nil {
		sp, err := newSpillFile(s.dir)
		if err != nil {
			return err
		}
		s.sp = sp
	}
	offs := make([]int64, len(h.segs))
	for i := range h.segs {
		off, err := s.sp.write(h.segs[i].buf[:h.segs[i].n])
		if err != nil {
			return err
		}
		offs[i] = off
	}
	for i := range h.segs {
		h.segs[i].off = offs[i]
		s.putBufLocked(h.segs[i].buf)
		h.segs[i].buf = nil
	}
	return nil
}

// spillRead serves a positional read from the spill file; the pointer
// fetch is under the lock, the pread itself concurrent.
func (s *Store) spillRead(b []byte, off int64) error {
	s.mu.Lock()
	sp := s.sp
	s.mu.Unlock()
	if sp == nil {
		return errors.New("plistore: spill file closed")
	}
	return sp.readInto(b, off)
}

// classFor returns the power-of-two size class (log2) covering n,
// floored at 1 KiB.
func classFor(n int) int {
	c := 10
	for 1<<c < n {
		c++
	}
	return c
}

// allocBuf returns a buffer of the size class covering n, reusing a
// freelist spare when one exists.
func (s *Store) allocBuf(n int) []byte {
	c := classFor(n)
	s.mu.Lock()
	if c < len(s.free) {
		if l := len(s.free[c]); l > 0 {
			b := s.free[c][l-1]
			s.free[c] = s.free[c][:l-1]
			s.mu.Unlock()
			return b
		}
	}
	s.mu.Unlock()
	return make([]byte, 1<<c)
}

// putBufLocked returns a class-sized buffer to the freelist. Called
// with s.mu held; nil-safe.
func (s *Store) putBufLocked(b []byte) {
	if b == nil {
		return
	}
	c := classFor(cap(b))
	if 1<<c != cap(b) {
		return // not class-sized; let the GC have it
	}
	for len(s.free) <= c {
		s.free = append(s.free, nil)
	}
	if len(s.free[c]) < maxFreePerClass {
		s.free[c] = append(s.free[c], b[:cap(b)])
	}
}

// Recharge re-bases the store's outstanding charges onto the tracker
// after an external Reset (the pipeline resets between
// degradation-ladder attempts), so the next attempt still accounts for
// the partitions the store retains.
func (s *Store) Recharge() {
	// A trip here is deliberately ignored: the retained footprint was
	// admitted before the reset, and the next grow will evict.
	s.tr.Grow(s.live.Load())
}

// Close unregisters the reclaimer and removes the spill file. Handles
// must not be acquired after Close — the store's lifetime is the
// pipeline run that owns it. Idempotent.
func (s *Store) Close() {
	s.tr.SetReclaimer(nil)
	s.mu.Lock()
	sp := s.sp
	s.sp = nil
	s.mu.Unlock()
	sp.close()
}

// Stats is a point-in-time snapshot of the store's work counters.
type Stats struct {
	Entries         int
	CompressedBytes int64 // cumulative compressed bytes produced
	SpillEvents     int64 // entries whose segments went to disk
	Reloads         int64 // decodes served from the spill file
	Recomputes      int64 // decodes rebuilt from columnar codes
	Live            int64 // bytes currently charged to the tracker
	ResidentBytes   int64 // what all entries would occupy decoded flat
}

// Stats returns the current counters; all zero for a resident store,
// which compresses and registers nothing.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	n := len(s.entries)
	var resident int64
	for _, h := range s.entries {
		resident += h.decodedBytes()
	}
	s.mu.Unlock()
	return Stats{
		Entries:         n,
		CompressedBytes: s.compressedBytes.Load(),
		SpillEvents:     s.spillEvents.Load(),
		Reloads:         s.reloads.Load(),
		Recomputes:      s.recomputes.Load(),
		Live:            s.live.Load(),
		ResidentBytes:   resident,
	}
}

// FlushCounters reports the store's non-zero counters to an observer
// under the given stage; they surface through SSE, /telemetry, and
// /debug/vars like every other counter. A resident store reports
// nothing.
func (s *Store) FlushCounters(obs observe.Observer, stage observe.Stage) {
	st := s.Stats()
	if st.CompressedBytes > 0 {
		obs.Counter(stage, observe.CounterPLICompressedBytes, st.CompressedBytes)
	}
	if st.SpillEvents > 0 {
		obs.Counter(stage, observe.CounterPLISpillEvents, st.SpillEvents)
	}
	if st.Reloads > 0 {
		obs.Counter(stage, observe.CounterPLIReloads, st.Reloads)
	}
	if st.Recomputes > 0 {
		obs.Counter(stage, observe.CounterPLIRecomputes, st.Recomputes)
	}
	if st.ResidentBytes > 0 {
		obs.Counter(stage, observe.CounterPLIResidentBytes, st.ResidentBytes)
	}
}
