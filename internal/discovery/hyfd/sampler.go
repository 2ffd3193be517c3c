package hyfd

import (
	"context"
	"fmt"
	"math"
	"slices"

	"normalize/internal/bitset"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// sampler produces non-FD evidence by comparing record pairs that are
// likely to agree on many attributes: records within the same PLI
// cluster. Clusters are ordered by overall record similarity (a global
// lexicographic sort of the records), and a record is compared with
// its neighbour at a window distance. Every compared pair yields an
// agree set; duplicates are suppressed.
//
// The window is per attribute, as in HyFD's sampling phase. A round
// compares every cluster of every active attribute at that attribute's
// window and then widens it by one. An attribute stays active while
// its last window found new agree sets at an efficiency (new sets per
// compared pair) of at least the threshold and its largest cluster
// still has a pair at the next window. A switch back from validation
// halves the threshold and re-admits the attributes whose last
// efficiency meets it. Long, low-cardinality columns compare many
// pairs for few new sets, so they stop after one window, while
// attributes that keep finding evidence go on.
//
// The records are copied once into a row-major matrix in that sorted
// (rank) order, and every cluster is kept as ascending rank positions,
// so a comparison reads two contiguous rows. A worker slot compares a
// whole cluster into reused word buffers and keeps only the cluster's
// distinct agree sets, in first-occurrence order; the commit drops the
// sets an earlier cluster produced, through the run-wide table, and
// emits the rest. That is the order of the plain pair-by-pair sweep
// (attribute, cluster, then pair order), so the emitted sequence, and
// with it every attribute's efficiency, is the same at every worker
// count.
type sampler struct {
	n         int           // attributes
	nw        int           // words per agree set
	rows      []int32       // codes in rank order: rank p is rows[p*n : p*n+n]
	members   []int32       // every cluster's rank positions, ascending per cluster
	bounds    []int         // cluster c is members[bounds[c]:bounds[c+1]]
	attrs     []attrWindow  // per attribute: its clusters, window and efficiency
	threshold float64       // efficiency below which an attribute drops out
	seen      sampleSlot    // the run's distinct agree sets; its stamp never advances
	pairs     int64         // record pairs compared, summed at the commit
	slots     []*sampleSlot // per-worker comparison scratch
}

// attrWindow is one attribute's sampling state. The attribute's
// clusters are lo..hi-1, contiguous because newSampler lays them out
// attribute by attribute.
type attrWindow struct {
	lo, hi     int
	window     int // next window distance to run (1-based)
	maxCluster int
	active     bool
	efficiency float64 // new agree sets per pair compared at its last window
}

// sampleTask is one cluster of a round, compared at its attribute's
// window.
type sampleTask struct{ cluster, attr int }

// minEfficiency is the initial threshold: an attribute whose window
// finds fewer new agree sets than one per hundred compared pairs stops
// widening it until a switch lowers the bar.
const minEfficiency = 0.01

func newSampler(enc *relation.Encoded, handles []*plistore.Handle) (*sampler, error) {
	if enc.NumRows > math.MaxInt32 {
		return nil, fmt.Errorf("hyfd: sampling supports at most %d rows, got %d", math.MaxInt32, enc.NumRows)
	}
	n := len(handles)
	s := &sampler{
		n:         n,
		nw:        (n + 63) / 64,
		attrs:     make([]attrWindow, n),
		threshold: minEfficiency,
		seen:      sampleSlot{stamp: 1},
	}
	// Rank rows by a lexicographic sort of their full code vectors so
	// that neighbours inside a cluster are similar on other attributes
	// too, which makes their agree sets large and informative: a
	// least-significant-column-first radix sort, one stable counting
	// pass per column.
	order := make([]int32, enc.NumRows)
	for i := range order {
		order[i] = int32(i)
	}
	tmp := make([]int32, enc.NumRows)
	var count []int
	for a := n - 1; a >= 0; a-- {
		col := enc.Columns[a]
		hi := 0
		for _, c := range col {
			hi = max(hi, c)
		}
		count = append(count[:0], make([]int, hi+2)...)
		for _, r := range order {
			count[col[r]+1]++
		}
		for c := 1; c < len(count); c++ {
			count[c] += count[c-1]
		}
		for _, r := range order {
			tmp[count[col[r]]] = r
			count[col[r]]++
		}
		order, tmp = tmp, order
	}
	s.rows = make([]int32, enc.NumRows*n)
	for pos, r := range order {
		row := s.rows[pos*n : pos*n+n]
		for a := range row {
			row[a] = int32(enc.Columns[a][r])
		}
	}

	// Each partition is only pinned while its clusters are copied. A
	// cluster's members are placed by a walk over the rows in rank
	// order, so they come out ascending without a sort.
	size, nclusters := 0, 0
	for _, h := range handles {
		size += h.Size()
		nclusters += h.NumClusters()
	}
	s.members = make([]int32, size)
	s.bounds = make([]int, 1, nclusters+1)
	clusterOf := tmp // row → cluster of the current partition, or -1
	var next []int   // cluster → its next free member slot
	for a, h := range handles {
		p, err := h.Acquire()
		if err != nil {
			return nil, err
		}
		for i := range clusterOf {
			clusterOf[i] = -1
		}
		next = next[:0]
		at := &s.attrs[a]
		at.lo, at.window = len(s.bounds)-1, 1
		for c, cluster := range p.Clusters() {
			for _, r := range cluster {
				clusterOf[r] = int32(c)
			}
			next = append(next, s.bounds[len(s.bounds)-1])
			s.bounds = append(s.bounds, next[c]+len(cluster))
			at.maxCluster = max(at.maxCluster, len(cluster))
		}
		at.hi = len(s.bounds) - 1
		at.active = at.window < at.maxCluster
		h.Release()
		for pos, r := range order {
			if c := clusterOf[r]; c >= 0 {
				s.members[next[c]] = int32(pos)
				next[c]++
			}
		}
	}
	return s, nil
}

// hasMore reports whether some attribute is still active.
func (s *sampler) hasMore() bool {
	for _, at := range s.attrs {
		if at.active {
			return true
		}
	}
	return false
}

// lowerThreshold is the sampler's side of a switch from validation: it
// halves the threshold and re-admits every attribute whose last
// efficiency meets the new one and whose largest cluster still has a
// pair at its next window.
func (s *sampler) lowerThreshold() {
	s.threshold /= 2
	for a := range s.attrs {
		at := &s.attrs[a]
		if at.efficiency >= s.threshold && at.window < at.maxCluster {
			at.active = true
		}
	}
}

func (s *sampler) cluster(c int) []int32 { return s.members[s.bounds[c]:s.bounds[c+1]] }

// run executes one round: every cluster of every active attribute at
// that attribute's window, calling emit for every agree set not seen
// before. Each cluster is compared on one slot and then committed, in
// attribute and cluster order; the commit polls ctx first, so a
// cancellation stops the round at the end of the cluster being
// emitted. With a pool the comparisons run on the workers, and the
// pool's ordered commit emits while later clusters are compared;
// without one the same steps run inline on one slot. After the round
// each attribute that ran widens its window, and drops out when its
// efficiency falls below the threshold or its largest cluster has no
// pair at the next window.
func (s *sampler) run(ctx context.Context, pool *wsteal.Pool, emit func(*bitset.Set) error) error {
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	for len(s.slots) < workers {
		s.slots = append(s.slots, &sampleSlot{agree: make([]uint64, s.nw)})
	}
	var tasks []sampleTask // the round's clusters, in commit order
	for a, at := range s.attrs {
		if !at.active {
			continue
		}
		for c := at.lo; c < at.hi; c++ {
			if len(s.cluster(c)) > at.window {
				tasks = append(tasks, sampleTask{cluster: c, attr: a})
			}
		}
	}
	compared := make([]int64, s.n) // this round's pairs per attribute
	found := make([]int64, s.n)    // this round's new agree sets per attribute
	commit := func(t sampleTask, sets []uint64) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		pairs := int64(len(s.cluster(t.cluster)) - s.attrs[t.attr].window)
		compared[t.attr] += pairs
		s.pairs += pairs
		for off := 0; off < len(sets); off += s.nw {
			words := sets[off : off+s.nw]
			if !s.seen.add(words) {
				continue
			}
			found[t.attr]++
			if err := emit(bitset.FromWords(s.n, words)); err != nil {
				return err
			}
		}
		return nil
	}
	compare := func(t sampleTask, sl *sampleSlot) []uint64 {
		return sl.compare(s, s.cluster(t.cluster), s.attrs[t.attr].window)
	}
	var err error
	if pool == nil || len(tasks) < 2 {
		for _, t := range tasks {
			if err = commit(t, compare(t, s.slots[0])); err != nil {
				break
			}
		}
	} else {
		perCluster := make([][]uint64, len(tasks))
		err = pool.Run(ctx, "hyfd sampling", len(tasks), func(i, slot int) error {
			perCluster[i] = slices.Clone(compare(tasks[i], s.slots[slot]))
			return nil
		}, func(i int) error {
			sets := perCluster[i]
			perCluster[i] = nil
			return commit(tasks[i], sets)
		})
	}
	if err != nil {
		return err
	}
	for a := range s.attrs {
		at := &s.attrs[a]
		if !at.active {
			continue
		}
		at.efficiency = float64(found[a]) / float64(compared[a])
		at.window++
		at.active = at.efficiency >= s.threshold && at.window < at.maxCluster
	}
	return nil
}

// sampleSlot is one worker's comparison scratch: the current pair's
// agree set, and the current cluster's distinct agree sets (nw words
// each, in first-occurrence order), found through an open-addressing
// table. A table entry counts only under the stamp of the cluster that
// wrote it, so starting a cluster clears the table in O(1). The
// sampler's run-wide table is a sampleSlot that never compares: its
// stamp stays 1, so its sets are every agree set the run emitted.
type sampleSlot struct {
	agree []uint64
	sets  []uint64
	table []dedupEntry
	stamp uint32
}

type dedupEntry struct {
	stamp uint32 // the cluster that wrote the entry
	set   uint32 // the entry's set is sets[set*nw : set*nw+nw]
}

// compare returns the distinct agree sets of the pairs at distance w in
// cluster, in first-occurrence order. The result is the slot's own
// buffer, valid until the slot's next compare.
func (sl *sampleSlot) compare(s *sampler, cluster []int32, w int) []uint64 {
	sl.sets = sl.sets[:0]
	if sl.stamp++; sl.stamp == 0 {
		clear(sl.table)
		sl.stamp = 1
	}
	n := s.n
	for j := 0; j+w < len(cluster); j++ {
		p, q := int(cluster[j])*n, int(cluster[j+w])*n
		agreeWords(sl.agree, s.rows[p:p+n], s.rows[q:q+n])
		sl.add(sl.agree)
	}
	return sl.sets
}

// agreeWords writes the attributes on which rows x and y agree into
// dst, attribute a at bit a%64 of dst[a/64].
func agreeWords(dst []uint64, x, y []int32) {
	for i := range dst {
		lo, hi := i*64, min(i*64+64, len(x))
		xs, ys := x[lo:hi], y[lo:hi]
		var word uint64
		for a, v := range xs {
			if v == ys[a] {
				word |= 1 << uint(a)
			}
		}
		dst[i] = word
	}
}

// add appends set to the slot's distinct sets unless it is already
// there, and reports whether it was new.
func (sl *sampleSlot) add(set []uint64) bool {
	nw := len(set)
	count := len(sl.sets) / nw
	if 2*(count+1) > len(sl.table) {
		sl.grow(nw)
	}
	mask := len(sl.table) - 1
	for i := int(hashWords(set)) & mask; ; i = (i + 1) & mask {
		e := &sl.table[i]
		if e.stamp != sl.stamp {
			*e = dedupEntry{stamp: sl.stamp, set: uint32(count)}
			sl.sets = append(sl.sets, set...)
			return true
		}
		if off := int(e.set) * nw; slices.Equal(sl.sets[off:off+nw], set) {
			return false
		}
	}
}

// grow doubles the table and re-inserts the current cluster's sets.
func (sl *sampleSlot) grow(nw int) {
	sl.table = make([]dedupEntry, max(64, 2*len(sl.table)))
	mask := len(sl.table) - 1
	for set := 0; set < len(sl.sets)/nw; set++ {
		i := int(hashWords(sl.sets[set*nw:set*nw+nw])) & mask
		for sl.table[i].stamp == sl.stamp {
			i = (i + 1) & mask
		}
		sl.table[i] = dedupEntry{stamp: sl.stamp, set: uint32(set)}
	}
}

func hashWords(words []uint64) uint64 {
	h := uint64(len(words))
	for _, w := range words {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}
