// Package pli implements position list indices, also known as stripped
// partitions: for an attribute (set), the PLI lists the clusters of row
// indices that share the same value (combination). Clusters of size one
// are stripped, because they can never witness or violate a functional
// dependency.
//
// PLIs are the core index of partition-based dependency discovery: TANE
// refines them level-wise, HyFD validates FD candidates with them, and
// the UCC discovery detects keys as attribute sets with empty PLIs.
//
// The candidate-validation loops of those algorithms intersect PLIs
// millions of times, so the type is built for that hot path: Size is
// computed once at construction, the inverted (row → cluster) index is
// built lazily and cached on the PLI (safe for concurrent readers),
// Intersect probes the smaller operand into the larger one's cached
// index, and an Intersector carries reusable scratch buffers so
// level-wise validation allocates nothing per candidate beyond the
// result clusters themselves.
package pli

import "sync"

// PLI is a stripped partition over the rows of one relation instance.
type PLI struct {
	numRows  int
	size     int // total rows covered by clusters, fixed at construction
	clusters [][]int

	invOnce sync.Once
	inv     []int // cached row → cluster-id index, built lazily
}

// FromColumn builds the PLI of a dictionary-encoded column. All
// clusters are carved from one shared slab (two counting passes), so
// the construction does O(1) allocations regardless of cardinality.
func FromColumn(codes []int, cardinality int) *PLI {
	counts := make([]int, cardinality)
	for _, code := range codes {
		counts[code]++
	}
	total, nclusters := 0, 0
	for _, c := range counts {
		if c >= 2 {
			total += c
			nclusters++
		}
	}
	p := &PLI{numRows: len(codes), size: total}
	if nclusters == 0 {
		return p
	}
	// Repurpose counts as per-code write cursors into the slab; codes
	// whose cluster was stripped get a negative cursor.
	slab := make([]int, total)
	p.clusters = make([][]int, 0, nclusters)
	off := 0
	for code, c := range counts {
		if c >= 2 {
			p.clusters = append(p.clusters, slab[off:off+c:off+c])
			counts[code] = off
			off += c
		} else {
			counts[code] = -1
		}
	}
	for row, code := range codes {
		if cur := counts[code]; cur >= 0 {
			slab[cur] = row
			counts[code] = cur + 1
		}
	}
	return p
}

// FromClusters builds a PLI directly; singleton clusters are stripped.
// Intended for tests and synthetic partitions.
func FromClusters(numRows int, clusters [][]int) *PLI {
	p := &PLI{numRows: numRows}
	for _, c := range clusters {
		if len(c) >= 2 {
			cp := make([]int, len(c))
			copy(cp, c)
			p.clusters = append(p.clusters, cp)
			p.size += len(cp)
		}
	}
	return p
}

// FromOwnedClusters builds a PLI that takes ownership of clusters
// without copying or stripping: the caller guarantees that no cluster
// is a singleton and that size equals the sum of the cluster lengths.
// The compressed PLI store's decoder uses it to rebuild a partition
// from its delta-varint segments into a freshly carved slab.
func FromOwnedClusters(numRows, size int, clusters [][]int) *PLI {
	return &PLI{numRows: numRows, size: size, clusters: clusters}
}

// Extend builds the PLI of a dictionary-encoded column that grew by
// appended rows, reusing the base PLI instead of regrouping the whole
// column. codes is the full extended column, base is the PLI of its
// prefix codes[:baseRows] (with unchanged code assignments, the
// guarantee of Columnar.Append). Clusters untouched by the delta are
// shared with base — PLIs are immutable, so sharing is safe — and only
// clusters whose code appears in new rows are copied and grown. The
// result is identical to FromColumn(codes, cardinality): clusters in
// ascending code order, rows ascending within each cluster.
func Extend(base *PLI, codes []int, baseRows, cardinality int) *PLI {
	total := len(codes)
	if total == baseRows {
		return base
	}
	byCode := make([][]int, cardinality)
	for _, cl := range base.clusters {
		byCode[codes[cl[0]]] = cl
	}
	appended := make([][]int, cardinality)
	uncovered := false
	for row := baseRows; row < total; row++ {
		code := codes[row]
		appended[code] = append(appended[code], row)
		if byCode[code] == nil {
			uncovered = true
		}
	}
	// A touched code without a base cluster had at most one base row
	// (it was stripped as a singleton); one prefix scan recovers them.
	var single []int
	if uncovered {
		single = make([]int, cardinality)
		for i := range single {
			single[i] = -1
		}
		for row := 0; row < baseRows; row++ {
			if code := codes[row]; appended[code] != nil && byCode[code] == nil {
				single[code] = row
			}
		}
	}
	p := &PLI{numRows: total}
	for code := 0; code < cardinality; code++ {
		baseCl, add := byCode[code], appended[code]
		if add == nil {
			if baseCl != nil {
				p.clusters = append(p.clusters, baseCl)
				p.size += len(baseCl)
			}
			continue
		}
		var g []int
		switch {
		case baseCl != nil:
			g = append(make([]int, 0, len(baseCl)+len(add)), baseCl...)
		case single != nil && single[code] >= 0:
			g = append(make([]int, 0, 1+len(add)), single[code])
		default:
			g = make([]int, 0, len(add))
		}
		g = append(g, add...)
		if len(g) >= 2 {
			p.clusters = append(p.clusters, g)
			p.size += len(g)
		}
	}
	return p
}

// NumRows returns the number of rows of the underlying relation.
func (p *PLI) NumRows() int { return p.numRows }

// NumClusters returns the number of (stripped) clusters.
func (p *PLI) NumClusters() int { return len(p.clusters) }

// Clusters exposes the clusters; callers must not modify them.
func (p *PLI) Clusters() [][]int { return p.clusters }

// Size returns the total number of rows covered by clusters. The sum is
// fixed at construction, so the call is O(1).
func (p *PLI) Size() int { return p.size }

// IsUnique reports whether the partition has no cluster, i.e. the
// attribute set is a unique column combination (a key candidate).
func (p *PLI) IsUnique() bool { return len(p.clusters) == 0 }

// Inverted returns the row → cluster-id index with -1 for stripped
// rows. The index is built on first use and cached on the PLI; callers
// must not modify it. Safe for concurrent use.
func (p *PLI) Inverted() []int {
	p.invOnce.Do(func() {
		inv := make([]int, p.numRows)
		for i := range inv {
			inv[i] = -1
		}
		for id, c := range p.clusters {
			for _, row := range c {
				inv[row] = id
			}
		}
		p.inv = inv
	})
	return p.inv
}

// Intersect computes the PLI of the union of the attribute sets
// underlying p and o, i.e. the product partition, using the standard
// probe-table algorithm of TANE. The smaller (more selective) operand
// is probed into the other's cached inverted index, so intermediate
// partitions shrink as fast as possible. The result owns its memory,
// so callers may retain it; repeated intersections reuse scratch
// through an Intersector.
func (p *PLI) Intersect(o *PLI) *PLI {
	a, b := p, o
	if b.size < a.size {
		a, b = b, a
	}
	var ix Intersector
	return ix.IntersectInto(nil, a, b.Inverted())
}

// Refines reports whether the partition of p refines the given encoded
// column, i.e. whether every cluster of p is constant in that column.
// This decides the FD X → A for p = PLI(X) and codes = column A.
func (p *PLI) Refines(codes []int) bool {
	for _, cluster := range p.clusters {
		first := codes[cluster[0]]
		for _, row := range cluster[1:] {
			if codes[row] != first {
				return false
			}
		}
	}
	return true
}

// FirstViolation returns a pair of row indices that agree on p's
// attribute set but disagree on the given column, or (-1, -1) if the FD
// holds.
func (p *PLI) FirstViolation(codes []int) (int, int) {
	for _, cluster := range p.clusters {
		first := codes[cluster[0]]
		for _, row := range cluster[1:] {
			if codes[row] != first {
				return cluster[0], row
			}
		}
	}
	return -1, -1
}

// Error returns the partition error e(X) = (Size - NumClusters) used by
// TANE's key pruning: e(X) == 0 iff X is a key. O(1).
func (p *PLI) Error() int { return p.size - len(p.clusters) }

// Intersector carries the scratch state of repeated PLI intersections:
// flat per-partner-cluster counters and write cursors (a counting sort,
// replacing the map probe table that used to dominate validation CPU).
// Reusing one Intersector across the candidates of a validation level
// eliminates every per-candidate allocation except the result clusters
// themselves — and with caller-owned Buffers (IntersectInto) even those
// come from reused slabs, making steady-state intersection
// allocation-free.
//
// An Intersector is not safe for concurrent use — parallel validation
// gives each worker its own.
type Intersector struct {
	cnt     []int // partner cluster id → row count for current cluster
	cur     []int // partner cluster id → slab write cursor, -1 = stripped
	touched []int // partner ids used by the current cluster
}

// Buffer is reusable memory for one intersection result: the row slab
// and the cluster headers carved from it. IntersectInto overwrites it,
// so a result carved from a Buffer is valid until the Buffer's next use
// — callers must not retain it beyond that, mutate it, or call Inverted
// on it. A chain of intersections that feeds each result into the next
// step alternates two Buffers, so every step's input survives while it
// writes its output. The zero value is ready to use.
type Buffer struct {
	slab  []int
	heads [][]int
}

// ensure sizes the flat scratch for partner cluster ids, which are
// bounded by the partner's cluster count ≤ numRows.
func (ix *Intersector) ensure(numRows int) {
	if len(ix.cnt) < numRows {
		ix.cnt = make([]int, numRows)
		ix.cur = make([]int, numRows)
	}
}

// IntersectCount returns Size() and NumClusters() of p ∩ inv without
// materializing the product: the counting pass of IntersectInto alone,
// with no cursor pass and no row writes. A distinct count — rows
// minus Size plus NumClusters — needs nothing more from the last step
// of its intersection chain.
func (ix *Intersector) IntersectCount(p *PLI, inv []int) (size, clusters int) {
	ix.ensure(p.numRows)
	for _, cluster := range p.clusters {
		for _, row := range cluster {
			if id := inv[row]; id >= 0 {
				if ix.cnt[id] == 0 {
					ix.touched = append(ix.touched, id)
				}
				ix.cnt[id]++
			}
		}
		for _, id := range ix.touched {
			if c := ix.cnt[id]; c >= 2 {
				size += c
				clusters++
			}
			ix.cnt[id] = 0
		}
		ix.touched = ix.touched[:0]
	}
	return size, clusters
}

// IntersectInto computes the product of p and the partition whose
// row → cluster index is inv, reusing the Intersector's scratch. inv
// may be any row → id index whose ids lie below p.NumRows(), with -1
// for rows that belong to no cluster: an Inverted index, or a
// dictionary code column (codes are dense, so below the row count),
// which probes p against that column without building its partition.
// Singleton clusters of the product are stripped eagerly, and the
// result's cluster order is deterministic (first-touch order per
// cluster of p), so it is the same for a code column as for its
// partition's inverted index. The result is carved from buf (see
// Buffer for its lifetime); with a nil buf it owns fresh memory.
func (ix *Intersector) IntersectInto(buf *Buffer, p *PLI, inv []int) *PLI {
	ix.ensure(p.numRows)
	var slab []int
	var heads [][]int
	if buf != nil {
		if cap(buf.slab) < p.size {
			buf.slab = make([]int, p.size)
		}
		slab = buf.slab[:p.size]
		heads = buf.heads[:0]
	} else {
		slab = make([]int, p.size)
	}
	res := &PLI{numRows: p.numRows}
	off := 0
	for _, cluster := range p.clusters {
		for _, row := range cluster {
			if id := inv[row]; id >= 0 {
				if ix.cnt[id] == 0 {
					ix.touched = append(ix.touched, id)
				}
				ix.cnt[id]++
			}
		}
		for _, id := range ix.touched {
			if c := ix.cnt[id]; c >= 2 {
				heads = append(heads, slab[off:off+c:off+c])
				ix.cur[id] = off
				off += c
				res.size += c
			} else {
				ix.cur[id] = -1
			}
			ix.cnt[id] = 0
		}
		ix.touched = ix.touched[:0]
		for _, row := range cluster {
			if id := inv[row]; id >= 0 {
				if cur := ix.cur[id]; cur >= 0 {
					slab[cur] = row
					ix.cur[id] = cur + 1
				}
			}
		}
	}
	if buf != nil {
		buf.heads = heads
	} else if off*2 < len(slab) {
		// The result owns its memory; don't let small products pin a
		// slab sized for the input. Clusters were carved sequentially,
		// so their offsets are the prefix sums of their lengths.
		compact := make([]int, off)
		copy(compact, slab[:off])
		pos := 0
		for i, h := range heads {
			heads[i] = compact[pos : pos+len(h) : pos+len(h)]
			pos += len(h)
		}
	}
	res.clusters = heads
	return res
}
