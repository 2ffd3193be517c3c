// Package ucc discovers minimal unique column combinations (UCCs),
// i.e. candidate keys, of a relation instance. The Normalize paper uses
// the DUCC algorithm (Heise et al., 2013) for its final primary-key
// selection component: relations that never received a primary key
// during decomposition need their full set of keys discovered. Because
// those relations are small and already normalized, a level-wise
// lattice search with stripped partitions — apriori generation plus
// minimality pruning over a set-trie — is entirely sufficient, and is
// what this package implements.
//
// DiscoverContext supports cancellation: the lattice loop polls the
// context and returns ctx.Err() promptly. Work counters are reported to
// Options.Observer under the primary-key-selection stage (the pipeline
// component this package serves).
package ucc

import (
	"context"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/settrie"
)

// Options configures discovery.
type Options struct {
	// MaxSize bounds the size of reported UCCs; 0 means unbounded.
	MaxSize int
	// Substrate, when non-nil, supplies the pre-built dictionary
	// encoding and single-column PLIs of the relation (see
	// internal/plicache), sharing one build across pipeline stages. It
	// must describe exactly the relation passed to discovery. Budget
	// charging is unchanged with a substrate.
	Substrate *plicache.Substrate
	// Observer receives work counters under the primary-key-selection
	// stage; nil means no instrumentation.
	Observer observe.Observer
	// Budget, when non-nil, charges retained lattice partitions against
	// run-wide ceilings; a trip aborts discovery with a
	// *budget.Exceeded error.
	Budget *budget.Tracker
}

type node struct {
	attrs []int
	set   *bitset.Set
	part  *plistore.Handle
}

// counters accumulates the work of one discovery run and flushes it to
// an observer on return.
type counters struct {
	plisIntersected int64
	uccsFound       int64
}

func (c *counters) flush(obs observe.Observer) {
	if c.plisIntersected != 0 {
		obs.Counter(observe.PrimaryKey, observe.CounterPLIsIntersected, c.plisIntersected)
	}
	if c.uccsFound != 0 {
		obs.Counter(observe.PrimaryKey, observe.CounterUCCsDiscovered, c.uccsFound)
	}
}

// Discover returns all minimal unique column combinations of rel in
// ascending size order. An empty relation (or one with at most one row)
// has the empty set as its only minimal UCC.
func Discover(rel *relation.Relation, opts Options) []*bitset.Set {
	s, _ := DiscoverContext(context.Background(), rel, opts)
	return s
}

// DiscoverContext is Discover with cancellation: the level-wise lattice
// loop polls ctx and returns ctx.Err() promptly when the context ends.
func DiscoverContext(ctx context.Context, rel *relation.Relation, opts Options) ([]*bitset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := rel.NumAttrs()
	maxSize := opts.MaxSize
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	sub := opts.Substrate
	if sub == nil {
		var err error
		sub, err = plicache.Build(ctx, rel)
		if err != nil {
			return nil, err
		}
	}
	enc := sub.Encoded()
	if enc.NumRows <= 1 {
		return []*bitset.Set{bitset.New(n)}, nil
	}
	var c counters
	defer c.flush(observe.Or(opts.Observer))

	var result []*bitset.Set
	var minimal settrie.Trie

	level := make([]*node, 0, n)
	for a := 0; a < n; a++ {
		h, err := sub.Handle(a)
		if err != nil {
			return nil, err
		}
		s := bitset.Of(n, a)
		if h.IsUnique() {
			result = append(result, s)
			minimal.Insert(s)
			continue
		}
		level = append(level, &node{attrs: []int{a}, set: s, part: h})
	}

	done := ctx.Done()
	for size := 1; len(level) > 0 && size < maxSize; size++ {
		var err error
		level, err = nextLevel(ctx, done, level, &minimal, &result, n, &c, opts.Budget, sub.Store())
		if err != nil {
			return nil, err
		}
	}
	c.uccsFound += int64(len(result))
	return result, nil
}

// nextLevel combines prefix-block pairs of non-unique nodes; candidates
// containing a known UCC are skipped, unique candidates become minimal
// UCCs (minimal because all their subsets are non-unique), and the
// remaining candidates form the next level.
func nextLevel(ctx context.Context, done <-chan struct{}, level []*node,
	minimal *settrie.Trie, result *[]*bitset.Set, n int, c *counters, tr *budget.Tracker, st *plistore.Store) ([]*node, error) {
	sort.Slice(level, func(i, j int) bool {
		a, b := level[i].attrs, level[j].attrs
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	present := make(map[string]bool, len(level))
	for _, nd := range level {
		present[nd.set.Key()] = true
	}

	var next []*node
	for i := 0; i < len(level); i++ {
		if canceled(done) {
			return nil, ctx.Err()
		}
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a.attrs, b.attrs) {
				break
			}
			// The candidate's partition intersection below is the hot
			// operation; poll per candidate pair batch.
			if j&31 == 0 && canceled(done) {
				return nil, ctx.Err()
			}
			set := a.set.Union(b.set)
			if minimal.ContainsSubsetOf(set) {
				continue // contains a known UCC, cannot be minimal
			}
			// Apriori: every subset of the candidate must be a
			// non-unique node of the current level.
			ok := true
			for e := set.First(); e >= 0; e = set.NextAfter(e) {
				sub := set.Clone().Remove(e)
				if !present[sub.Key()] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			pa, err := a.part.Acquire()
			if err != nil {
				return nil, err
			}
			pb, err := b.part.Acquire()
			if err != nil {
				a.part.Release()
				return nil, err
			}
			part := pa.Intersect(pb)
			b.part.Release()
			a.part.Release()
			c.plisIntersected++
			attrs := append(append(make([]int, 0, len(a.attrs)+1), a.attrs...), b.attrs[len(b.attrs)-1])
			if part.IsUnique() {
				*result = append(*result, set)
				minimal.Insert(set)
				continue
			}
			// Non-unique candidates retain their partition for the next
			// level; that retention is the memory the budget meters —
			// compressed and evictable when a store governs the run.
			var h *plistore.Handle
			if st != nil {
				h, err = st.Put(part)
				if err != nil {
					return nil, err
				}
			} else {
				if err := tr.Grow(8*int64(part.Size()) + 64); err != nil {
					return nil, err
				}
				h = plistore.Resident(part)
			}
			next = append(next, &node{attrs: attrs, set: set, part: h})
		}
	}
	return next, nil
}

func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

func samePrefix(a, b []int) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
