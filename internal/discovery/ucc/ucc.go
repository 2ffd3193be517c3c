// Package ucc discovers minimal unique column combinations (UCCs),
// i.e. candidate keys, of a relation instance. The Normalize paper uses
// the DUCC algorithm (Heise et al., 2013) for its final primary-key
// selection component: relations that never received a primary key
// during decomposition need their full set of keys discovered. This
// package implements a level-wise lattice search with stripped
// partitions and apriori generation: a candidate is formed only when
// every subset one attribute smaller is a non-unique node of the
// level, so no candidate contains a known UCC and every UCC found is
// minimal. Minimal UCCs are unique, so a hybrid search would find the
// same keys; the level-wise one is kept alone.
//
// Those tables are not always small. A long fact table of
// low-cardinality columns keeps the lattice deep: on the
// orders-governed benchmark's 60 000-row fact table the seven non-key
// columns only become unique three at a time, so the search makes 112
// intersections of 60 000-row partitions, and primary-key selection
// takes ~20% of a traced operation (EXPERIMENTS.md, "Primary-key
// selection on both cores"). So each candidate X∪{y} is the product of
// X's retained partition and y's dictionary code column, which is
// already a row → id index: only X's partition is read, once per level
// as the probe side. Per level, the apriori check runs serially; the
// intersections then run as one task per level node on Options.Pool
// (inline when it is nil), each pool slot with its own intersector, and
// commit in node order, so the keys, their order and the counters are
// the same at every worker count.
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
	"normalize/internal/observe"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// Options configures discovery.
type Options struct {
	// MaxSize bounds the size of reported UCCs; 0 means unbounded.
	MaxSize int
	// Substrate, when non-nil, supplies the dictionary encoding and
	// single-column partitions of the relation (see internal/plicache),
	// sharing one build across pipeline stages. It must describe exactly
	// the relation passed to discovery. The retained lattice partitions
	// go to its store, which charges them against the run's budget when
	// it is governed; a trip aborts discovery with a *budget.Exceeded
	// error.
	Substrate *plicache.Substrate
	// Observer receives work counters under the primary-key-selection
	// stage; nil means no instrumentation.
	Observer observe.Observer
	// Pool, when non-nil, runs each level's intersections on its
	// workers, one task per level node; nil runs the same tasks inline.
	// The result is the same either way. The caller owns the pool.
	Pool *wsteal.Pool
}

type node struct {
	attrs []int
	set   *bitset.Set
	part  *plistore.Handle
}

// candidate is one X∪{y} of a level, extending the node X by the
// attribute y. Its task sets part to the retained product, or leaves it
// nil when the candidate is unique.
type candidate struct {
	set  *bitset.Set
	y    int
	part *plistore.Handle
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

// lattice is the state of one discovery run.
type lattice struct {
	enc    *relation.Encoded
	st     *plistore.Store
	pool   *wsteal.Pool
	ix     []pli.Intersector // one per pool slot
	result []*bitset.Set
	c      counters
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
	slots := 1
	if opts.Pool != nil {
		slots = opts.Pool.Workers()
	}
	l := &lattice{enc: enc, st: sub.Store(), pool: opts.Pool, ix: make([]pli.Intersector, slots)}
	defer l.c.flush(observe.Or(opts.Observer))

	level := make([]*node, 0, n)
	for a := 0; a < n; a++ {
		h, err := sub.Handle(a)
		if err != nil {
			return nil, err
		}
		s := bitset.Of(n, a)
		if h.IsUnique() {
			l.result = append(l.result, s)
			continue
		}
		level = append(level, &node{attrs: []int{a}, set: s, part: h})
	}

	for size := 1; len(level) > 0 && size < maxSize; size++ {
		var err error
		level, err = l.nextLevel(ctx, level)
		if err != nil {
			return nil, err
		}
	}
	l.c.uccsFound += int64(len(l.result))
	return l.result, nil
}

// nextLevel combines prefix-block pairs of non-unique nodes; candidates
// with a subset one attribute smaller that is not a node of the level
// contain a known UCC and are skipped, unique candidates become minimal
// UCCs (minimal because all their subsets are non-unique), and the
// remaining candidates form the next level.
func (l *lattice) nextLevel(ctx context.Context, level []*node) ([]*node, error) {
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

	// The check runs before any of the level's verdicts: it reads only
	// the level's nodes, which the verdicts do not change.
	done := ctx.Done()
	cands := make([][]candidate, len(level))
	for i, a := range level {
		if canceled(done) {
			return nil, ctx.Err()
		}
		for j := i + 1; j < len(level) && samePrefix(a.attrs, level[j].attrs); j++ {
			set := a.set.Union(level[j].set)
			if !allSubsetsPresent(set, present) {
				continue
			}
			cands[i] = append(cands[i], candidate{set: set, y: level[j].attrs[len(level[j].attrs)-1]})
		}
	}

	// One task per node: acquire X's partition once and probe it against
	// each partner's code column, so no partner partition is read.
	task := func(i, slot int) error {
		cs := cands[i]
		if len(cs) == 0 {
			return nil
		}
		h := level[i].part
		px, err := h.Acquire()
		if err != nil {
			return err
		}
		defer h.Release()
		ix := &l.ix[slot]
		for k := range cs {
			if canceled(done) {
				return ctx.Err()
			}
			part := ix.IntersectInto(nil, px, l.enc.Columns[cs[k].y])
			if part.IsUnique() {
				continue
			}
			// Non-unique candidates retain their partition for the next
			// level; that retention is the memory a governed store
			// meters, compresses and evicts.
			if cs[k].part, err = l.st.Put(part); err != nil {
				return err
			}
		}
		return nil
	}
	var next []*node
	commit := func(i int) error {
		x := level[i]
		for _, c := range cands[i] {
			l.c.plisIntersected++
			if c.part == nil {
				l.result = append(l.result, c.set)
				continue
			}
			attrs := append(append(make([]int, 0, len(x.attrs)+1), x.attrs...), c.y)
			next = append(next, &node{attrs: attrs, set: c.set, part: c.part})
		}
		return nil
	}

	if l.pool != nil {
		if err := l.pool.Run(ctx, "ucc-level", len(level), task, commit); err != nil {
			return nil, err
		}
		return next, nil
	}
	for i := range level {
		if err := task(i, 0); err != nil {
			return nil, err
		}
		commit(i)
	}
	return next, nil
}

// allSubsetsPresent is the apriori check: every subset of set one
// attribute smaller is a non-unique node of the current level.
func allSubsetsPresent(set *bitset.Set, present map[string]bool) bool {
	for e := set.First(); e >= 0; e = set.NextAfter(e) {
		if !present[set.Clone().Remove(e).Key()] {
			return false
		}
	}
	return true
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
