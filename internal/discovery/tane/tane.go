// Package tane implements the TANE algorithm (Huhtala et al., 1999)
// for discovering all minimal, non-trivial functional dependencies of a
// relation instance. TANE traverses the attribute-set lattice
// level-wise, maintains stripped partitions (PLIs) per lattice node,
// and prunes with right-hand-side candidate sets C⁺ and key pruning.
//
// In this repository TANE is the classic baseline the paper cites for
// the FD-discovery step (component 1 of Normalize); the default
// discovery algorithm is the faster HyFD-style hybrid in the sibling
// package hyfd. TANE also serves as a correctness cross-check in tests.
//
// DiscoverContext supports cancellation: the level-wise loops — FD
// emission per node and the PLI-intersecting candidate generation —
// poll the context and return ctx.Err() promptly.
package tane

import (
	"context"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// Options configures discovery.
type Options struct {
	// MaxLhs bounds the size of left-hand sides; 0 means unbounded.
	MaxLhs int
	// Substrate, when non-nil, supplies the pre-built dictionary
	// encoding and single-column PLIs of rel (see internal/plicache),
	// sharing one build across pipeline stages. It must describe exactly
	// rel.
	Substrate *plicache.Substrate
	// Observer receives work counters under the fd-discovery stage;
	// nil means no instrumentation.
	Observer observe.Observer
	// Budget, when non-nil, charges discovered FDs against run-wide
	// ceilings; a trip aborts discovery with a *budget.Exceeded error.
	// The retained lattice partitions go to the substrate's store,
	// which charges them itself when it is governed.
	Budget *budget.Tracker
}

// node is one lattice element X with its stripped partition, partition
// error e(X), RHS candidate set C⁺(X), and the errors e(X\{B}) of all
// its parents (needed for the minimality test).
type node struct {
	attrs      []int // X as a sorted attribute list
	set        *bitset.Set
	part       *plistore.Handle
	err        int
	cplus      *bitset.Set
	parentErrs map[int]int // removed attribute → e(X\{attr})
}

// Discover returns all minimal non-trivial FDs of rel, aggregated by
// left-hand side and deterministically sorted.
func Discover(rel *relation.Relation, opts Options) *fd.Set {
	s, _ := DiscoverContext(context.Background(), rel, opts)
	return s
}

// DiscoverContext is Discover with cancellation: the level-wise lattice
// loops poll ctx and the call returns ctx.Err() promptly when the
// context ends mid-discovery.
func DiscoverContext(ctx context.Context, rel *relation.Relation, opts Options) (*fd.Set, error) {
	sub := opts.Substrate
	if sub == nil {
		var err error
		sub, err = plicache.Build(ctx, rel)
		if err != nil {
			return nil, err
		}
	}
	enc := sub.Encoded()
	n := rel.NumAttrs()
	maxLhs := opts.MaxLhs
	if maxLhs <= 0 || maxLhs > n {
		maxLhs = n
	}
	result := fd.NewSet(n)
	if n == 0 {
		return result, nil
	}
	if enc.NumRows == 0 {
		// Vacuously, ∅ determines every attribute.
		result.Add(bitset.New(n), bitset.Full(n))
		return result.Aggregate().Sort(), nil
	}
	d := &discoverer{ctx: ctx, done: ctx.Done(), tr: opts.Budget, st: sub.Store()}
	defer d.flushCounters(observe.Or(opts.Observer))

	emptyErr := enc.NumRows - 1 // e(∅): a single cluster holding all rows

	// Level 1: single attributes with C⁺ = R.
	level := make([]*node, 0, n)
	for a := 0; a < n; a++ {
		h, err := sub.Handle(a)
		if err != nil {
			return nil, err
		}
		level = append(level, &node{
			attrs:      []int{a},
			set:        bitset.Of(n, a),
			part:       h,
			err:        h.Error(),
			cplus:      bitset.Full(n),
			parentErrs: map[int]int{a: emptyErr},
		})
	}

	// Level ℓ emits FDs with LHS size ℓ-1 (COMPUTE_DEPENDENCIES tests
	// X\{A} → A for ℓ-sized X), so the bound requires processing level
	// maxLhs+1 before stopping.
	for size := 1; len(level) > 0; size++ {
		if err := d.computeDependencies(level, result, n); err != nil {
			return nil, err
		}
		if size > maxLhs {
			break
		}
		survivors := prune(level)
		var err error
		level, err = d.generateNextLevel(survivors, n)
		if err != nil {
			return nil, err
		}
	}
	return result.Aggregate().Sort(), nil
}

// discoverer bundles the cancellation state and work counters of one
// DiscoverContext run.
type discoverer struct {
	ctx  context.Context
	done <-chan struct{}
	tr   *budget.Tracker
	st   *plistore.Store // holds the retained lattice partitions

	plisIntersected   int64
	candidatesChecked int64
}

func (d *discoverer) canceled() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

func (d *discoverer) flushCounters(obs observe.Observer) {
	if d.plisIntersected != 0 {
		obs.Counter(observe.Discovery, observe.CounterPLIsIntersected, d.plisIntersected)
	}
	if d.candidatesChecked != 0 {
		obs.Counter(observe.Discovery, observe.CounterCandidatesChecked, d.candidatesChecked)
	}
}

// computeDependencies implements TANE's COMPUTE_DEPENDENCIES: for each
// X and each A ∈ C⁺(X) ∩ X, the FD X\{A} → A is valid and minimal iff
// e(X\{A}) = e(X). At level 1 this reduces to the constant-column check
// ∅ → A.
func (d *discoverer) computeDependencies(level []*node, result *fd.Set, n int) error {
	for i, nd := range level {
		if i&63 == 0 && d.canceled() {
			return d.ctx.Err()
		}
		var tripped error
		candidates := nd.cplus.Intersect(nd.set)
		// One candidate per FD X\{A} → A examined at this node, so the
		// counter is comparable across discovery algorithms.
		d.candidatesChecked += int64(candidates.Cardinality())
		candidates.ForEach(func(a int) bool {
			pe, ok := nd.parentErrs[a]
			if !ok {
				return true
			}
			if pe == nd.err { // X\{A} → A holds
				lhs := nd.set.Clone().Remove(a)
				result.Add(lhs, bitset.Of(n, a))
				if err := d.tr.AddFDs(1); err != nil {
					tripped = err
					return false
				}
				if err := d.tr.Grow(budget.FDBytes(n)); err != nil {
					tripped = err
					return false
				}
				nd.cplus.Remove(a)
				nd.cplus.IntersectWith(nd.set) // drop all B ∈ R\X
			}
			return true
		})
		if tripped != nil {
			return tripped
		}
	}
	return nil
}

// prune implements the C⁺ pruning of TANE's base algorithm: nodes with
// an empty RHS candidate set can never contribute further minimal FDs
// and are deleted. (The paper's additional key pruning is a pure
// optimization whose minimality side-condition needs C⁺ sets of pruned
// lattice nodes; the base algorithm is provably complete and minimal
// without it, so this baseline implementation omits it. Keys still
// terminate quickly because their descendants' C⁺ sets empty out within
// two levels.) It returns the surviving nodes keyed by attribute set.
func prune(level []*node) map[string]*node {
	survivors := make(map[string]*node, len(level))
	for _, nd := range level {
		if nd.cplus.IsEmpty() {
			continue
		}
		survivors[nd.set.Key()] = nd
	}
	return survivors
}

// generateNextLevel implements TANE's prefix-block candidate
// generation. Two surviving nodes sharing all attributes but the last
// combine into a child; the child is kept only if every |X|-subset
// survived (apriori), and inherits C⁺(X) = ∩_{B∈X} C⁺(X\{B}).
func (d *discoverer) generateNextLevel(survivors map[string]*node, n int) ([]*node, error) {
	nodes := make([]*node, 0, len(survivors))
	for _, nd := range survivors {
		nodes = append(nodes, nd)
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i].attrs, nodes[j].attrs
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})

	var next []*node
	for i := 0; i < len(nodes); i++ {
		if d.canceled() {
			return nil, d.ctx.Err()
		}
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			if !samePrefix(a.attrs, b.attrs) {
				break
			}
			// The child's partition intersection below is the hot
			// operation of the level-wise sweep; poll per candidate so
			// cancellation lands within the latency contract.
			if j&31 == 0 && d.canceled() {
				return nil, d.ctx.Err()
			}
			attrs := append(append(make([]int, 0, len(a.attrs)+1), a.attrs...), b.attrs[len(b.attrs)-1])
			set := a.set.Union(b.set)

			cplus := bitset.Full(n)
			parentErrs := make(map[int]int, len(attrs))
			ok := true
			for _, rm := range attrs {
				sub := set.Clone().Remove(rm)
				parent, exists := survivors[sub.Key()]
				if !exists {
					ok = false
					break
				}
				cplus.IntersectWith(parent.cplus)
				parentErrs[rm] = parent.err
			}
			if !ok || cplus.IsEmpty() {
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
			d.plisIntersected++
			h, err := d.st.Put(part)
			if err != nil {
				return nil, err
			}
			next = append(next, &node{
				attrs:      attrs,
				set:        set,
				part:       h,
				err:        part.Error(),
				cplus:      cplus,
				parentErrs: parentErrs,
			})
		}
	}
	return next, nil
}

// samePrefix reports whether two equal-length attribute lists agree on
// all but their last element.
func samePrefix(a, b []int) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
