// Package dfd implements functional-dependency discovery in the style
// of DFD (Abedjan, Schulze & Naumann, CIKM 2014), the second discovery
// algorithm the paper names for Normalize's component (1). DFD searches
// one attribute lattice per right-hand-side attribute and exploits the
// duality between dependencies (upward closed) and non-dependencies
// (downward closed):
//
//   - minimal dependencies are exactly the minimal hitting sets of the
//     complements of the maximal non-dependencies;
//   - every probe is a stripped-partition refinement check, served from
//     a PLI cache.
//
// Discovery alternates between generating candidate minimal LHSs as
// minimal hitting sets of the maximal non-dependencies found so far,
// and classifying those candidates: a candidate that checks out as a
// dependency is provably minimal; one that fails is greedily maximized
// into a new maximal non-dependency, which refines the next hitting-set
// round. The loop reaches a fixpoint exactly when the hitting sets
// coincide with the complete set of minimal dependencies. (The original
// DFD explores the same lattice with random walks; the deterministic
// greedy walks used here visit the same classification structure.)
package dfd

import (
	"context"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// Options configures discovery.
type Options struct {
	// MaxLhs bounds the size of left-hand sides; 0 means unbounded.
	MaxLhs int
	// Substrate, when non-nil, supplies the pre-built dictionary
	// encoding and single-column PLIs of the relation (see
	// internal/plicache), sharing one build across pipeline stages — and,
	// when a compressed PLI store is attached to it, hands DFD's cached
	// partitions to that store instead of keeping them flat residents.
	// It must describe exactly the relation passed to discovery.
	Substrate *plicache.Substrate
	// Observer receives work counters under the fd-discovery stage;
	// nil means no instrumentation.
	Observer observe.Observer
	// Budget, when non-nil, charges verified dependencies and cached
	// partitions against run-wide ceilings; a trip aborts discovery
	// with a *budget.Exceeded error. DFD's memory is dominated by the
	// PLI cache, so the charge lands on every cache insert.
	Budget *budget.Tracker
}

// Discover returns all minimal non-trivial FDs of rel, aggregated by
// left-hand side and deterministically sorted.
func Discover(rel *relation.Relation, opts Options) *fd.Set {
	s, _ := DiscoverContext(context.Background(), rel, opts)
	return s
}

// DiscoverContext is Discover with cancellation: the per-lattice
// candidate classification loops poll ctx and the call returns
// ctx.Err() promptly when the context ends mid-discovery.
func DiscoverContext(ctx context.Context, rel *relation.Relation, opts Options) (*fd.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := rel.NumAttrs()
	result := fd.NewSet(n)
	if n == 0 {
		return result, nil
	}
	sub := opts.Substrate
	enc := rel.Encode()
	if sub != nil {
		enc = sub.Encoded()
	}
	if enc.NumRows == 0 {
		result.Add(bitset.New(n), bitset.Full(n))
		return result.Aggregate().Sort(), nil
	}
	maxLhs := opts.MaxLhs
	if maxLhs <= 0 || maxLhs > n {
		maxLhs = n
	}

	d := &discoverer{ctx: ctx, done: ctx.Done(), enc: enc, n: n, tr: opts.Budget, plis: make(map[string]*plistore.Handle)}
	if sub != nil {
		d.st = sub.Store()
	}
	defer d.flushCounters(observe.Or(opts.Observer))
	for a := 0; a < n; a++ {
		var h *plistore.Handle
		if sub != nil {
			var err error
			if h, err = sub.Handle(a); err != nil {
				return nil, err
			}
		} else {
			h = plistore.Resident(pli.FromColumn(enc.Columns[a], enc.Cardinality[a]))
		}
		d.plis[bitset.Of(n, a).Key()] = h
		if d.st == nil {
			// Flat resident partitions charge here; store-backed ones
			// charge (and evict) themselves.
			if err := opts.Budget.Grow(8*int64(h.Size()) + 64); err != nil {
				return nil, err
			}
		}
	}

	for a := 0; a < n; a++ {
		lhss, err := d.findLhss(a, maxLhs)
		if err != nil {
			return nil, err
		}
		for _, lhs := range lhss {
			result.Add(lhs, bitset.Of(n, a))
		}
	}
	return result.Aggregate().Sort(), nil
}

type discoverer struct {
	ctx     context.Context
	done    <-chan struct{}
	enc     *relation.Encoded
	n       int
	tr      *budget.Tracker
	st      *plistore.Store             // nil: cached partitions stay flat residents
	tripped error                       // first budget trip inside an error-less helper
	plis    map[string]*plistore.Handle // PLI cache, keyed by attribute-set key

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

// findLhss discovers the minimal LHSs determining attribute a.
func (d *discoverer) findLhss(a, maxLhs int) ([]*bitset.Set, error) {
	// Attributes available for left-hand sides.
	universe := bitset.Full(d.n).Remove(a)

	// The empty LHS first: ∅ → a iff the column is constant.
	if d.enc.Cardinality[a] == 1 {
		return []*bitset.Set{bitset.New(d.n)}, nil
	}

	var maxNonDeps []*bitset.Set
	verified := map[string]bool{} // candidate key → isDep result known true

	for {
		if d.canceled() {
			return nil, d.ctx.Err()
		}
		candidates := minimalHittingSets(universe, maxNonDeps, d.n, maxLhs)
		progress := false
		for i, cand := range candidates {
			if i&15 == 0 && d.canceled() {
				return nil, d.ctx.Err()
			}
			if verified[cand.Key()] {
				continue
			}
			if d.isDep(cand, a) {
				// A minimal hitting set of the maximal non-dependencies
				// found so far that IS a dependency is a minimal
				// dependency: every proper subset misses some
				// complement, lies inside a non-dependency, and is
				// therefore a non-dependency itself.
				verified[cand.Key()] = true
				if err := d.tr.AddFDs(1); err != nil {
					return nil, err
				}
				continue
			}
			if d.tripped != nil {
				return nil, d.tripped
			}
			maxNonDeps = append(maxNonDeps, d.maximize(cand, a, universe))
			progress = true
			break // the hitting sets must be regenerated
		}
		if d.tripped != nil {
			return nil, d.tripped
		}
		if !progress {
			// Fixpoint: all candidates are verified minimal deps.
			sort.Slice(candidates, func(i, j int) bool {
				return candidates[i].String() < candidates[j].String()
			})
			return candidates, nil
		}
	}
}

// maximize grows a non-dependency into a maximal one with a single
// ascending pass (non-dependencies are downward closed, so an attribute
// rejected against a subset stays rejected against any superset).
func (d *discoverer) maximize(x *bitset.Set, a int, universe *bitset.Set) *bitset.Set {
	cur := x.Clone()
	universe.ForEach(func(b int) bool {
		if d.canceled() {
			return false // caller's loop re-polls and returns ctx.Err()
		}
		if cur.Contains(b) {
			return true
		}
		ext := cur.Clone().Add(b)
		if !d.isDep(ext, a) {
			cur = ext
		}
		return true
	})
	return cur
}

// isDep checks X → a via stripped-partition refinement, with PLI
// reuse. After a parked trip it reports false immediately; the
// classification loop in findLhss surfaces the trip.
func (d *discoverer) isDep(x *bitset.Set, a int) bool {
	if d.tripped != nil {
		return false
	}
	d.candidatesChecked++
	if x.IsEmpty() {
		return d.enc.Cardinality[a] == 1
	}
	h := d.pliFor(x)
	if h == nil || d.tripped != nil {
		return false
	}
	p, err := h.Acquire()
	if err != nil {
		d.trip(err)
		return false
	}
	defer h.Release()
	return p.Refines(d.enc.Columns[a])
}

// trip parks the first error of an error-less helper path.
func (d *discoverer) trip(err error) {
	if d.tripped == nil {
		d.tripped = err
	}
}

// putPart registers an intersected partition: compressed into the
// store when one governs the run, flat resident (charged) otherwise.
func (d *discoverer) putPart(p *pli.PLI) (*plistore.Handle, error) {
	if d.st != nil {
		return d.st.Put(p)
	}
	if err := d.tr.Grow(8*int64(p.Size()) + 64); err != nil {
		return nil, err
	}
	return plistore.Resident(p), nil
}

// pliFor returns the cached PLI of x, computing it from the largest
// cached subset plus single-column intersections when absent. Each
// cache insert is charged against the budget; a trip is parked in
// d.tripped (the refinement-check callers have no error return) and
// the classification loop in findLhss surfaces it.
func (d *discoverer) pliFor(x *bitset.Set) *plistore.Handle {
	if h, ok := d.plis[x.Key()]; ok {
		return h
	}
	// Build up from single columns, most selective first, caching the
	// prefix partitions along the way. The chain acquires each operand
	// only for the duration of its intersection.
	attrs := x.Elements()
	sort.Slice(attrs, func(i, j int) bool {
		hi := d.plis[bitset.Of(d.n, attrs[i]).Key()]
		hj := d.plis[bitset.Of(d.n, attrs[j]).Key()]
		return hi.Error() < hj.Error()
	})
	cur := bitset.Of(d.n, attrs[0])
	h := d.plis[cur.Key()]
	for _, b := range attrs[1:] {
		cur.Add(b)
		if cached, ok := d.plis[cur.Key()]; ok {
			h = cached
			continue
		}
		if !h.IsUnique() {
			hb := d.plis[bitset.Of(d.n, b).Key()]
			p, err := h.Acquire()
			if err != nil {
				d.trip(err)
				return nil
			}
			pb, err := hb.Acquire()
			if err != nil {
				h.Release()
				d.trip(err)
				return nil
			}
			product := p.Intersect(pb)
			hb.Release()
			h.Release()
			d.plisIntersected++
			nh, err := d.putPart(product)
			if err != nil {
				d.trip(err)
				return nil
			}
			h = nh
		}
		d.plis[cur.Key()] = h
	}
	return h
}

// minimalHittingSets enumerates the inclusion-minimal subsets of
// universe (of size ≤ maxSize) that intersect the complement of every
// given set — the candidate minimal LHSs of DFD's seed generation.
func minimalHittingSets(universe *bitset.Set, nonDeps []*bitset.Set, n, maxSize int) []*bitset.Set {
	hs := []*bitset.Set{bitset.New(n)}
	for _, nd := range nonDeps {
		complement := universe.Difference(nd)
		var next []*bitset.Set
		var missed []*bitset.Set
		for _, h := range hs {
			if h.Intersects(complement) {
				next = append(next, h)
			} else {
				missed = append(missed, h)
			}
		}
		for _, h := range missed {
			if h.Cardinality() >= maxSize {
				continue
			}
			complement.ForEach(func(a int) bool {
				next = append(next, h.Clone().Add(a))
				return true
			})
		}
		hs = removeSupersets(next)
	}
	return hs
}

// removeSupersets keeps only inclusion-minimal sets, deduplicated.
func removeSupersets(sets []*bitset.Set) []*bitset.Set {
	sort.Slice(sets, func(i, j int) bool {
		return sets[i].Cardinality() < sets[j].Cardinality()
	})
	var out []*bitset.Set
	seen := map[string]bool{}
	for _, s := range sets {
		if seen[s.Key()] {
			continue
		}
		minimal := true
		for _, kept := range out {
			if kept.IsSubsetOf(s) {
				minimal = false
				break
			}
		}
		if minimal {
			seen[s.Key()] = true
			out = append(out, s)
		}
	}
	return out
}
