package core

import (
	"context"
	"fmt"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/discovery/mvd"
	"normalize/internal/observe"
	"normalize/internal/relation"
)

// FourNFOptions configures the 4NF refinement.
type FourNFOptions struct {
	// MaxLhs bounds the MVD LHS size considered (0 = unbounded).
	MaxLhs int
	// MaxAttrs guards the exponential MVD discovery (default 16).
	MaxAttrs int
	// Budget, when non-nil, charges the MVD discovery of every worklist
	// relation against run-wide ceilings. A trip stops the refinement
	// gracefully: the remaining relations are kept unrefined (the
	// result stays lossless) and the call returns them together with a
	// *PartialError wrapping the *budget.Exceeded trip. A panic inside
	// MVD discovery degrades the same way.
	Budget *budget.Tracker
}

// Normalize4NF decomposes a relation instance into Fourth Normal Form:
// a relation is 4NF iff for every non-trivial MVD X ↠ Y the LHS X is a
// superkey. Because every FD is an MVD, the result is also BCNF.
//
// This implements the extension Section 6 of the paper sketches
// ("constructing 4NF requires all multi-valued dependencies …; the
// normalization algorithm, then, would work in the same manner"): find
// a violating MVD, split R into X∪Y and X∪Z, recurse. MVD discovery is
// exponential, so the function is meant for small relations — e.g. as a
// refinement pass over the output of the FD-based BCNF pipeline.
//
// The returned relations carry generated names and reproduce the input
// exactly under natural join (lossless, by Fagin's theorem).
func Normalize4NF(rel *relation.Relation, opts FourNFOptions) ([]*relation.Relation, error) {
	return Normalize4NFContext(context.Background(), rel, opts)
}

// Normalize4NFContext is Normalize4NF with cancellation: the
// decomposition worklist and the underlying MVD discovery poll ctx and
// return ctx.Err() promptly when the context ends.
func Normalize4NFContext(ctx context.Context, rel *relation.Relation, opts FourNFOptions) ([]*relation.Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.MaxAttrs == 0 {
		opts.MaxAttrs = 16
	}
	if rel.NumAttrs() > opts.MaxAttrs {
		return nil, fmt.Errorf("normalize4nf: relation %s has %d attributes, limit %d",
			rel.Name, rel.NumAttrs(), opts.MaxAttrs)
	}
	work := []*relation.Relation{rel.DedupCopy(rel.Name)}
	var done []*relation.Relation
	var stopped error // first budget trip or recovered panic
	used := map[string]bool{rel.Name: true}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		var v *mvd.MVD
		err := runStage(observe.Decomposition, func() error {
			var ferr error
			v, ferr = firstViolatingMVD(ctx, cur, opts)
			return ferr
		})
		if err != nil {
			if _, trip := isBudgetTrip(err); !trip && !isPanic(err) {
				return nil, err // context end or a hard discovery error
			}
			// Graceful stop: every prefix of the 4NF worklist is a
			// lossless decomposition, so keep the remaining relations
			// unrefined and report the cause once, at the end.
			if stopped == nil {
				stopped = err
			}
			done = append(done, cur)
			done = append(done, work...)
			work = nil
			continue
		}
		if v == nil {
			done = append(done, cur)
			continue
		}
		left := cur.ProjectSet(splitName(cur, v.Lhs, v.Rhs, used), v.Lhs.Union(v.Rhs)).Dedup()
		right := cur.ProjectSet(splitName(cur, v.Lhs, v.Complement, used), v.Lhs.Union(v.Complement)).Dedup()
		work = append(work, left, right)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Name < done[j].Name })
	if stopped != nil {
		return done, &PartialError{Stage: observe.Decomposition, Cause: stopped}
	}
	return done, nil
}

// firstViolatingMVD returns a non-trivial MVD whose LHS is not a
// superkey, preferring small LHSs and balanced splits, or nil when the
// relation is in 4NF.
func firstViolatingMVD(ctx context.Context, rel *relation.Relation, opts FourNFOptions) (*mvd.MVD, error) {
	n := rel.NumAttrs()
	if n < 3 {
		return nil, nil // no non-trivial bipartition can violate 4NF
	}
	mvds, err := mvd.DiscoverContext(ctx, rel, mvd.Options{MaxLhs: opts.MaxLhs, MaxAttrs: opts.MaxAttrs, Budget: opts.Budget})
	if err != nil {
		return nil, err
	}
	var best *mvd.MVD
	for _, m := range mvds {
		if m.Rhs.IsEmpty() || m.Complement.IsEmpty() {
			continue
		}
		if bruteforce.IsUnique(rel.Encode(), m.Lhs) {
			continue // superkey LHS: no violation
		}
		if nullAttrsOf(rel).Intersects(m.Lhs) {
			continue // keep the paper's null rule: LHS becomes a key
		}
		if best == nil || betterSplit(m, best) {
			best = m
		}
	}
	return best, nil
}

// betterSplit prefers smaller LHSs, then more balanced partitions.
func betterSplit(a, b *mvd.MVD) bool {
	if la, lb := a.Lhs.Cardinality(), b.Lhs.Cardinality(); la != lb {
		return la < lb
	}
	balance := func(m *mvd.MVD) int {
		d := m.Rhs.Cardinality() - m.Complement.Cardinality()
		if d < 0 {
			d = -d
		}
		return d
	}
	return balance(a) < balance(b)
}

func nullAttrsOf(rel *relation.Relation) *bitset.Set {
	s := bitset.New(rel.NumAttrs())
	for c := 0; c < rel.NumAttrs(); c++ {
		if rel.HasNull(c) {
			s.Add(c)
		}
	}
	return s
}

func splitName(rel *relation.Relation, lhs, side *bitset.Set, used map[string]bool) string {
	attrs := lhs.Clone().UnionWith(side)
	first := ""
	attrs.ForEach(func(e int) bool {
		first = rel.Attrs[e]
		return false
	})
	base := rel.Name + "_" + first
	return uniqueName(base, used)
}

// Verify4NF reports nil iff the relation contains no violating MVD.
func Verify4NF(rel *relation.Relation, opts FourNFOptions) error {
	return Verify4NFContext(context.Background(), rel, opts)
}

// Verify4NFContext is Verify4NF with cancellation.
func Verify4NFContext(ctx context.Context, rel *relation.Relation, opts FourNFOptions) error {
	if opts.MaxAttrs == 0 {
		opts.MaxAttrs = 16
	}
	v, err := firstViolatingMVD(ctx, rel.DedupCopy(rel.Name), opts)
	if err != nil {
		return err
	}
	if v != nil {
		return fmt.Errorf("relation %s: MVD %s violates 4NF", rel.Name, v.Format(rel.Attrs))
	}
	return nil
}
