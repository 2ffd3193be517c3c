package normalize

import (
	"context"

	"normalize/internal/bitset"
	"normalize/internal/closure"
	"normalize/internal/core"
	"normalize/internal/discovery/dfd"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/tane"
	"normalize/internal/discovery/ucc"
	"normalize/internal/fd"
)

// FD is a functional dependency with an aggregated right-hand side; the
// attribute sets index into the relation the FD was discovered on.
type FD = fd.FD

// FDSet is a collection of FDs over one relation.
type FDSet = fd.Set

// AttrSet is a set of attribute indices.
type AttrSet = bitset.Set

// NewAttrSet builds an attribute set over a universe of n attributes
// containing the given elements.
func NewAttrSet(n int, elems ...int) *AttrSet {
	return bitset.Of(n, elems...)
}

// DiscoveryAlgorithm selects the FD discovery algorithm.
type DiscoveryAlgorithm int

const (
	// HyFD is the hybrid sampling/validation algorithm (default; the
	// paper's choice, with max-LHS pruning built in).
	HyFD DiscoveryAlgorithm = iota
	// TANE is the classic level-wise lattice algorithm, included as the
	// baseline the paper cites.
	TANE
	// DFD traverses one lattice per RHS attribute, exploiting the
	// duality of minimal dependencies and maximal non-dependencies —
	// the other discovery algorithm the paper names.
	DFD
)

// DiscoverFDs finds all minimal, non-trivial functional dependencies of
// the relation with left-hand sides of at most maxLhs attributes
// (0 = unbounded), aggregated by LHS and deterministically ordered.
func DiscoverFDs(rel *Relation, algo DiscoveryAlgorithm, maxLhs int) *FDSet {
	switch algo {
	case TANE:
		return tane.Discover(rel, tane.Options{MaxLhs: maxLhs})
	case DFD:
		return dfd.Discover(rel, dfd.Options{MaxLhs: maxLhs})
	default:
		return hyfd.Discover(rel, hyfd.Options{MaxLhs: maxLhs})
	}
}

// DiscoverFDsContext is DiscoverFDs with cancellation: the discovery
// loops poll ctx and the call returns ctx.Err() promptly (within
// ~100ms) when the context ends mid-discovery.
func DiscoverFDsContext(ctx context.Context, rel *Relation, algo DiscoveryAlgorithm, maxLhs int) (*FDSet, error) {
	switch algo {
	case TANE:
		return tane.DiscoverContext(ctx, rel, tane.Options{MaxLhs: maxLhs})
	case DFD:
		return dfd.DiscoverContext(ctx, rel, dfd.Options{MaxLhs: maxLhs})
	default:
		return hyfd.DiscoverContext(ctx, rel, hyfd.Options{MaxLhs: maxLhs})
	}
}

// DiscoverKeys finds all minimal unique column combinations (candidate
// keys) of the relation, smallest first, with a level-wise lattice
// search.
func DiscoverKeys(rel *Relation) []*AttrSet {
	return ucc.Discover(rel, ucc.Options{})
}

// DiscoverKeysContext is DiscoverKeys with cancellation.
func DiscoverKeysContext(ctx context.Context, rel *Relation) ([]*AttrSet, error) {
	return ucc.DiscoverContext(ctx, rel, ucc.Options{})
}

// DiscoverKeysHybrid is DiscoverKeys, kept for API compatibility.
// Minimal UCCs are unique, so every search algorithm returns the same
// keys, and a hybrid search measured no faster than the level-wise one.
func DiscoverKeysHybrid(rel *Relation) []*AttrSet {
	return DiscoverKeys(rel)
}

// DiscoverKeysHybridContext is DiscoverKeysContext.
func DiscoverKeysHybridContext(ctx context.Context, rel *Relation) ([]*AttrSet, error) {
	return DiscoverKeysContext(ctx, rel)
}

// ExtendFDs maximizes every FD's right-hand side in place using
// Armstrong's transitivity axiom (the closure F⁺ of Section 4). The
// optimized algorithm requires fds to be a complete set of minimal FDs,
// which DiscoverFDs guarantees; pass ClosureImproved for arbitrary
// hand-written FD sets.
func ExtendFDs(fds *FDSet, algo ClosureAlgorithm) *FDSet {
	switch algo {
	case ClosureImproved:
		return closure.ImprovedParallel(fds, 0)
	case ClosureNaive:
		return closure.Naive(fds)
	default:
		return closure.OptimizedParallel(fds, 0)
	}
}

// ExtendFDsContext is ExtendFDs with cancellation. On cancellation the
// input set is left in an unspecified partially-extended state and the
// call returns ctx.Err().
func ExtendFDsContext(ctx context.Context, fds *FDSet, algo ClosureAlgorithm) (*FDSet, error) {
	switch algo {
	case ClosureImproved:
		return closure.ImprovedParallelContext(ctx, fds, 0)
	case ClosureNaive:
		return closure.NaiveContext(ctx, fds)
	default:
		return closure.OptimizedParallelContext(ctx, fds, 0)
	}
}

// ClosureAlgorithm selects a closure variant; see the Closure*
// constants in this package.
type ClosureAlgorithm = core.ClosureAlgorithm
