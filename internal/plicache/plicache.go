// Package plicache is the shared profiling substrate of the
// normalization pipeline: one dictionary encoding plus lazily-built
// single-column partitions per relation instance, built once and
// reused by every component that profiles the same data — FD discovery
// (HyFD, TANE), UCC discovery, 4NF refinement, and per-table
// primary-key selection. The partitions live in a plistore.Store: a
// Cache puts them in the run's store, whose regime (governed or
// resident) follows the run's memory ceiling, and a standalone
// substrate (New, Build) has a resident store of its own.
//
// Without this package each of those stages would rebuild the
// per-attribute PLIs from scratch; the paper's own profiling (Sections
// 6 and 8) identifies exactly this PLI work as the dominant cost of
// validation-heavy discovery. A Cache deduplicates the build by
// relation identity: every stage of one pipeline run profiles the same
// *relation.Relation values, and decomposition registers each child it
// derives (PutDerived).
//
// The encoding itself is the relation's own backing, so wrapping it is
// free. Projections avoid string re-encoding entirely: a child's
// encoding shares the parent's code columns (relation.Project) or is
// derived from them (relation.ProjectDedup), and the pipeline registers
// a substrate over it (PutDerived).
package plicache

import (
	"context"
	"sync"
	"sync/atomic"

	"normalize/internal/pli"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// Substrate is the per-relation profiling state: the dictionary-encoded
// instance and one partition handle per attribute, built lazily in the
// substrate's store and cached. Safe for concurrent use.
type Substrate struct {
	enc     *relation.Encoded
	handles []substrateHandle
	store   *plistore.Store

	// Set on appended substrates (Extend): column partitions are grown
	// from the parent's instead of rebuilt from the full column.
	parent   *Substrate
	baseRows int
}

type substrateHandle struct {
	once sync.Once
	h    *plistore.Handle
	err  error
}

func newSubstrate(enc *relation.Encoded, st *plistore.Store) *Substrate {
	return &Substrate{enc: enc, handles: make([]substrateHandle, len(enc.Columns)), store: st}
}

// New wraps an already-encoded relation in a substrate of its own,
// whose partitions rest in a resident store: flat and uncharged.
func New(enc *relation.Encoded) *Substrate {
	return newSubstrate(enc, plistore.New(nil, ""))
}

// Build wraps rel's encoding, which the relation already carries, so
// the substrate is free; it fails only when ctx has ended.
func Build(ctx context.Context, rel *relation.Relation) (*Substrate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return New(rel.Encode()), nil
}

// Extend wraps the encoding of a relation that grew by appended rows,
// deriving each column partition from the parent substrate's via
// pli.Extend instead of regrouping the full column, and puts it in the
// parent's store. enc must extend the parent's encoding: its first
// baseRows codes per column are the parent's, unchanged (the
// Columnar.Append guarantee). The resulting partitions are identical
// to a from-scratch build, so the appended substrate is observationally
// equal to Build on the concatenated relation.
func Extend(parent *Substrate, enc *relation.Encoded) *Substrate {
	s := newSubstrate(enc, parent.store)
	s.parent, s.baseRows = parent, parent.enc.NumRows
	return s
}

// Store returns the store holding the substrate's partitions. Engines
// put the partitions they derive and retain there too.
func (s *Substrate) Store() *plistore.Store { return s.store }

// Encoded returns the dictionary-encoded instance; callers must not
// modify it.
func (s *Substrate) Encoded() *relation.Encoded { return s.enc }

// Handle returns attribute a's partition, put in the substrate's store
// on first use and cached. On appended substrates the partition is
// grown from the parent's via pli.Extend. Safe for concurrent use.
func (s *Substrate) Handle(a int) (*plistore.Handle, error) {
	c := &s.handles[a]
	c.once.Do(func() {
		if s.parent == nil {
			c.h, c.err = s.store.PutColumn(s.enc.Columns[a], s.enc.Cardinality[a])
			return
		}
		ph, err := s.parent.Handle(a)
		if err != nil {
			c.err = err
			return
		}
		pp, err := ph.Acquire()
		if err != nil {
			c.err = err
			return
		}
		grown := pli.Extend(pp, s.enc.Columns[a], s.baseRows, s.enc.Cardinality[a])
		ph.Release()
		// Extend's result is identical to FromColumn on the full column,
		// so the full codes are a valid recompute source.
		c.h, c.err = s.store.PutPLI(grown, s.enc.Columns[a], s.enc.Cardinality[a])
	})
	return c.h, c.err
}

// Cache deduplicates substrate builds across the tables of one
// pipeline run, all in the run's one store, keyed by relation identity.
// Safe for concurrent use.
type Cache struct {
	mu    sync.Mutex
	byRel map[*relation.Relation]*Substrate
	store *plistore.Store

	builds  atomic.Int64 // substrates made on a lookup miss
	derives atomic.Int64 // code-level projection derivations
	hits    atomic.Int64 // lookups served from the cache
}

// NewCache returns an empty substrate cache whose substrates put their
// partitions in st.
func NewCache(st *plistore.Store) *Cache {
	return &Cache{byRel: make(map[*relation.Relation]*Substrate), store: st}
}

// For returns the substrate of rel, building it at most once.
func (c *Cache) For(ctx context.Context, rel *relation.Relation) (*Substrate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.byRel[rel]; ok {
		c.hits.Add(1)
		return s, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSubstrate(rel.Encode(), c.store)
	c.byRel[rel] = s
	c.builds.Add(1)
	return s, nil
}

// PutDerived registers the substrate of child over its own encoding
// (a projection of the parent's codes), making later For calls for
// child hit the cache.
func (c *Cache) PutDerived(child *relation.Relation) {
	s := newSubstrate(child.Encode(), c.store)
	c.mu.Lock()
	c.byRel[child] = s
	c.mu.Unlock()
	c.derives.Add(1)
}

// Stats reports the cache's work so far: substrates made on a miss,
// code-level derivations, and lookups served from cache.
func (c *Cache) Stats() (builds, derives, hits int64) {
	return c.builds.Load(), c.derives.Load(), c.hits.Load()
}
