// Package plicache is the shared profiling substrate of the
// normalization pipeline: one dictionary encoding plus lazily-built
// single-column PLIs (with their cached inverted indexes) per relation
// instance, built once and reused by every component that profiles the
// same data — FD discovery (HyFD, TANE), UCC discovery, 4NF
// refinement, and per-table primary-key selection.
//
// Without this package each of those stages would rebuild the
// per-attribute PLIs from scratch; the paper's own profiling (Sections
// 6 and 8) identifies exactly this PLI work as the dominant cost of
// validation-heavy discovery. A Cache deduplicates the build two ways:
// by relation identity (the common case inside one pipeline run) and by
// a content key over the instance (attribute names plus rows,
// independent of the relation's name), so two tables holding identical
// data share one substrate.
//
// The encoding itself is the relation's own backing, so wrapping it is
// free. Projections avoid string re-encoding entirely:
// relation.ProjectDedup derives a child's encoding from the parent's
// integer codes, and the pipeline registers a substrate over it
// (PutDerived).
package plicache

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"normalize/internal/pli"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// Substrate is the per-relation profiling state: the dictionary-encoded
// instance and one PLI (plus cached inverted index) per attribute,
// built lazily and cached. Safe for concurrent use.
type Substrate struct {
	enc     *relation.Encoded
	cols    []substrateColumn
	handles []substrateHandle

	// store, when set, governs the handle-form PLIs: Handle compresses
	// them into the budget-governed store instead of keeping flat
	// residents. Attached at construction/registration time, before the
	// substrate is shared across goroutines.
	store *plistore.Store

	// Set on appended substrates (Extend): column PLIs are grown from
	// the parent's instead of rebuilt from the full column.
	parent   *Substrate
	baseRows int
}

type substrateColumn struct {
	once sync.Once
	p    *pli.PLI
}

type substrateHandle struct {
	once sync.Once
	h    *plistore.Handle
	err  error
}

// New wraps an already-encoded relation.
func New(enc *relation.Encoded) *Substrate {
	return &Substrate{
		enc:     enc,
		cols:    make([]substrateColumn, len(enc.Columns)),
		handles: make([]substrateHandle, len(enc.Columns)),
	}
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
// deriving each column PLI from the parent substrate's via pli.Extend
// instead of regrouping the full column. enc must extend the parent's
// encoding: its first baseRows codes per column are the parent's,
// unchanged (the Columnar.Append guarantee). The resulting PLIs are
// identical to a from-scratch build, so the appended substrate is
// observationally equal to Build on the concatenated relation.
func Extend(parent *Substrate, enc *relation.Encoded) *Substrate {
	return &Substrate{
		enc:      enc,
		cols:     make([]substrateColumn, len(enc.Columns)),
		handles:  make([]substrateHandle, len(enc.Columns)),
		store:    parent.store,
		parent:   parent,
		baseRows: parent.NumRows(),
	}
}

// SetStore attaches a compressed PLI store, making Handle compress the
// lazy per-attribute PLIs into it instead of wrapping flat residents.
// Must be called before the substrate is shared across goroutines
// (construction/registration time); the flat PLI accessor is
// unaffected.
func (s *Substrate) SetStore(st *plistore.Store) { s.store = st }

// Store returns the attached compressed PLI store, or nil.
func (s *Substrate) Store() *plistore.Store { return s.store }

// Encoded returns the dictionary-encoded instance; callers must not
// modify it.
func (s *Substrate) Encoded() *relation.Encoded { return s.enc }

// NumRows returns the row count of the encoded instance.
func (s *Substrate) NumRows() int { return s.enc.NumRows }

// NumAttrs returns the attribute count of the encoded instance.
func (s *Substrate) NumAttrs() int { return len(s.enc.Columns) }

// PLI returns the single-column PLI of attribute a, building and
// caching it on first use. Safe for concurrent use.
func (s *Substrate) PLI(a int) *pli.PLI {
	c := &s.cols[a]
	c.once.Do(func() {
		if s.parent != nil {
			c.p = pli.Extend(s.parent.PLI(a), s.enc.Columns[a], s.baseRows, s.enc.Cardinality[a])
		} else {
			c.p = pli.FromColumn(s.enc.Columns[a], s.enc.Cardinality[a])
		}
	})
	return c.p
}

// Inverted returns the cached row → cluster index of attribute a's PLI.
func (s *Substrate) Inverted(a int) []int { return s.PLI(a).Inverted() }

// Handle returns attribute a's partition as a store handle, built and
// cached on first use. Without an attached store it wraps the flat
// resident PLI (free acquisition, no accounting — the unconstrained
// fast path); with a store it compresses the partition into the
// budget-governed store, and on appended substrates the partition is
// grown from the parent's handle via pli.Extend first. Safe for
// concurrent use.
func (s *Substrate) Handle(a int) (*plistore.Handle, error) {
	c := &s.handles[a]
	c.once.Do(func() {
		st := s.store
		if st == nil {
			c.h = plistore.Resident(s.PLI(a))
			return
		}
		if s.parent != nil {
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
			// Extend's result is identical to FromColumn on the full
			// column, so the full codes are a valid recompute source.
			c.h, c.err = st.PutPLI(grown, s.enc.Columns[a], s.enc.Cardinality[a])
			return
		}
		c.h, c.err = st.PutColumn(s.enc.Columns[a], s.enc.Cardinality[a])
	})
	return c.h, c.err
}

// Handles returns all single-column partition handles in attribute
// order, building any that are missing.
func (s *Substrate) Handles() ([]*plistore.Handle, error) {
	out := make([]*plistore.Handle, len(s.handles))
	for a := range s.handles {
		h, err := s.Handle(a)
		if err != nil {
			return nil, err
		}
		out[a] = h
	}
	return out, nil
}

// PLIs returns all single-column PLIs in attribute order, building any
// that are missing.
func (s *Substrate) PLIs() []*pli.PLI {
	out := make([]*pli.PLI, len(s.cols))
	for a := range s.cols {
		out[a] = s.PLI(a)
	}
	return out
}

// Cache deduplicates substrate builds across the tables of one
// pipeline run. Lookup is two-tier: relation identity first (the
// common case — every stage profiles the same *relation.Relation), then
// a content key over attribute names and rows, so tables with identical
// instances under different names still share one substrate. Safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	byRel map[*relation.Relation]*Substrate
	byKey map[[sha256.Size]byte]*Substrate
	store *plistore.Store

	builds  atomic.Int64 // substrates made on a lookup miss
	derives atomic.Int64 // code-level projection derivations
	hits    atomic.Int64 // lookups served from the cache
}

// SetStore attaches a compressed PLI store to the cache: substrates
// built or registered through it from now on hand their handle-form
// PLIs to the store. The pipeline calls this once, before discovery,
// when a memory budget governs the run. Nil-safe.
func (c *Cache) SetStore(st *plistore.Store) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.store = st
	c.mu.Unlock()
}

// NewCache returns an empty substrate cache.
func NewCache() *Cache {
	return &Cache{
		byRel: make(map[*relation.Relation]*Substrate),
		byKey: make(map[[sha256.Size]byte]*Substrate),
	}
}

// For returns the substrate of rel, building it at most once. A nil
// cache builds an uncached substrate each call, so callers can thread
// an optional cache unconditionally.
func (c *Cache) For(ctx context.Context, rel *relation.Relation) (*Substrate, error) {
	if c == nil {
		return Build(ctx, rel)
	}
	c.mu.Lock()
	if s, ok := c.byRel[rel]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return s, nil
	}
	c.mu.Unlock()

	key := contentKey(rel)
	c.mu.Lock()
	if s, ok := c.byKey[key]; ok {
		c.byRel[rel] = s
		c.mu.Unlock()
		c.hits.Add(1)
		return s, nil
	}
	c.mu.Unlock()

	// Build outside the lock; a concurrent builder of the same content
	// may race us, in which case the first stored substrate wins.
	s, err := Build(ctx, rel)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, ok := c.byKey[key]; ok {
		s = prev
	} else {
		s.store = c.store
		c.byKey[key] = s
		c.builds.Add(1)
	}
	c.byRel[rel] = s
	c.mu.Unlock()
	return s, nil
}

// Lookup returns the cached substrate of rel without building, or nil.
func (c *Cache) Lookup(rel *relation.Relation) *Substrate {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byRel[rel]
}

// PutDerived registers a substrate derived for child (typically over
// the encoding relation.ProjectDedup derived), making later For/Lookup
// calls for child hit the cache. A nil cache ignores the registration.
func (c *Cache) PutDerived(child *relation.Relation, s *Substrate) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	if s.store == nil {
		s.store = c.store
	}
	c.byRel[child] = s
	c.mu.Unlock()
	c.derives.Add(1)
}

// PutKeyed registers a substrate for rel under an explicit content key.
// The delta plane uses it with DeltaKey(parent, delta), so an appended
// substrate is found again by lineage instead of re-hashing the full
// concatenated instance. A nil cache ignores the registration.
func (c *Cache) PutKeyed(rel *relation.Relation, key [sha256.Size]byte, s *Substrate) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	if s.store == nil {
		s.store = c.store
	}
	if rel != nil {
		c.byRel[rel] = s
	}
	if _, ok := c.byKey[key]; !ok {
		c.byKey[key] = s
	}
	c.mu.Unlock()
	c.derives.Add(1)
}

// LookupKey returns the substrate cached under an explicit content key,
// or nil.
func (c *Cache) LookupKey(key [sha256.Size]byte) *Substrate {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byKey[key]
}

// Stats reports the cache's work so far: substrates made on a miss,
// code-level derivations, and lookups served from cache. All zero on
// nil.
func (c *Cache) Stats() (builds, derives, hits int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.builds.Load(), c.derives.Load(), c.hits.Load()
}

// contentKey hashes the instance content — attribute names and rows,
// with length framing so concatenations cannot collide. The relation's
// name is deliberately excluded: encoding depends only on the data.
// Values are read through Value, so hashing never materializes rows.
func contentKey(rel *relation.Relation) [sha256.Size]byte {
	h := sha256.New()
	var frame [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		h.Write([]byte(s))
	}
	binary.LittleEndian.PutUint64(frame[:], uint64(len(rel.Attrs)))
	h.Write(frame[:])
	for _, a := range rel.Attrs {
		writeStr(a)
	}
	for i, n := 0, rel.NumRows(); i < n; i++ {
		for c := range rel.Attrs {
			writeStr(rel.Value(i, c))
		}
	}
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// ContentKey exposes the cache's content key; the differential tests
// use it to pin that streaming and legacy ingest hash identically.
func ContentKey(rel *relation.Relation) [sha256.Size]byte { return contentKey(rel) }

// DeltaKey is the content key of an appended instance, derived from the
// parent's key and the delta's key instead of the concatenated bytes:
// H("delta" ‖ parent ‖ delta). Chains of appends therefore resolve
// transitively — the child key of one append is the parent key of the
// next — which is what turns the server's exact-match result cache into
// a lineage graph.
func DeltaKey(parent, delta [sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte("delta\x00"))
	h.Write(parent[:])
	h.Write(delta[:])
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}
