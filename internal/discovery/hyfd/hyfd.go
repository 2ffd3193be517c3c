// Package hyfd implements a hybrid functional-dependency discovery
// algorithm in the style of HyFD (Papenbrock & Naumann, SIGMOD 2016),
// the algorithm the Normalize paper uses for its FD-discovery component
// and whose max-LHS pruning Normalize gets "for free".
//
// The hybrid combines two strategies:
//
//   - Sampling: compare likely-similar record pairs; each pair yields an
//     agree set (the attributes on which the two records agree), which
//     is evidence of a non-FD and prunes many candidates at once.
//   - Induction: maintain a prefix-tree cover (fd.Tree) of FD candidates
//     that is consistent with all observed non-FDs: a violated candidate
//     is removed and specialized by one attribute outside the agree set.
//   - Validation: check the remaining candidates level-wise against the
//     full data using position list indices; violations feed back into
//     the inductor as new agree sets.
//
// The validator is authoritative, so the result is exactly the complete
// set of minimal, non-trivial FDs (optionally bounded by MaxLhs), which
// the optimized closure algorithm of the normalization pipeline relies
// on.
//
// Revalidate is the same validate/induct loop run incrementally, for a
// relation that grew by appended rows: the candidate tree starts from
// the minimal cover of the rows before the append instead of sampling,
// and each candidate is checked only against the partition clusters an
// appended row falls into.
//
// DiscoverContext and Revalidate support cancellation: the sampling,
// induction, and validation loops poll the context (including the
// parallel validation workers, which wind down without leaking
// goroutines) and the call returns ctx.Err() promptly. Work counters —
// agree sets sampled, FD candidates induced, PLIs intersected,
// candidates checked, violations found — are reported to
// Options.Observer under the fd-discovery stage when the run finishes
// or is cancelled.
package hyfd

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/fd"
	"normalize/internal/guard"
	"normalize/internal/observe"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/settrie"
	"normalize/internal/wsteal"
)

// Options configures discovery.
type Options struct {
	// MaxLhs bounds the size of left-hand sides; 0 means unbounded.
	// The paper's Section 4.3 uses this pruning when complete FD sets
	// would not fit in memory; the pruned result is still a complete
	// and correct cover for all FDs within the bound.
	MaxLhs int
	// Workers bounds the worker pool of PLI building, sampling, and
	// candidate validation: 0 means GOMAXPROCS, 1 forces the serial
	// path, N > 1 uses exactly N workers. Results are merged
	// deterministically, so every worker count produces byte-identical
	// covers.
	Workers int
	// Substrate, when non-nil, supplies the dictionary encoding and
	// single-column partitions of rel (see internal/plicache), sharing
	// one build across the pipeline's stages. It must describe exactly
	// rel. Its store owns the partitions' memory: a governed store
	// charges them against its tracker and evicts them under pressure,
	// a resident one keeps them flat and uncharged. Nil wraps rel's
	// encoding in a substrate with a resident store.
	Substrate *plicache.Substrate
	// Observer receives per-stage work counters (under the
	// fd-discovery stage); nil means no instrumentation.
	Observer observe.Observer
	// Budget, when non-nil, is charged for the encoded input and for
	// every retained FD candidate of the positive cover — the structure
	// whose growth Section 4.3 identifies as the memory hazard. A trip
	// aborts discovery with the *budget.Exceeded error; the pipeline
	// layer reacts by tightening MaxLhs and retrying (its degradation
	// ladder) instead of running out of memory.
	Budget *budget.Tracker
	// sampleRounds overrides the number of initial sampling window
	// rounds (for tests); 0 means the default.
	sampleRounds int
}

// Discover returns all minimal non-trivial FDs of rel with left-hand
// sides of at most opts.MaxLhs attributes, aggregated by left-hand side
// and deterministically sorted.
func Discover(rel *relation.Relation, opts Options) *fd.Set {
	s, _ := DiscoverContext(context.Background(), rel, opts)
	return s
}

// DiscoverContext is Discover with cancellation: when ctx ends
// mid-discovery the hot loops notice within the pipeline's ~100ms
// latency contract and the call returns ctx.Err().
func DiscoverContext(ctx context.Context, rel *relation.Relation, opts Options) (*fd.Set, error) {
	d, fixed, err := newDiscoverer(ctx, rel, opts)
	if d == nil {
		return fixed, err
	}
	defer d.close()

	// Positive cover starts at the most general hypothesis: every
	// attribute is constant (∅ → A for all A).
	empty := bitset.New(d.n)
	for a := 0; a < d.n; a++ {
		d.tree.Add(empty, a)
	}

	smp, err := newSampler(d.enc, d.handles)
	if err != nil {
		return nil, err
	}
	d.sampler = smp
	rounds := opts.sampleRounds
	if rounds == 0 {
		rounds = 3
	}
	if err := d.sampleAndInduct(rounds); err != nil {
		return nil, err
	}
	return d.finish()
}

// ErrTooManyDemoted is Revalidate's answer when the appended rows
// refute more seed FDs than its cap allows: the tree has drifted so far
// from the seed that discovery from scratch is the better bet.
var ErrTooManyDemoted = errors.New("hyfd: appended rows refuted more seed FDs than allowed")

// Revalidation reports the incremental work of one Revalidate call, in
// single-RHS FDs.
type Revalidation struct {
	// Checked counts candidates validated against the data: every
	// constant-column candidate ∅ → A, and every candidate whose LHS
	// partition has a cluster holding an appended row. The others hold
	// without a check.
	Checked int64
	// Demoted counts seed FDs the appended rows refuted.
	Demoted int64
	// Reused counts seed FDs carried into the result unchanged.
	Reused int64
}

// Revalidate returns the minimal cover of rel exactly as DiscoverContext
// would, given seed: the minimal cover of rel's rows before firstNew,
// as DiscoverContext returns it with the same MaxLhs. Appending rows
// only removes FDs, so every FD of rel specializes a seed FD, and every
// candidate the tree holds holds on the rows before firstNew: a
// violating pair must include an appended row. So there is no sampling
// — the tree starts from seed — and a candidate is checked only against
// the clusters of its LHS partition that hold a row at or after
// firstNew. A negative maxDemoted disables the cap; past it the call
// stops after the current lattice level with ErrTooManyDemoted.
func Revalidate(ctx context.Context, rel *relation.Relation, seed *fd.Set, firstNew, maxDemoted int, opts Options) (*fd.Set, Revalidation, error) {
	d, fixed, err := newDiscoverer(ctx, rel, opts)
	if d == nil {
		return fixed, Revalidation{}, err
	}
	defer d.close()

	d.firstNew, d.maxDemoted = firstNew, int64(maxDemoted)
	d.seeds = make(map[string]*bitset.Set, seed.Len())
	for _, f := range seed.FDs {
		d.tree.AddSet(f.Lhs, f.Rhs)
		d.seeds[f.Lhs.Key()] = f.Rhs.Clone()
	}
	fds, err := d.finish()
	rv := Revalidation{Checked: d.candidatesChecked.Load(), Demoted: d.demoted}
	for _, rhs := range d.seeds {
		rv.Reused += int64(rhs.Cardinality())
	}
	return fds, rv, err
}

// newDiscoverer readies what both entry points share: rel's substrate,
// the per-attribute partitions, and the worker pool. A relation without
// attributes or rows has a fixed cover, returned with a nil discoverer
// (as is an error); otherwise the caller must call close.
func newDiscoverer(ctx context.Context, rel *relation.Relation, opts Options) (*discoverer, *fd.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := rel.NumAttrs()
	result := fd.NewSet(n)
	if n == 0 {
		return nil, result, nil
	}
	sub := opts.Substrate
	if sub == nil {
		sub = plicache.New(rel.Encode())
	}
	enc := sub.Encoded()
	// The dictionary-encoded input is the first retained structure; a
	// memory budget that cannot even hold it trips here, prompting the
	// pipeline to sample rows instead of thrashing.
	if err := opts.Budget.Grow(8 * int64(enc.NumRows) * int64(n)); err != nil {
		return nil, nil, err
	}
	if enc.NumRows == 0 {
		result.Add(bitset.New(n), bitset.Full(n))
		return nil, result.Aggregate().Sort(), nil
	}
	maxLhs := opts.MaxLhs
	if maxLhs <= 0 || maxLhs > n {
		maxLhs = n
	}

	d := &discoverer{
		ctx:     ctx,
		done:    ctx.Done(),
		enc:     enc,
		n:       n,
		maxLhs:  maxLhs,
		tree:    fd.NewTree(n),
		tr:      opts.Budget,
		opts:    opts,
		serial:  new(scratch),
		full:    bitset.Full(n),
		outside: bitset.New(n),
	}
	// One persistent work-stealing pool serves the whole run: PLI
	// prewarm, pair sampling, and every validation level. Workers park
	// between batches instead of respawning per level.
	if workers := wsteal.Resolve(opts.Workers); workers > 1 {
		d.pool = wsteal.New(workers)
		d.workersSpawned = int64(workers)
		d.slots = make([]*scratch, workers)
		for i := range d.slots {
			d.slots[i] = new(scratch)
		}
	}
	if err := d.buildPLIs(sub); err != nil {
		d.close()
		return nil, nil, err
	}
	return d, nil, nil
}

// close stops the worker pool and reports the run's work counters.
func (d *discoverer) close() {
	if d.pool != nil {
		d.pool.Close()
	}
	d.flushCounters(observe.Or(d.opts.Observer))
}

// finish validates the seeded tree and returns its minimal cover,
// aggregated by left-hand side and deterministically sorted.
func (d *discoverer) finish() (*fd.Set, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	return minimize(d.tree.ToSet()).Aggregate().Sort(), nil
}

// minimize drops FDs that have a generalization in the same set. The
// induction phase inserts candidates after a generalization check only
// (no specialization eviction, matching HyFD), so a valid specialization
// can survive next to its later-inserted valid generalization; this
// final linear pass restores exact minimality.
func minimize(s *fd.Set) *fd.Set {
	s.Sort() // ascending LHS size: generalizations come first
	tries := make([]settrie.Trie, s.NumAttrs)
	out := fd.NewSet(s.NumAttrs)
	for _, f := range s.FDs {
		rhs := bitset.New(s.NumAttrs)
		f.Rhs.ForEach(func(a int) bool {
			if !tries[a].ContainsSubsetOf(f.Lhs) {
				tries[a].Insert(f.Lhs)
				rhs.Add(a)
			}
			return true
		})
		if !rhs.IsEmpty() {
			out.FDs = append(out.FDs, &fd.FD{Lhs: f.Lhs, Rhs: rhs})
		}
	}
	return out
}

type discoverer struct {
	ctx     context.Context
	done    <-chan struct{}
	enc     *relation.Encoded
	n       int
	maxLhs  int
	tree    *fd.Tree
	tr      *budget.Tracker
	handles []*plistore.Handle // per-attribute partitions, shared by workers
	sampler *sampler           // nil when revalidating
	opts    Options
	serial  *scratch     // intersection scratch of the serial validation path
	pool    *wsteal.Pool // nil on the serial path
	slots   []*scratch   // per-worker-slot intersection scratch
	full    *bitset.Set  // constant {0..n-1}, source for outside
	outside *bitset.Set  // induct's reusable ¬agree scratch

	// Revalidation state (see Revalidate); seeds is nil when
	// discovering from scratch. seeds holds each seed LHS's RHS
	// attributes not yet refuted; demoted counts the refuted ones.
	firstNew   int
	maxDemoted int64
	seeds      map[string]*bitset.Set
	demoted    int64

	// Work counters, flushed to the observer when discovery returns.
	// The atomics are shared with the parallel validation workers; the
	// plain fields are only touched by the coordinating goroutine.
	agreeSets         int64
	fdsInduced        int64
	violationsFound   int64
	workersSpawned    int64
	plisIntersected   atomic.Int64
	candidatesChecked atomic.Int64
}

// flushCounters reports the accumulated work to the observer under the
// fd-discovery stage. Called on every exit path, including
// cancellation, so interrupted runs still surface partial telemetry.
func (d *discoverer) flushCounters(obs observe.Observer) {
	flush := func(name string, v int64) {
		if v != 0 {
			obs.Counter(observe.Discovery, name, v)
		}
	}
	flush(observe.CounterAgreeSets, d.agreeSets)
	flush(observe.CounterFDsInduced, d.fdsInduced)
	flush(observe.CounterViolationsFound, d.violationsFound)
	flush(observe.CounterValidationWorkers, d.workersSpawned)
	flush(observe.CounterPLIsIntersected, d.plisIntersected.Load())
	flush(observe.CounterCandidatesChecked, d.candidatesChecked.Load())
	if d.pool != nil {
		flush(observe.CounterValidationSteals, d.pool.Steals())
	}
}

// canceled is the non-blocking cancellation poll of the hot loops.
func (d *discoverer) canceled() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// buildPLIs pulls the per-attribute partition handles from the shared
// substrate (building any that are missing) and prewarms each decoded
// partition's inverted index. The substrate's store owns their memory:
// a governed store charges (and evicts) the entries itself.
func (d *discoverer) buildPLIs(sub *plicache.Substrate) error {
	d.handles = make([]*plistore.Handle, d.n)
	build := func(a int) error {
		h, err := sub.Handle(a)
		if err != nil {
			return err
		}
		p, err := h.Acquire()
		if err != nil {
			return err
		}
		p.Inverted() // prewarm the row → cluster index
		h.Release()
		d.handles[a] = h
		return nil
	}
	if d.pool != nil {
		return d.pool.Run(d.ctx, "hyfd pli build", d.n, func(a, _ int) error {
			return build(a)
		}, nil)
	}
	for a := 0; a < d.n; a++ {
		if d.canceled() {
			return d.ctx.Err()
		}
		if err := build(a); err != nil {
			return err
		}
	}
	return nil
}

// sampleAndInduct runs the sampler for the given number of window
// rounds and folds every new agree set into the positive cover. With a
// pool the per-cluster pair comparisons run on the workers while the
// coordinator inducts earlier clusters' agree sets — the sets arrive
// in cluster order either way, so the cover evolves identically.
func (d *discoverer) sampleAndInduct(rounds int) error {
	i := 0
	return d.sampler.run(d.ctx, rounds, d.pool, func(s *bitset.Set) error {
		if i&63 == 0 && d.canceled() {
			return d.ctx.Err()
		}
		i++
		d.agreeSets++
		return d.induct(s)
	})
}

// induct updates the candidate tree with the non-FD evidence of one
// agree set S: every candidate X → A with X ⊆ S and A ∉ S is violated
// by the witnessing record pair; it is removed and specialized by every
// attribute outside S. Inserts check only for generalizations (like the
// original HyFD), so the tree may temporarily hold specializations of
// other candidates; Discover filters the final result for minimality.
//
// Every insert is charged against the budget tracker — this is the loop
// where the positive cover (and with it the memory footprint) explodes
// on pathological inputs, so the ceiling is enforced right here. A trip
// aborts induction with the *budget.Exceeded error. When revalidating,
// every removal of a seed FD is counted as a demotion.
func (d *discoverer) induct(agree *bitset.Set) error {
	violated := d.tree.ViolatedBy(agree)
	if len(violated) == 0 {
		return nil
	}
	var tripped error
	fdBytes := budget.FDBytes(d.n)
	outside := d.outside.CopyFrom(d.full).DifferenceWith(agree)
	for _, v := range violated {
		d.tree.RemoveRhs(v.Lhs, v.Rhs)
		if d.seeds != nil {
			if seed, ok := d.seeds[v.Lhs.Key()]; ok {
				if rm := seed.Intersect(v.Rhs).Cardinality(); rm > 0 {
					d.demoted += int64(rm)
					seed.DifferenceWith(v.Rhs)
				}
			}
		}
		if v.Lhs.Cardinality() >= d.maxLhs {
			continue
		}
		outside.ForEach(func(b int) bool {
			if v.Lhs.Contains(b) {
				return true
			}
			ext := v.Lhs.Clone().Add(b)
			v.Rhs.ForEach(func(a int) bool {
				if a == b {
					return true
				}
				if !d.tree.ContainsGeneralization(ext, a) {
					d.tree.Add(ext, a)
					d.fdsInduced++
					if err := d.tr.AddFDs(1); err != nil {
						tripped = err
						return false
					}
					if err := d.tr.Grow(fdBytes); err != nil {
						tripped = err
						return false
					}
				}
				return true
			})
			return tripped == nil
		})
		if tripped != nil {
			return tripped
		}
	}
	return nil
}

// agreeSet computes the attributes on which two rows agree.
func (d *discoverer) agreeSet(r1, r2 int) *bitset.Set {
	s := bitset.New(d.n)
	for a := 0; a < d.n; a++ {
		if d.enc.Columns[a][r1] == d.enc.Columns[a][r2] {
			s.Add(a)
		}
	}
	return s
}

// candidate is one left-hand side with its aggregated right-hand side,
// snapshot from a tree level.
type candidate struct {
	lhs *bitset.Set
	rhs *bitset.Set
}

// verdict is the validation outcome for one candidate.
type verdict struct {
	cand    candidate
	invalid *bitset.Set // rhs attributes the data refutes
	pairs   [][2]int    // one violating row pair per invalid attribute
}

// validate sweeps the candidate tree level by level. Candidates at or
// below the validated level are final; violations specialize upward, so
// the sweep terminates at maxLhs (or when the tree has no deeper
// level). A level with a high violation ratio triggers another sampling
// round first — the HyFD switching heuristic: sampling prunes many
// candidates per comparison, validation proves the survivors. A
// revalidation has no sampler; it stops with ErrTooManyDemoted once its
// demotions pass the cap.
func (d *discoverer) validate() error {
	const switchRatio = 0.1
	for level := 0; level <= d.tree.MaxLevel() && level <= d.maxLhs; level++ {
		if d.canceled() {
			return d.ctx.Err()
		}
		var cands []candidate
		d.tree.Level(level, func(lhs, rhs *bitset.Set) {
			cands = append(cands, candidate{lhs: lhs, rhs: rhs})
		})
		if len(cands) == 0 {
			continue
		}
		// process folds one verdict into the cover. It always runs on
		// the coordinating goroutine, in ascending candidate order —
		// serially after each check on the serial path, from the pool's
		// ordered commit on the parallel path — so the tree sees the
		// identical mutation sequence at every worker count.
		total, invalid := 0, 0
		process := func(v verdict) error {
			total += v.cand.rhs.Cardinality()
			if v.invalid == nil {
				return nil
			}
			invalid += v.invalid.Cardinality()
			d.violationsFound += int64(v.invalid.Cardinality())
			// Feed the violating pairs back as non-FD evidence; the
			// inductor removes the refuted candidates and specializes
			// them one level up. (A single pass per level suffices:
			// removals only hit refuted candidates, and every insert
			// lands at a deeper level than the candidate it replaces —
			// which is also why committing verdict i while candidates
			// j > i are still being checked is safe: checks read only
			// the immutable indexes, never the tree.)
			for _, p := range v.pairs {
				if err := d.induct(d.agreeSet(p[0], p[1])); err != nil {
					return err
				}
			}
			return nil
		}
		if err := d.check(cands, process); err != nil {
			return err
		}
		if d.canceled() {
			return d.ctx.Err()
		}
		if d.seeds != nil {
			if d.maxDemoted >= 0 && d.demoted > d.maxDemoted {
				return ErrTooManyDemoted
			}
			continue
		}
		// Switching heuristic: if validation found mostly garbage,
		// cheaper sampling likely prunes the next levels better.
		if invalid > 0 && float64(invalid)/float64(total) > switchRatio && d.sampler.hasMore() {
			if err := d.sampleAndInduct(2); err != nil {
				return err
			}
		}
	}
	return nil
}

// check validates the candidates of one level against the data and
// feeds every verdict — in candidate order — to process. With a pool
// the candidates are range-split across the persistent workers (idle
// workers steal from loaded ones), while the coordinator inducts
// verdicts as their turn comes instead of waiting for a level barrier.
// On cancellation the remaining candidates are skipped and the caller
// re-checks the context. A panic in a worker is recovered inside that
// goroutine and surfaces as a *guard.PanicError.
func (d *discoverer) check(cands []candidate, process func(verdict) error) error {
	if d.pool == nil || len(cands) < 8 {
		for _, c := range cands {
			if d.canceled() {
				return nil
			}
			var v verdict
			if err := guard.Run("hyfd validation", func() error {
				var err error
				v, err = d.checkOne(c, d.serial)
				return err
			}); err != nil {
				return err
			}
			if err := process(v); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]verdict, len(cands))
	return d.pool.Run(d.ctx, "hyfd validation worker", len(cands), func(i, slot int) error {
		var err error
		out[i], err = d.checkOne(cands[i], d.slots[slot])
		return err
	}, func(i int) error {
		return process(out[i])
	})
}

// scratch is one validation slot's intersection state: an Intersector
// and the two result Buffers a candidate's chain alternates between.
// Each verdict's chain is consumed inside checkOne, so a slot reuses
// both Buffers for every candidate it checks.
type scratch struct {
	ix   pli.Intersector
	bufs [2]pli.Buffer
}

// checkOne validates a single candidate: it materializes the LHS
// partition with the caller's scratch and tests refinement of every
// RHS column. Acquiring a partition handle can fail under a memory
// budget (a trip that eviction could not absorb), which surfaces as
// the error.
func (d *discoverer) checkOne(c candidate, sc *scratch) (verdict, error) {
	// One candidate per (LHS, RHS attribute) pair — the unit every
	// discovery algorithm reports, so counters compare across them.
	checked := int64(c.rhs.Cardinality())
	v := verdict{cand: c}
	if c.lhs.IsEmpty() {
		d.candidatesChecked.Add(checked)
		// ∅ → A means column A is constant.
		c.rhs.ForEach(func(a int) bool {
			if d.enc.Cardinality[a] != 1 {
				if v.invalid == nil {
					v.invalid = bitset.New(d.n)
				}
				v.invalid.Add(a)
				// Any two rows with different values violate ∅ → A.
				r1, r2 := d.firstDifferingRows(a)
				v.pairs = append(v.pairs, [2]int{r1, r2})
			}
			return true
		})
		return v, nil
	}
	p, release, err := d.pliFor(c.lhs, sc)
	if err != nil {
		return v, err
	}
	defer release()
	if p == nil {
		return v, nil // revalidating: no agreeing pair has an appended row
	}
	d.candidatesChecked.Add(checked)
	c.rhs.ForEach(func(a int) bool {
		if r1, r2 := p.FirstViolation(d.enc.Columns[a]); r1 >= 0 {
			if v.invalid == nil {
				v.invalid = bitset.New(d.n)
			}
			v.invalid.Add(a)
			v.pairs = append(v.pairs, [2]int{r1, r2})
		}
		return true
	})
	return v, nil
}

func (d *discoverer) firstDifferingRows(a int) (int, int) {
	col := d.enc.Columns[a]
	for i := 1; i < len(col); i++ {
		if col[i] != col[0] {
			return 0, i
		}
	}
	return 0, 0
}

// validationOrder returns the LHS attributes in the order pliFor
// intersects them: ascending partition error (most selective first, an
// O(1) comparison since Size is cached), ties broken by attribute
// index so the intersection order — and with it the result's cluster
// order — is deterministic.
func (d *discoverer) validationOrder(lhs *bitset.Set) []int {
	attrs := lhs.Elements()
	sort.Slice(attrs, func(i, j int) bool {
		ei, ej := d.handles[attrs[i]].Error(), d.handles[attrs[j]].Error()
		if ei != ej {
			return ei < ej
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

// pliFor intersects the single-column PLIs of the LHS, most selective
// first, so intermediate partitions shrink as fast as possible, each
// step into the other of sc's Buffers. The acquired handles stay pinned
// until the returned release is called — the candidate's partition
// chain must be fully consumed before then, and before sc's next use.
//
// When revalidating, only clusters holding a row at or after firstNew
// are kept after every step: any two rows agreeing on the LHS share a
// cluster of every partition on the way, and a pair of older rows
// cannot violate a candidate. A nil partition (with a non-nil release)
// means no cluster survived, so the candidate holds.
func (d *discoverer) pliFor(lhs *bitset.Set, sc *scratch) (*pli.PLI, func(), error) {
	attrs := d.validationOrder(lhs)
	acquired := make([]*plistore.Handle, 0, len(attrs))
	release := func() {
		for _, h := range acquired {
			h.Release()
		}
	}
	h0 := d.handles[attrs[0]]
	p, err := h0.Acquire()
	if err != nil {
		return nil, nil, err
	}
	acquired = append(acquired, h0)
	if d.firstNew > 0 {
		p = d.touched(p)
	}
	for i, a := range attrs[1:] {
		if p.IsUnique() {
			break
		}
		h := d.handles[a]
		pa, err := h.Acquire()
		if err != nil {
			release()
			return nil, nil, err
		}
		acquired = append(acquired, h)
		p = sc.ix.IntersectInto(&sc.bufs[i&1], p, pa.Inverted())
		d.plisIntersected.Add(1)
		if d.firstNew > 0 {
			p = d.dropOldOnly(p)
		}
	}
	if d.firstNew > 0 && p.IsUnique() {
		return nil, release, nil
	}
	return p, release, nil
}

// touched returns the clusters of a single-column partition that hold a
// row at or after firstNew, found through the appended rows' entries in
// the inverted index. An appended row stripped as a singleton agrees
// with no other row and needs no cluster.
func (d *discoverer) touched(p *pli.PLI) *pli.PLI {
	inv := p.Inverted()
	var ids []int
	for r := d.firstNew; r < d.enc.NumRows; r++ {
		if id := inv[r]; id >= 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	all := p.Clusters()
	keep := make([][]int, 0, len(ids))
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			keep = append(keep, all[id])
		}
	}
	return pli.FromClusters(d.enc.NumRows, keep)
}

// dropOldOnly strips the clusters made up entirely of rows before
// firstNew. Rows stay ascending within a cluster through every
// intersection, so a cluster holds an appended row iff its last row is
// one.
func (d *discoverer) dropOldOnly(p *pli.PLI) *pli.PLI {
	clusters := p.Clusters()
	keep := make([][]int, 0, len(clusters))
	for _, c := range clusters {
		if c[len(c)-1] >= d.firstNew {
			keep = append(keep, c)
		}
	}
	if len(keep) == len(clusters) {
		return p
	}
	return pli.FromClusters(p.NumRows(), keep)
}
