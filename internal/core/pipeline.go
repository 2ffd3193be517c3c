package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/closure"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/ucc"
	"normalize/internal/fd"
	"normalize/internal/keys"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/scoring"
	"normalize/internal/violation"
	"normalize/internal/wsteal"
)

// ClosureAlgorithm selects the closure variant (Section 4); the
// optimized algorithm is correct for the complete minimal covers FD
// discovery produces and is the default.
type ClosureAlgorithm int

const (
	// ClosureOptimized is Algorithm 3 (requires complete minimal covers).
	ClosureOptimized ClosureAlgorithm = iota
	// ClosureImproved is Algorithm 2 (arbitrary FD sets).
	ClosureImproved
	// ClosureNaive is Algorithm 1 (baseline).
	ClosureNaive
)

// Options configures the normalization pipeline.
type Options struct {
	// Mode selects the target normal form (BCNF by default).
	Mode violation.Mode
	// Decider drives the semi-automatic decisions; nil means fully
	// automatic (top-ranked candidates).
	Decider Decider
	// MaxLhs prunes discovered FDs to left-hand sides of at most this
	// size (0 = unbounded); Section 4.3's memory safeguard.
	MaxLhs int
	// Workers bounds the run's parallelism: closure computation, the
	// worker pools of FD discovery and violating-FD scoring. 0 means
	// GOMAXPROCS; 1 forces a fully serial run. Results are identical for
	// every worker count — parallel stages merge their verdicts
	// deterministically.
	Workers int
	// Closure selects the closure algorithm (optimized by default).
	Closure ClosureAlgorithm
	// Timeout bounds the wall-clock duration of one normalization run
	// (0 = unbounded). It composes with the caller's context: whichever
	// deadline is earlier wins. An expired run returns the partial
	// result accumulated so far together with a *PartialError wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration
	// Budget bounds the resources of one run; the zero value is
	// unlimited. Tripping a ceiling degrades the run deterministically
	// (see Result.Degradations) before giving up; when the ladder is
	// exhausted the run returns its partial result with a
	// *PartialError wrapping the *budget.Exceeded trip.
	Budget Budget
	// Discover overrides the FD discovery step; nil uses HyFD. Every
	// returned FD must hold on the relation it is given, because splits
	// rely on it: the remainder of a split is materialized without
	// removing duplicate rows. The returned set must be the complete set
	// of minimal FDs (subject to MaxLhs) when the optimized closure is
	// selected. Custom discovery functions do not see Budget's FD/memory
	// ceilings (only the built-in HyFD path does); row sampling still
	// applies.
	Discover func(rel *relation.Relation) *fd.Set
	// DiscoverContext is the cancellable form of Discover and takes
	// precedence over it when both are set.
	DiscoverContext func(ctx context.Context, rel *relation.Relation) (*fd.Set, error)
	// Observer receives stage start/finish events and work counters
	// from every pipeline component; nil means no instrumentation.
	Observer observe.Observer
	// SpillDir is the directory for the PLI store's transient spill
	// file; empty means the OS temp dir. Consulted only when
	// Budget.MaxMemoryBytes is set — an unconstrained run keeps every
	// partition resident and never creates a spill file.
	SpillDir string
	// ScoreSeed pre-fills the run's exact scoring facts (distinct counts
	// and max value lengths per attribute set, universal index space).
	// The delta plane maintains a parent run's ScoreMemo incrementally
	// over the appended rows and seeds it here, so candidate selection
	// skips re-measuring facts the parent already knows. Seeded values
	// must be exact for the run's (deduplicated) input instance; the run
	// computes any missing set itself.
	ScoreSeed *ScoreMemo
}

// Stats reports the measurements the paper's evaluation tracks
// (Table 3): per-component runtimes and the FD-set characteristics.
type Stats struct {
	Attrs   int
	Records int
	// NumFDs is the number of minimal single-RHS FDs discovered.
	NumFDs int
	// NumFDKeys is the number of keys directly derivable from the
	// extended FDs (column "FD-Keys").
	NumFDKeys int
	// AvgRhsBefore/After are the mean aggregated-RHS sizes before and
	// after closure (the quantity explaining the optimized algorithm's
	// advantage in Section 8.2).
	AvgRhsBefore, AvgRhsAfter float64

	Discovery     time.Duration // component (1)
	Closure       time.Duration // component (2)
	KeyDerivation time.Duration // component (3), first call
	Violation     time.Duration // component (4), first call

	Decompositions int
}

// Result is the outcome of normalizing one relation.
type Result struct {
	Tables []*Table
	Stats  Stats
	// Degradations lists the quality reductions the run applied to stay
	// inside its budget or to survive stage crashes, in the order they
	// occurred. Empty for an undegraded run. A run can complete (nil
	// error) with degradations; a run that stopped early additionally
	// returns a *PartialError.
	Degradations []Degradation
	// Cover is the minimal FD cover as discovery produced it, before
	// closure extension mutates right-hand sides. The delta plane seeds
	// its re-validation tree from it; nil when the run stopped before
	// discovery finished.
	Cover *fd.Set
	// ScoreMemo holds the exact scoring facts the run measured, for a
	// later delta run to maintain incrementally (Options.ScoreSeed).
	// Nil when the run stopped before candidate selection could begin.
	ScoreMemo *ScoreMemo
}

// NormalizeRelation runs the full pipeline of Figure 1 on one relation
// instance and returns the normalized schema with materialized
// instances, keys, and foreign keys.
func NormalizeRelation(rel *relation.Relation, opts Options) (*Result, error) {
	return NormalizeRelationContext(context.Background(), rel, opts)
}

// NormalizeRelationContext is NormalizeRelation with cancellation,
// instrumentation, and graceful degradation.
//
// Cancellation: every pipeline component polls ctx (the call returns
// promptly — within ~100ms — when the context ends mid-pipeline) and
// reports stage spans plus work counters to opts.Observer. A stage
// whose span never finishes was interrupted; the observe.Recorder
// marks it as such, so partial telemetry of a cancelled run remains
// meaningful.
//
// Partial results: when the run stops early — context end, Timeout,
// budget ladder exhausted, stage panic — the error is a *PartialError
// and the returned *Result is still non-nil and usable: its Tables are
// a lossless decomposition of the (possibly sampled) input, with
// not-yet-processed tables included undecomposed. Only a context that
// is already dead on entry, an empty relation, or a failing custom
// discovery function yield a nil result.
//
// Panic isolation: every stage boundary recovers panics (from the
// stage itself, its worker goroutines, or an observer seam) and
// converts them into stage-attributed *StageError values carrying the
// recovered value and stack. A panic in a per-table stage of the
// decomposition loop only costs that table its further decomposition;
// the run continues and reports the crash through the *PartialError.
func NormalizeRelationContext(ctx context.Context, rel *relation.Relation, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if rel.NumAttrs() == 0 {
		return nil, fmt.Errorf("normalize %s: relation has no attributes", rel.Name)
	}
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	decider := opts.Decider
	if decider == nil {
		decider = AutoDecider{}
	}
	// The run's PLI store holds every partition its engines retain, and
	// its regime follows the budget. Under a memory ceiling it is
	// governed: retained partitions rest delta-varint compressed, and
	// under pressure cold ones spill to a transient file or are dropped
	// for recompute instead of tripping the budget — discovery
	// completes exactly where it used to sample. Without one it is
	// resident: every partition stays flat and uncharged, with no
	// compression cost.
	tr := opts.Budget.tracker()
	st := plistore.New(tr, opts.SpillDir)
	defer st.Close()
	p := &run{
		opts:    opts,
		obs:     observe.Or(opts.Observer),
		decider: decider,
		tr:      tr,
		res:     &Result{},
		st:      st,
		cache:   plicache.NewCache(st),
	}
	defer func() {
		if p.pool != nil {
			p.pool.Close()
		}
	}()
	p.res.Stats.Attrs = rel.NumAttrs()
	p.res.Stats.Records = rel.NumRows()

	// Budget rung 0: a row ceiling reduces the input upfront by
	// deterministic stride sampling. The whole run — including the
	// materialized output — operates on the sample, so the resulting
	// decomposition is lossless with respect to the data it reports.
	if max := opts.Budget.MaxRows; max > 0 && rel.NumRows() > max {
		sampled := sampleRows(rel, max)
		p.degrade(observe.Discovery, budget.ResourceRows, "sampled rows",
			fmt.Sprintf("%d of %d rows retained by stride sampling", sampled.NumRows(), rel.NumRows()))
		rel = sampled
	}

	return p.normalize(ctx, rel)
}

// run carries the state of one NormalizeRelationContext invocation.
type run struct {
	opts    Options
	obs     observe.Observer
	decider Decider
	tr      *budget.Tracker
	res     *Result

	// cache is the run's shared PLI/encoding substrate: every stage that
	// profiles a relation instance — FD discovery, primary-key UCC
	// discovery — draws its dictionary encoding and single-column PLIs
	// from here, and decomposition registers the children's substrates
	// derived from the parent's codes instead of re-encoding strings.
	cache *plicache.Cache
	// st is the PLI store behind the cache's substrates.
	st *plistore.Store
	// scores memoizes the exact per-attribute-set facts behind candidate
	// scoring, bound to the root instance after buildRoot.
	scores *scoreIndex
	// pool runs the batched score measurement and primary-key
	// selection's lattice levels; created on first use (workPool), nil
	// for a serial run.
	pool *wsteal.Pool
	// timedKeys and timedViolation record that Stats.KeyDerivation and
	// Stats.Violation hold their stage's first call.
	timedKeys, timedViolation bool

	// firstStageErr remembers the first tolerated stage crash so a run
	// that continued past per-table panics still reports them.
	firstStageErr *StageError
}

func (p *run) degrade(stage observe.Stage, resource, action, detail string) {
	p.res.Degradations = append(p.res.Degradations, Degradation{
		Stage: stage, Budget: resource, Action: action, Detail: detail,
	})
}

// noteStageErr records a tolerated stage crash (first one wins).
func (p *run) noteStageErr(err error) {
	if p.firstStageErr != nil {
		return
	}
	var se *StageError
	if asStageError(err, &se) {
		p.firstStageErr = se
	}
}

// partial finalizes an early stop: any tables passed in flush are
// appended undecomposed (preserving the worklist invariant that
// res.Tables plus the outstanding worklist is a lossless
// decomposition), the stop itself is recorded as a degradation, and
// the cause is wrapped in a *PartialError.
func (p *run) partial(stage observe.Stage, cause error, flush ...*Table) (*Result, error) {
	for _, t := range flush {
		if t != nil {
			p.res.Tables = append(p.res.Tables, t)
		}
	}
	p.degrade(stage, stopResource(cause), "run stopped early",
		fmt.Sprintf("partial result with %d tables: %v", len(p.res.Tables), cause))
	return p.res, &PartialError{Stage: stage, Cause: cause}
}

func (p *run) normalize(ctx context.Context, rel *relation.Relation) (*Result, error) {
	res := p.res
	obs := p.obs

	// (1) FD discovery, with the budget degradation ladder.
	fds, rel, err := p.discoverFDs(ctx, rel)
	if err != nil {
		// Lossless trivially: the sole table is the input itself.
		return p.partial(observe.Discovery, err, p.buildRoot(rel, fd.NewSet(rel.NumAttrs())))
	}

	// Snapshot the minimal cover before closure extends its right-hand
	// sides in place: the delta plane re-validates exactly this set.
	res.Cover = fds.Clone()

	// (2) Closure calculation.
	if err := p.computeClosure(ctx, fds); err != nil {
		return p.partial(observe.Closure, err, p.buildRoot(rel, fds))
	}

	root := p.buildRoot(rel, fds)
	p.scores = newScoreIndex(root.Data, p.opts.ScoreSeed)
	usedNames := map[string]bool{root.Name: true}

	// (3)–(6) loop: key derivation, violation detection, selection,
	// decomposition.
	if flush, stage, err := p.decompose(ctx, root, []*Table{root}, usedNames); err != nil {
		return p.partial(stage, err, flush...)
	}

	// (7) Primary key selection for tables that never received one. A
	// chosen key protects its attributes from later splits (Algorithm
	// 4), which can make an FD the loop skipped — its RHS would have torn
	// a foreign key apart — actionable; requeue collects such tables.
	var requeue []*Table
	perr := runStage(observe.PrimaryKey, func() error {
		obs.StageStart(observe.PrimaryKey)
		start := time.Now()
		for _, t := range res.Tables {
			if t.PrimaryKey != nil {
				continue
			}
			if err := selectPrimaryKey(ctx, t, p.decider, p.opts.Observer, p.cache, p.workPool()); err != nil {
				if ex, ok := isBudgetTrip(err); ok {
					// A trip skips the remaining tables; without a
					// primary key they stay as the loop left them.
					p.degrade(observe.PrimaryKey, ex.Resource, "primary-key selection skipped",
						fmt.Sprintf("budget %s at %d/%d; remaining tables keep derived keys only", ex.Resource, ex.Used, ex.Limit))
					break
				}
				return err // span stays open: interrupted
			}
			if t.PrimaryKey != nil && len(p.detect(t)) > 0 {
				requeue = append(requeue, t)
			}
		}
		obs.StageFinish(observe.PrimaryKey, time.Since(start))
		return nil
	})
	if perr != nil {
		if !isPanic(perr) {
			return p.partial(observe.PrimaryKey, perr)
		}
		p.degrade(observe.PrimaryKey, "panic", "primary-key selection skipped", perr.Error())
		p.noteStageErr(perr)
		requeue = nil
	}

	// Each requeued table goes back through the loop, its parts taking
	// its place in the result. Every part inherits the table's primary
	// key or receives its split's LHS as one, so none needs step (7).
	if len(requeue) > 0 {
		tables := res.Tables
		res.Tables = make([]*Table, 0, len(tables))
		for i, t := range tables {
			if !slices.Contains(requeue, t) {
				res.Tables = append(res.Tables, t)
				continue
			}
			if flush, stage, err := p.decompose(ctx, root, []*Table{t}, usedNames); err != nil {
				return p.partial(stage, err, append(flush, tables[i+1:]...)...)
			}
		}
	}

	p.flushCacheStats()
	res.ScoreMemo = p.scores.memo()
	if p.firstStageErr != nil {
		return res, &PartialError{Stage: p.firstStageErr.Stage, Cause: p.firstStageErr}
	}
	return res, nil
}

// decompose runs the loop of components (3)–(6) until the worklist is
// empty, appending every finished table to the result. Invariant:
// res.Tables ∪ worklist is at all times a lossless decomposition of the
// (possibly sampled) input, so an early stop can always flush the
// worklist into a usable result: the stop returns the tables to flush
// with its stage and cause.
func (p *run) decompose(ctx context.Context, root *Table, worklist []*Table, usedNames map[string]bool) ([]*Table, observe.Stage, error) {
	res := p.res
	obs := p.obs
	done := ctx.Done()
	for len(worklist) > 0 {
		select {
		case <-done:
			return worklist, observe.KeyDerivation, ctx.Err()
		default:
		}
		t := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]

		var start time.Time
		kerr := runStage(observe.KeyDerivation, func() error {
			obs.StageStart(observe.KeyDerivation)
			start = time.Now()
			t.Keys = keys.Derive(t.FDs, t.Attrs)
			if !p.timedKeys {
				res.Stats.KeyDerivation = time.Since(start)
				res.Stats.NumFDKeys = len(t.Keys)
				p.timedKeys = true
			}
			obs.Counter(observe.KeyDerivation, observe.CounterKeysDerived, int64(len(t.Keys)))
			obs.StageFinish(observe.KeyDerivation, time.Since(start))
			return nil
		})
		if p.acceptOnCrash(kerr, t) {
			continue
		} else if kerr != nil {
			return append([]*Table{t}, worklist...), observe.KeyDerivation, kerr
		}

		var viol []*fd.FD
		verr := runStage(observe.Violation, func() error {
			obs.StageStart(observe.Violation)
			start = time.Now()
			viol = p.detect(t)
			if !p.timedViolation {
				res.Stats.Violation = time.Since(start)
				p.timedViolation = true
			}
			obs.Counter(observe.Violation, observe.CounterViolationsFound, int64(len(viol)))
			obs.StageFinish(observe.Violation, time.Since(start))
			return nil
		})
		if p.acceptOnCrash(verr, t) {
			continue
		} else if verr != nil {
			return append([]*Table{t}, worklist...), observe.Violation, verr
		}

		if len(viol) == 0 {
			res.Tables = append(res.Tables, t)
			continue
		}

		// The selection span deliberately includes the decider call, so
		// interactive runs expose the human decision time per split.
		var chosen *fd.FD
		serr := runStage(observe.Selection, func() error {
			obs.StageStart(observe.Selection)
			start = time.Now()
			ranked, err := p.rankViolatingFDs(ctx, t, viol)
			if err != nil {
				return err // span stays open: interrupted
			}
			obs.Counter(observe.Selection, observe.CounterCandidatesScored, int64(len(ranked)))
			choice, pruneRhs := p.decider.ChooseViolatingFD(t, ranked)
			obs.StageFinish(observe.Selection, time.Since(start))
			if choice < 0 || choice >= len(ranked) {
				return nil // the user rejected every split
			}
			c := ranked[choice].FD.Clone()
			if pruneRhs != nil {
				c.Rhs.DifferenceWith(pruneRhs)
			}
			if !c.Rhs.IsEmpty() {
				chosen = c
			}
			return nil
		})
		if p.acceptOnCrash(serr, t) {
			continue
		} else if serr != nil {
			return append([]*Table{t}, worklist...), observe.Selection, serr
		}
		if chosen == nil {
			// No split chosen: accept the table as is.
			res.Tables = append(res.Tables, t)
			continue
		}

		derr := runStage(observe.Decomposition, func() error {
			obs.StageStart(observe.Decomposition)
			start = time.Now()
			r1, r2, err := DecomposeContext(ctx, t, chosen, usedNames)
			if err != nil {
				return err // span stays open: interrupted
			}
			p.deriveChildSubstrates(r1, r2)
			rows := int64(r1.Data.NumRows() + r2.Data.NumRows())
			res.Stats.Decompositions++
			obs.Counter(observe.Decomposition, observe.CounterDecompositions, 1)
			obs.Counter(observe.Decomposition, observe.CounterRowsMaterialized, rows)
			obs.StageFinish(observe.Decomposition, time.Since(start))
			worklist = append(worklist, r1, r2)
			// The two projections retain new materialized instances
			// (approximated as a string header per cell), while the
			// parent's — unless it is the input root, which was never
			// charged because the caller's relation exists regardless —
			// becomes garbage with this split. Refund it so the tracker
			// carries the live decomposition tree, not the cumulative
			// sum over every intermediate table ever materialized.
			if t != root {
				p.tr.Grow(-16 * int64(t.Data.NumRows()) * int64(t.Data.NumAttrs()))
			}
			return p.tr.Grow(16 * (int64(r1.Data.NumRows())*int64(r1.Data.NumAttrs()) +
				int64(r2.Data.NumRows())*int64(r2.Data.NumAttrs())))
		})
		switch {
		case derr == nil:
		case p.acceptOnCrash(derr, t):
			continue
		default:
			if ex, ok := isBudgetTrip(derr); ok {
				// The trip fires after the split landed on the worklist,
				// so t is already replaced by its two halves. Every
				// prefix of the decomposition loop is lossless: stop
				// splitting and flush what remains.
				p.degrade(observe.Decomposition, ex.Resource, "stopped decomposing",
					fmt.Sprintf("budget %s at %d/%d; remaining tables kept undecomposed", ex.Resource, ex.Used, ex.Limit))
				return worklist, observe.Decomposition, derr
			}
			// Context end mid-split: the halves were never enqueued, so
			// t itself must be flushed alongside the worklist.
			return append([]*Table{t}, worklist...), observe.Decomposition, derr
		}
	}
	return nil, "", nil
}

// detect runs violation detection (Algorithm 4) on t's current keys and
// constraints.
func (p *run) detect(t *Table) []*fd.FD {
	return violation.Detect(violation.Input{
		FDs:         t.FDs,
		Keys:        t.Keys,
		RelAttrs:    t.Attrs,
		NullAttrs:   t.NullAttrs,
		PrimaryKey:  t.PrimaryKey,
		ForeignKeys: foreignKeySets(t),
		Mode:        p.opts.Mode,
	})
}

// flushCacheStats reports the substrate cache's work — full encodes,
// code-level derivations, cache hits — under the discovery stage (the
// stage that builds the first substrate).
func (p *run) flushCacheStats() {
	builds, derives, hits := p.cache.Stats()
	if builds != 0 {
		p.obs.Counter(observe.Discovery, observe.CounterSubstrateBuilds, builds)
	}
	if derives != 0 {
		p.obs.Counter(observe.Discovery, observe.CounterSubstrateDerived, derives)
	}
	if hits != 0 {
		p.obs.Counter(observe.Discovery, observe.CounterSubstrateHits, hits)
	}
	p.st.FlushCounters(p.obs, observe.Discovery)
}

// deriveChildSubstrates registers the two projections' substrates.
// DecomposeContext derived the children's encodings from the parent's
// integer codes, so their substrates are free and no later stage
// re-encodes the children's strings.
func (p *run) deriveChildSubstrates(r1, r2 *Table) {
	for _, child := range []*Table{r1, r2} {
		p.cache.PutDerived(child.Data)
	}
}

// acceptOnCrash handles a tolerated per-table stage crash: the table is
// accepted into the result undecomposed (sound — it is part of a
// lossless decomposition already) and the crash is recorded for the
// final *PartialError. Reports false for nil and non-panic errors.
func (p *run) acceptOnCrash(err error, t *Table) bool {
	if err == nil || !isPanic(err) {
		return false
	}
	var se *StageError
	stage := observe.Stage("unknown")
	if asStageError(err, &se) {
		stage = se.Stage
	}
	p.degrade(stage, "panic", "table accepted undecomposed",
		fmt.Sprintf("table %s: %v", t.Name, err))
	p.noteStageErr(err)
	p.res.Tables = append(p.res.Tables, t)
	return true
}

// discoverFDs runs component (1) under the budget degradation ladder:
// on a budget trip it tightens MaxLhs rung by rung (Section 4.3's
// pruning — the result stays a complete cover within the bound), then
// halves the rows by stride sampling, resetting the tracker between
// attempts; the ladder is deterministic. It returns the discovered set
// and the (possibly re-sampled) relation the rest of the run must use.
func (p *run) discoverFDs(ctx context.Context, rel *relation.Relation) (*fd.Set, *relation.Relation, error) {
	obs := p.obs
	res := p.res
	builtin := p.opts.DiscoverContext == nil && p.opts.Discover == nil
	maxLhs := p.opts.MaxLhs
	rungs := lhsLadder(maxLhs, rel.NumAttrs())
	halvings := 0

	for {
		var fds *fd.Set
		err := runStage(observe.Discovery, func() error {
			obs.StageStart(observe.Discovery)
			start := time.Now()
			var derr error
			switch {
			case p.opts.DiscoverContext != nil:
				fds, derr = p.opts.DiscoverContext(ctx, rel)
			case p.opts.Discover != nil:
				fds = p.opts.Discover(rel)
			default:
				var sub *plicache.Substrate
				if sub, derr = p.cache.For(ctx, rel); derr == nil {
					fds, derr = hyfd.DiscoverContext(ctx, rel, hyfd.Options{
						MaxLhs: maxLhs, Workers: p.opts.Workers,
						Substrate: sub,
						Observer:  p.opts.Observer, Budget: p.tr,
					})
				}
			}
			if derr != nil {
				if _, ok := isBudgetTrip(derr); ok {
					// The stage ends here (degraded), not interrupted:
					// close its span before the ladder retries.
					obs.StageFinish(observe.Discovery, time.Since(start))
				}
				return derr // otherwise the span stays open: interrupted
			}
			res.Stats.Discovery = time.Since(start)
			res.Stats.NumFDs = fds.CountSingle()
			res.Stats.AvgRhsBefore = fds.AverageRhsSize()
			obs.Counter(observe.Discovery, observe.CounterFDsDiscovered, int64(res.Stats.NumFDs))
			obs.StageFinish(observe.Discovery, res.Stats.Discovery)
			return nil
		})
		if err == nil {
			return fds, rel, nil
		}
		ex, trip := isBudgetTrip(err)
		if !trip {
			return nil, rel, err // context end, panic, or custom-discovery failure
		}
		p.tr.Reset()
		// The store's entries survive the retry (the substrate cache still
		// holds them); re-base their live charges on the fresh tracker so
		// the next attempt accounts for what is already resident.
		p.st.Recharge()
		switch {
		case builtin && len(rungs) > 0:
			maxLhs = rungs[0]
			rungs = rungs[1:]
			p.degrade(observe.Discovery, ex.Resource, "tightened max-lhs",
				fmt.Sprintf("budget %s at %d/%d; retrying with max-lhs %d", ex.Resource, ex.Used, ex.Limit, maxLhs))
		case rel.NumRows() > 1 && halvings < 3:
			halvings++
			sampled := sampleRows(rel, rel.NumRows()/2)
			p.degrade(observe.Discovery, ex.Resource, "halved rows",
				fmt.Sprintf("budget %s at %d/%d; retrying on %d of %d rows", ex.Resource, ex.Used, ex.Limit, sampled.NumRows(), rel.NumRows()))
			rel = sampled
		default:
			return nil, rel, err // ladder exhausted
		}
	}
}

// computeClosure runs component (2). Degradations: a panic in the
// optimized algorithm falls back to the improved one (which accepts
// arbitrary — including partially extended — FD sets); a budget trip
// accepts the partially extended cover, which is sound because closure
// extension only ever adds implied attributes to right-hand sides.
func (p *run) computeClosure(ctx context.Context, fds *fd.Set) error {
	obs := p.obs
	res := p.res
	algo := p.opts.Closure
	for {
		err := runStage(observe.Closure, func() error {
			obs.StageStart(observe.Closure)
			start := time.Now()
			rhsBefore := totalRhsSize(fds)
			var cerr error
			switch algo {
			case ClosureImproved:
				_, cerr = closure.ImprovedParallelBudget(ctx, fds, p.opts.Workers, p.tr)
			case ClosureNaive:
				_, cerr = closure.NaiveBudget(ctx, fds, p.tr)
			default:
				_, cerr = closure.OptimizedParallelBudget(ctx, fds, p.opts.Workers, p.tr)
			}
			if ex, ok := isBudgetTrip(cerr); ok {
				p.degrade(observe.Closure, ex.Resource, "partial closure accepted",
					fmt.Sprintf("budget %s at %d/%d; cover left partially extended (sound)", ex.Resource, ex.Used, ex.Limit))
				cerr = nil
			}
			if cerr != nil {
				return cerr // span stays open: interrupted
			}
			res.Stats.Closure = time.Since(start)
			res.Stats.AvgRhsAfter = fds.AverageRhsSize()
			obs.Counter(observe.Closure, observe.CounterRhsAttrsAdded, totalRhsSize(fds)-rhsBefore)
			obs.StageFinish(observe.Closure, res.Stats.Closure)
			return nil
		})
		if err == nil {
			return nil
		}
		if isPanic(err) && algo == ClosureOptimized {
			// The optimized algorithm assumes a complete minimal cover; a
			// crash mid-extension leaves an arbitrary set, exactly what
			// the improved algorithm is specified for.
			p.degrade(observe.Closure, "panic", "improved-closure fallback", err.Error())
			p.noteStageErr(err)
			algo = ClosureImproved
			continue
		}
		return err
	}
}

// buildRoot materializes the root table over the whole (possibly
// sampled) relation, set semantics.
func (p *run) buildRoot(rel *relation.Relation, fds *fd.Set) *Table {
	n := rel.NumAttrs()
	nullAttrs := bitset.New(n)
	for c := 0; c < n; c++ {
		if rel.HasNull(c) {
			nullAttrs.Add(c)
		}
	}
	// The dedup copy's encoding is derived from rel's integer codes, so
	// it is the root's substrate as it stands.
	data := rel.DedupCopy(rel.Name)
	p.cache.PutDerived(data)
	return &Table{
		Name:        rel.Name,
		Attrs:       bitset.Full(n),
		Data:        data,
		FDs:         fds,
		NullAttrs:   nullAttrs,
		universe:    n,
		sourceAttrs: rel.Attrs,
	}
}

// sampleRows reduces rel to at most max rows by deterministic stride
// sampling (every k-th row starting at the first).
func sampleRows(rel *relation.Relation, max int) *relation.Relation {
	if max < 1 {
		max = 1
	}
	if rel.NumRows() <= max {
		return rel
	}
	stride := (rel.NumRows() + max - 1) / max
	keep := make([]int, 0, max)
	for i := 0; i < rel.NumRows() && len(keep) < max; i += stride {
		keep = append(keep, i)
	}
	return rel.SelectRows(rel.Name, keep)
}

// lhsLadder returns the MaxLhs degradation rungs strictly tighter than
// the configured start (0 = unbounded).
func lhsLadder(start, n int) []int {
	cur := start
	if cur <= 0 || cur > n {
		cur = n
	}
	var rungs []int
	for _, r := range []int{4, 2, 1} {
		if r < cur {
			rungs = append(rungs, r)
			cur = r
		}
	}
	return rungs
}

// NormalizeRelations normalizes every relation of a dataset
// independently, concatenating the resulting tables. Stats are summed;
// the per-component durations accumulate across relations.
func NormalizeRelations(rels []*relation.Relation, opts Options) (*Result, error) {
	return NormalizeRelationsContext(context.Background(), rels, opts)
}

// NormalizeRelationsContext is NormalizeRelations with cancellation and
// instrumentation; see NormalizeRelationContext. A relation that stops
// early contributes its partial tables and degradations to the total,
// and the *PartialError is returned with the accumulated result.
func NormalizeRelationsContext(ctx context.Context, rels []*relation.Relation, opts Options) (*Result, error) {
	total := &Result{}
	// The RHS averages are means over every relation's aggregated FDs:
	// each relation weighs in with its aggregated-FD count,
	// NumFDs/AvgRhsBefore, recovered as the integer it is.
	var aggregated, rhsAfter int64
	for _, rel := range rels {
		r, err := NormalizeRelationContext(ctx, rel, opts)
		if r != nil {
			// Cover and ScoreMemo are facts about ONE relation's instance;
			// a multi-relation total has no single cover, so the delta-plane
			// seed survives only the single-input case (exactly what an
			// append can later extend).
			if len(rels) == 1 {
				total.Cover, total.ScoreMemo = r.Cover, r.ScoreMemo
			}
			total.Tables = append(total.Tables, r.Tables...)
			total.Degradations = append(total.Degradations, r.Degradations...)
			total.Stats.Attrs += r.Stats.Attrs
			total.Stats.Records += r.Stats.Records
			total.Stats.NumFDs += r.Stats.NumFDs
			total.Stats.NumFDKeys += r.Stats.NumFDKeys
			total.Stats.Discovery += r.Stats.Discovery
			total.Stats.Closure += r.Stats.Closure
			total.Stats.KeyDerivation += r.Stats.KeyDerivation
			total.Stats.Violation += r.Stats.Violation
			total.Stats.Decompositions += r.Stats.Decompositions
			if r.Stats.AvgRhsBefore > 0 {
				k := math.Round(float64(r.Stats.NumFDs) / r.Stats.AvgRhsBefore)
				aggregated += int64(k)
				rhsAfter += int64(math.Round(r.Stats.AvgRhsAfter * k))
				total.Stats.AvgRhsBefore = float64(total.Stats.NumFDs) / float64(aggregated)
				total.Stats.AvgRhsAfter = float64(rhsAfter) / float64(aggregated)
			}
		}
		if err != nil {
			if r != nil {
				return total, err
			}
			return nil, err
		}
	}
	return total, nil
}

// totalRhsSize sums the aggregated RHS cardinalities, the quantity the
// closure stage grows.
func totalRhsSize(fds *fd.Set) int64 {
	var sum int64
	for _, f := range fds.FDs {
		sum += int64(f.Rhs.Cardinality())
	}
	return sum
}

func foreignKeySets(t *Table) []*bitset.Set {
	out := make([]*bitset.Set, len(t.ForeignKeys))
	for i, fk := range t.ForeignKeys {
		out[i] = fk.Attrs
	}
	return out
}

// rankViolatingFDs scores the violating FDs (Section 7.2) and annotates
// shared RHS attributes. Length and position features come from the
// FD's layout in the table's local index space; the data-dependent
// features — max LHS value length and distinct counts — come from the
// run's exact score index, which memoizes them per universal attribute
// set (they are projection-invariant, so the root-level facts are the
// table-level facts). Exact counts replace the paper's Bloom sketch
// here: the index measures every set the table's FDs need in one
// batched prefix walk over single-column PLIs (scoreIndex.measure) on
// the run's pool, instead of one row scan per candidate, and exactness
// is what lets a delta run (internal/delta) reproduce the scores
// without touching the base rows.
func (p *run) rankViolatingFDs(ctx context.Context, t *Table, viol []*fd.FD) ([]RankedFD, error) {
	if err := p.scores.measure(ctx, p.workPool(), viol); err != nil {
		return nil, err
	}
	// An RHS attribute is shared when at least two violating FDs' RHSs
	// hold it.
	occurs := make([]int, t.universe)
	for _, v := range viol {
		v.Rhs.ForEach(func(a int) bool {
			occurs[a]++
			return true
		})
	}
	rows, numAttrs := t.Data.NumRows(), t.Data.NumAttrs()
	ranked := make([]RankedFD, len(viol))
	for i, v := range viol {
		shared := bitset.New(v.Rhs.Size())
		v.Rhs.ForEach(func(a int) bool {
			if occurs[a] > 1 {
				shared.Add(a)
			}
			return true
		})
		ranked[i] = RankedFD{
			FD:        v,
			Score:     scoring.FDScoreFromFacts(t.localFD(v), p.scores.facts(v.Lhs, v.Rhs, rows, numAttrs)),
			SharedRhs: shared,
		}
	}
	sortRankedFDs(ranked)
	return ranked, nil
}

// workPool returns the run's work-stealing pool, created on first use
// and sized by the Workers option like HyFD's (wsteal.Resolve); nil
// when the run is serial. NormalizeRelationContext closes it when the
// run returns.
func (p *run) workPool() *wsteal.Pool {
	if p.pool == nil {
		if w := wsteal.Resolve(p.opts.Workers); w > 1 {
			p.pool = wsteal.New(w)
		}
	}
	return p.pool
}

// selectPrimaryKey implements component (7): discover all minimal keys
// of the table (DUCC-style UCC discovery), drop keys with nulls, rank
// them (Section 7.1), and let the decider choose. The UCC discovery
// reports its work counters to obs under the primary-key stage, runs
// each level's intersections on pool (inline when nil), and draws its
// encoding and single-column partitions from the shared substrate
// cache (a hit for every table the decomposition loop produced), whose
// store holds — and, when governed, charges — its retained partitions.
func selectPrimaryKey(ctx context.Context, t *Table, decider Decider, obs observe.Observer, cache *plicache.Cache, pool *wsteal.Pool) error {
	sub, err := cache.For(ctx, t.Data)
	if err != nil {
		return err
	}
	uccs, err := ucc.DiscoverContext(ctx, t.Data, ucc.Options{Observer: obs, Substrate: sub, Pool: pool})
	if err != nil {
		return err
	}
	var candidates []RankedKey
	for _, localKey := range uccs {
		if localKey.IsEmpty() {
			// Instances with at most one row have the empty set as
			// their only minimal UCC; SQL cannot express an empty key.
			continue
		}
		key := t.universalSet(localKey)
		if key.Intersects(t.NullAttrs) {
			continue // SQL forbids nulls in primary keys
		}
		candidates = append(candidates, RankedKey{
			Key:   key,
			Score: scoring.KeyScore(t.Data, localKey),
		})
	}
	if len(candidates) == 0 {
		return nil
	}
	sortRankedKeys(candidates)
	if choice := decider.ChoosePrimaryKey(t, candidates); choice >= 0 && choice < len(candidates) {
		t.PrimaryKey = candidates[choice].Key.Clone()
		// Register the chosen primary key among the table's keys if the
		// derivation step missed it (it finds only FD-derivable keys).
		for _, k := range t.Keys {
			if k.Equal(t.PrimaryKey) {
				return nil
			}
		}
		t.Keys = append(t.Keys, t.PrimaryKey.Clone())
	}
	return nil
}

// VerifyNormalForm re-discovers the FDs of every table instance and
// checks the target normal-form condition: every FD's LHS must be a
// superkey (BCNF). FDs with nulls in their LHS are exempt, mirroring
// Algorithm 4 (their LHS could never have become a key). Intended for
// tests and the evaluation harness.
func VerifyNormalForm(t *Table) error {
	return VerifyNormalFormMax(t, 0)
}

// VerifyNormalFormMax is VerifyNormalForm restricted to FDs with at
// most maxLhs attributes on the left-hand side (0 = unbounded). A
// schema normalized under Section 4.3's max-LHS pruning is BCNF-conform
// only with respect to the FDs the pruned discovery can see, so its
// verification must apply the same bound.
//
// Conformance means "no actionable violation remains": the check runs
// the very pipeline components — discovery, closure, key derivation,
// Algorithm 4 — on the table instance and demands an empty violation
// set. Algorithm 4's exemptions therefore apply: FDs with nulls or
// nothing on the LHS, and FDs whose RHS is covered by the protected
// primary key (decomposing those would break the key — the classic
// case where BCNF and constraint preservation conflict).
func VerifyNormalFormMax(t *Table, maxLhs int) error {
	found := hyfd.Discover(t.Data, hyfd.Options{MaxLhs: maxLhs, Workers: 1})
	closure.Optimized(found)
	n := t.Data.NumAttrs()
	all := bitset.Full(n)
	derived := keys.Derive(found, all)
	localNulls := t.localSet(t.NullAttrs)
	var pk *bitset.Set
	if t.PrimaryKey != nil {
		pk = t.localSet(t.PrimaryKey)
	}
	fks := make([]*bitset.Set, len(t.ForeignKeys))
	for i, fk := range t.ForeignKeys {
		fks[i] = t.localSet(fk.Attrs)
	}
	viol := violation.Detect(violation.Input{
		FDs:         found,
		Keys:        derived,
		RelAttrs:    all,
		NullAttrs:   localNulls,
		PrimaryKey:  pk,
		ForeignKeys: fks,
	})
	if len(viol) > 0 {
		return fmt.Errorf("table %s: FD %s violates BCNF (lhs is not a superkey)",
			t.Name, viol[0].Format(t.Data.Attrs))
	}
	return nil
}
