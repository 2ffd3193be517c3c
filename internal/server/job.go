package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"normalize"
	"normalize/internal/relation"
)

// State is one node of the job lifecycle state machine (DESIGN.md §5c):
//
//	queued ──► running ──► done | partial | cancelled | failed
//	   └──────────────────► cancelled
//
// Terminal states never change again.
type State string

// Job lifecycle states.
const (
	// StateQueued: accepted, waiting for a worker slot (FIFO).
	StateQueued State = "queued"
	// StateRunning: a worker is executing the pipeline.
	StateRunning State = "running"
	// StateDone: the run completed; the result may still carry a
	// degradation report (budget ladder) without being partial.
	StateDone State = "done"
	// StatePartial: the run stopped early (timeout, budget exhaustion,
	// isolated stage crash) but produced a usable lossless partial
	// result with a degradations report.
	StatePartial State = "partial"
	// StateCancelled: the client cancelled the job; a job cancelled
	// mid-run still carries the partial result the pipeline salvaged.
	StateCancelled State = "cancelled"
	// StateFailed: the job produced no usable result (bad input, dead
	// context before start, generator failure).
	StateFailed State = "failed"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StatePartial, StateCancelled, StateFailed:
		return true
	}
	return false
}

// jobSpec is a validated, immutable job request: the data source plus
// the normalization options, with the content-hash cache key derived
// from both.
type jobSpec struct {
	// Exactly one of csv/generator is set.
	csv     []byte
	name    string // relation name for CSV sources
	lenient bool
	gen     string // generator name: tpch, musicbrainz, horse, ...
	scale   float64
	artists int
	seed    int64

	// Delta jobs: parentRef is the submitted reference (job ID or
	// content key), parentKey the resolved parent content key, and csv
	// holds the appended rows (same header as the parent's input).
	parentRef string
	parentKey string

	opts normalize.Options
	key  string // content-hash cache key
}

// delta reports whether the spec describes an incremental append job.
func (s *jobSpec) delta() bool { return s.parentRef != "" }

// finalizeDeltaKey derives a delta job's content key once the parent
// reference has been resolved to a content key. The child key hashes
// (parent key, appended rows, options), so chains of appends resolve
// transitively — the child key of one append is the parent key of the
// next — and identical re-submissions hit the result cache.
func (s *jobSpec) finalizeDeltaKey(parentKey string) {
	s.parentKey = parentKey
	s.key = deltaCacheKey(parentKey, s.csv, s.opts)
}

// relations materializes the job's input. Generator datasets normalize
// their denormalized universal relation, the preparation step of the
// paper's evaluation; CSV sources stream through the columnar ingest
// path, reporting stage events and counters to obs and honoring the
// job's memory ceiling on the read side.
func (s *jobSpec) relations(ctx context.Context, obs normalize.Observer, spillDir string) (*normalize.Relation, []relation.RowError, error) {
	if s.gen != "" {
		ds, err := generate(s.gen, s.scale, s.artists, s.seed)
		if err != nil {
			return nil, nil, err
		}
		return ds.Denormalized, nil, nil
	}
	return normalize.IngestCSV(ctx, s.name, bytes.NewReader(s.csv), normalize.IngestOptions{
		Lenient:        s.lenient,
		Workers:        s.opts.Workers,
		MaxMemoryBytes: s.opts.Budget.MaxMemoryBytes,
		SpillDir:       spillDir,
		Observer:       obs,
	})
}

// generate dispatches to the built-in dataset generators.
func generate(name string, scale float64, artists int, seed int64) (*normalize.Dataset, error) {
	switch name {
	case "tpch":
		if scale <= 0 {
			scale = 0.0001
		}
		return normalize.GenerateTPCH(scale, seed)
	case "musicbrainz":
		if artists <= 0 {
			artists = 8
		}
		return normalize.GenerateMusicBrainz(artists, seed)
	case "horse":
		return normalize.GenerateHorse(seed), nil
	case "plista":
		return normalize.GeneratePlista(seed), nil
	case "amalgam1":
		return normalize.GenerateAmalgam1(seed), nil
	case "flight":
		return normalize.GenerateFlight(seed), nil
	}
	return nil, fmt.Errorf("unknown generator %q", name)
}

// Job is one normalization request moving through the lifecycle. All
// mutable fields are guarded by mu; the bus and recorder are safe for
// concurrent use themselves.
type Job struct {
	ID      string
	Created time.Time

	spec *jobSpec
	bus  *bus
	rec  *normalize.RecordingObserver
	p    *persister // write-ahead persistence (nil-safe)

	mu              sync.Mutex
	state           State
	started         time.Time
	finished        time.Time
	cancel          context.CancelFunc
	cancelRequested bool
	res             *normalize.Result
	err             error
	cached          bool
	skippedRows     int // malformed CSV rows skipped under lenient parsing
}

// newJob builds a queued job for the spec.
func newJob(spec *jobSpec) *Job {
	return &Job{
		ID:      newJobID(),
		Created: time.Now(),
		spec:    spec,
		state:   StateQueued,
		bus:     newBus(),
		rec:     normalize.NewRecordingObserver(),
	}
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is effectively fatal elsewhere; fall back
		// to a time-derived ID rather than crashing the control plane.
		return fmt.Sprintf("j%016x", time.Now().UnixNano())
	}
	return "j" + hex.EncodeToString(b[:])
}

// snapshot returns a consistent copy of the mutable state.
func (j *Job) snapshot() (state State, started, finished time.Time, res *normalize.Result, err error, cached bool, skipped int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.started, j.finished, j.res, j.err, j.cached, j.skippedRows
}

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the terminal result and error (nil, nil while the job
// has not finished).
func (j *Job) Result() (*normalize.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, nil
	}
	return j.res, j.err
}

// markRunning transitions queued → running unless cancellation was
// requested first; it reports whether the job should run.
func (j *Job) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.cancelRequested || j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	started := j.started
	j.mu.Unlock()
	j.p.state(j.ID, StateRunning, started, "", 0)
	j.bus.publish(eventState, stateEventData{ID: j.ID, State: StateRunning})
	return true
}

// finish records the terminal state and closes the event stream. The
// final "state" event doubles as the SSE terminator. The run's result
// record, if any, is already persisted (manager.complete).
func (j *Job) finish(state State, res *normalize.Result, err error) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.res = res
	j.err = err
	j.cancel = nil
	finished := j.finished
	skipped := j.skippedRows
	data := stateEventData{ID: j.ID, State: state}
	if err != nil {
		data.Error = err.Error()
	}
	if res != nil {
		data.Tables = len(res.Tables)
		data.Degradations = len(res.Degradations)
	}
	j.mu.Unlock()
	j.p.state(j.ID, state, finished, data.Error, skipped)
	j.bus.publish(eventState, data)
	j.bus.close()
}

// Cancel requests cancellation: a queued job transitions to cancelled
// immediately, a running one has its context cancelled (the pipeline
// notices within ~100ms and salvages a partial result). Cancelling a
// terminal job is a no-op. It reports whether the request changed
// anything.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	already := j.cancelRequested
	j.cancelRequested = true
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = time.Now()
		j.err = context.Canceled
		finished := j.finished
		j.mu.Unlock()
		j.p.state(j.ID, StateCancelled, finished, context.Canceled.Error(), 0)
		j.bus.publish(eventState, stateEventData{
			ID: j.ID, State: StateCancelled, Error: context.Canceled.Error(),
		})
		j.bus.close()
		return true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return !already
}

// Errors returned by the manager's submit path.
var (
	// ErrQueueFull: the FIFO queue is at capacity; the client should
	// retry later (503).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the server is shutting down and accepts no new jobs.
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrBadParent: a delta job references a parent that does not
	// exist, has not completed, or cannot seed an incremental run (400).
	ErrBadParent = errors.New("server: bad delta parent")
)

// manager owns the job store, the FIFO queue, and the worker pool.
type manager struct {
	queue chan *Job
	cache *resultCache
	p     *persister // write-ahead persistence hooks (nil-safe)

	// enqueueMu serializes queue sends against closing the queue at
	// drain time (a send on a closed channel panics).
	enqueueMu sync.Mutex
	draining  bool

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	observer normalize.Observer // server-wide metrics sink (may be nil)

	// spillDir is where jobs place transient spill files (ingest
	// blocks, compressed PLI segments); "" means the OS temp dir. The
	// server sweeps a server-owned dir at startup and drain.
	spillDir string
}

func newManager(workers, queueDepth, cacheEntries int, cacheBytes int64, metrics normalize.Observer, p *persister) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		cache:      newResultCache(cacheEntries, cacheBytes),
		p:          p,
		jobs:       make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
		observer:   metrics,
	}
	// Restore persisted jobs before the queue exists and the workers
	// start: the incomplete ones re-enqueue ahead of any new submission,
	// and the queue must hold all of them even if there are more than
	// queueDepth (re-runs must never be dropped as "queue full").
	requeue := m.restore()
	depth := queueDepth
	if len(requeue) > depth {
		depth = len(requeue)
	}
	m.queue = make(chan *Job, depth)
	for _, job := range requeue {
		m.queue <- job
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for job := range m.queue {
				m.runJob(job)
			}
		}()
	}
	return m
}

// Submit registers the job and enqueues it — or, when an identical
// input+options combination already completed, answers from the result
// cache with an immediately-done job. Delta jobs resolve their parent
// reference first: the child's content key depends on the parent's, so
// resolution must precede the cache check.
func (m *manager) Submit(spec *jobSpec) (*Job, error) {
	if spec.delta() && spec.parentKey == "" {
		if err := m.resolveParent(spec); err != nil {
			return nil, err
		}
	}
	job := newJob(spec)
	job.p = m.p

	if res, ok := m.cache.get(spec.key); ok {
		job.mu.Lock()
		job.state = StateDone
		job.started = job.Created
		job.finished = time.Now()
		job.res = res
		job.cached = true
		job.mu.Unlock()
		// A cache hit is born terminal; its submit record carries the
		// terminal state, and its result resolves through the cache key
		// to the record of the run that populated the entry.
		m.p.submit(job, spec, StateDone, true)
		job.bus.publish(eventState, stateEventData{
			ID: job.ID, State: StateDone, Cached: true, Tables: len(res.Tables),
		})
		job.bus.close()
		m.store(job)
		return job, nil
	}

	m.enqueueMu.Lock()
	if m.draining {
		m.enqueueMu.Unlock()
		return nil, ErrDraining
	}
	if len(m.queue) == cap(m.queue) {
		m.enqueueMu.Unlock()
		return nil, ErrQueueFull
	}
	// The submit record must land in the log before a worker can touch
	// the job — otherwise a crash could persist a running transition for
	// a job the log never saw born. enqueueMu serializes all sends, and
	// workers only drain, so the capacity check above guarantees the
	// send cannot block.
	m.p.submit(job, spec, StateQueued, false)
	m.store(job)
	m.queue <- job
	m.enqueueMu.Unlock()
	job.bus.publish(eventState, stateEventData{ID: job.ID, State: StateQueued})
	return job, nil
}

// resolveParent resolves a delta job's parent reference — a job ID or
// a content key — to a completed parent run and finalizes the child's
// content key from it. Every failure wraps ErrBadParent so the HTTP
// layer can answer 400: a delta submission against a missing, unfinished,
// or unseedable parent is a client error, not a server one.
func (m *manager) resolveParent(spec *jobSpec) error {
	parent, ok := m.findJob(spec.parentRef)
	if !ok {
		return fmt.Errorf("%w: %q matches no job ID or content key", ErrBadParent, spec.parentRef)
	}
	if state := parent.State(); state != StateDone {
		return fmt.Errorf("%w: job %s is %s, want done", ErrBadParent, parent.ID, state)
	}
	res := m.resultFor(parent)
	if res == nil {
		return fmt.Errorf("%w: job %s no longer retains its result", ErrBadParent, parent.ID)
	}
	if res.Cover == nil || res.ScoreMemo == nil {
		return fmt.Errorf("%w: parent result lacks the FD cover and score memo a delta run seeds from", ErrBadParent)
	}
	if len(res.Degradations) > 0 {
		return fmt.Errorf("%w: parent result is degraded; its cover is not a complete hypothesis", ErrBadParent)
	}
	spec.finalizeDeltaKey(parent.spec.key)
	return nil
}

// findJob looks a reference up as a job ID first, then as a content
// key. Key lookups scan newest-first so a re-run of the same content
// answers with the freshest job.
func (m *manager) findJob(ref string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[ref]; ok {
		return j, true
	}
	for i := len(m.order) - 1; i >= 0; i-- {
		if j := m.jobs[m.order[i]]; j.spec != nil && j.spec.key == ref {
			return j, true
		}
	}
	return nil, false
}

// resultFor fetches a job's retained result: from the job itself, or
// from the result cache when the job was answered as a cache hit.
func (m *manager) resultFor(job *Job) *normalize.Result {
	if res, _ := job.Result(); res != nil {
		return res
	}
	if job.spec != nil {
		if res, ok := m.cache.get(job.spec.key); ok {
			return res
		}
	}
	return nil
}

func (m *manager) store(job *Job) {
	m.mu.Lock()
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	m.mu.Unlock()
}

// Get looks a job up by ID.
func (m *manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns all jobs in submission order.
func (m *manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// runJob executes one job on the calling worker goroutine.
func (m *manager) runJob(job *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()
	if !job.markRunning(cancel) {
		return // cancelled while queued
	}

	// Observers are built before the input loads so the ingest stage's
	// span and counters reach the SSE stream and recorder like any
	// pipeline stage's.
	opts := job.spec.opts
	// The spill directory is the server's to choose, never the
	// client's: override whatever the submission carried.
	opts.SpillDir = m.spillDir
	obs := newBusObserver(job.bus)
	observers := normalize.MultiObserver{obs.observer(), job.rec}
	if m.observer != nil {
		observers = append(observers, m.observer)
	}
	opts.Observer = observers

	if job.spec.delta() {
		res, err := m.normalizeDelta(ctx, job.spec, opts)
		obs.flush()
		if m.complete(job, res, err) == StateDone {
			// The lineage edge lands only after the result record
			// (complete persisted it): a crash in between leaves a
			// resolvable child missing its edge, which the re-run restores
			// idempotently — never an edge pointing at a result the log
			// doesn't hold.
			m.p.lineage(job.spec.parentKey, deltaHash(job.spec.csv), job.spec.key, job.ID)
		}
		return
	}

	rel, skipped, err := job.spec.relations(ctx, observers, m.spillDir)
	if err != nil {
		obs.flush()
		m.complete(job, nil, err)
		return
	}
	if len(skipped) > 0 {
		job.mu.Lock()
		job.skippedRows = len(skipped)
		job.mu.Unlock()
	}

	res, err := normalize.NormalizeContext(ctx, rel, opts)
	obs.flush()
	m.complete(job, res, err)
}

// complete ends a run and returns its terminal state. Write-ahead order:
// the result record lands before the terminal state record, so a crash
// between the two leaves an orphan result the re-run overwrites — never
// a terminal job missing its result. A done run's result enters the
// cache after its record is persisted (a cache hit's result resolves
// through the key to that record) and before the job reads as terminal,
// so a client that sees the job done and resubmits at once is served
// from the cache.
func (m *manager) complete(job *Job, res *normalize.Result, err error) State {
	state, res, err := classify(res, err)
	if res != nil {
		// Serve the result as the job store keeps it: EncodeResult leaves
		// out the wall-clock durations, so a restart, a standby or a
		// rehydrated cache serves the same schema JSON as this process.
		// Per-stage timings stay in the job's telemetry.
		res.Stats.Discovery, res.Stats.Closure, res.Stats.KeyDerivation, res.Stats.Violation = 0, 0, 0, 0
		// One encoding serves the job store and the cache's charge.
		data, encErr := normalize.EncodeResult(res)
		m.p.result(job.ID, job.spec.key, data, encErr)
		if state == StateDone {
			m.cache.put(job.spec.key, res, int64(len(data)))
		}
	}
	job.finish(state, res, err)
	return state
}

// normalizeDelta runs the incremental path: rebuild the parent's
// relation, append the delta rows against its dictionaries, and
// re-validate only what the appended rows can change (DESIGN.md §5g).
// Stats counters reach SSE/telemetry through opts.Observer.
func (m *manager) normalizeDelta(ctx context.Context, spec *jobSpec, opts normalize.Options) (*normalize.Result, error) {
	parent, ok := m.findJob(spec.parentKey)
	if !ok {
		return nil, fmt.Errorf("%w: parent job for key %.12s… no longer resident", ErrBadParent, spec.parentKey)
	}
	parentRes := m.resultFor(parent)
	if parentRes == nil {
		return nil, fmt.Errorf("%w: parent result for key %.12s… no longer retained", ErrBadParent, spec.parentKey)
	}
	base, err := m.materialize(ctx, parent.spec, opts.Observer)
	if err != nil {
		return nil, err
	}
	rows, err := deltaRows(base, spec.csv)
	if err != nil {
		return nil, err
	}
	res, _, err := normalize.NormalizeDelta(ctx, base, rows, parentRes, normalize.DeltaConfig{Options: opts})
	return res, err
}

// materialize rebuilds a spec's full input relation. A plain spec
// re-ingests its source; a delta spec extends its parent's materialized
// relation with its appended rows, so a chain of appends replays from
// the root without any child ever holding the concatenated CSV.
func (m *manager) materialize(ctx context.Context, spec *jobSpec, obs normalize.Observer) (*normalize.Relation, error) {
	if !spec.delta() {
		rel, _, err := spec.relations(ctx, obs, m.spillDir)
		return rel, err
	}
	parent, ok := m.findJob(spec.parentKey)
	if !ok {
		return nil, fmt.Errorf("%w: ancestor job for key %.12s… no longer resident", ErrBadParent, spec.parentKey)
	}
	base, err := m.materialize(ctx, parent.spec, obs)
	if err != nil {
		return nil, err
	}
	rows, err := deltaRows(base, spec.csv)
	if err != nil {
		return nil, err
	}
	return normalize.AppendRelation(base, rows)
}

// deltaRows parses a delta job's appended rows — a CSV whose header
// must repeat the parent's attributes, pinning column order explicitly
// rather than trusting the client to match it blind.
func deltaRows(base *normalize.Relation, csv []byte) ([][]string, error) {
	drel, err := normalize.ReadCSV("delta", bytes.NewReader(csv))
	if err != nil {
		return nil, fmt.Errorf("delta rows: %w", err)
	}
	if !slices.Equal(drel.Attrs, base.Attrs) {
		return nil, fmt.Errorf("delta header %v does not match parent attributes %v", drel.Attrs, base.Attrs)
	}
	return drel.Rows(), nil
}

// classify maps a pipeline outcome onto the lifecycle state machine.
func classify(res *normalize.Result, err error) (State, *normalize.Result, error) {
	switch {
	case err == nil:
		return StateDone, res, nil
	case errors.Is(err, context.Canceled):
		// Cancelled mid-run: a *PartialError-wrapped cancellation still
		// carries the lossless partial result the pipeline salvaged.
		return StateCancelled, res, err
	case res != nil:
		var pe *normalize.PartialError
		if errors.As(err, &pe) {
			return StatePartial, res, err
		}
		return StateFailed, res, err
	default:
		return StateFailed, nil, err
	}
}

// Shutdown drains the manager: no new jobs are accepted, queued and
// running jobs get until ctx ends to finish, then the remaining runs
// are cancelled (the pipeline salvages partial results) and Shutdown
// waits for the workers to exit.
func (m *manager) Shutdown(ctx context.Context) {
	m.enqueueMu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.enqueueMu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		m.baseCancel() // cut running jobs loose; they return within ~100ms
		<-done
	}
	m.baseCancel()
}

// Draining reports whether the manager stopped accepting jobs.
func (m *manager) Draining() bool {
	m.enqueueMu.Lock()
	defer m.enqueueMu.Unlock()
	return m.draining
}
