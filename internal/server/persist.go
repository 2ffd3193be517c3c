package server

// Persistence glue between the job manager and the jobstore write-ahead
// log: the spec wire form (the store treats specs as opaque bytes), the
// nil-safe persister the lifecycle hooks write through, and the restore
// path that turns surviving JobRecords back into live jobs on boot.

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"normalize"
	"normalize/internal/core"
	"normalize/internal/jobstore"
)

// specWire is the persisted form of a jobSpec. The cache key is NOT
// stored — decodeSpec recomputes it, so a stale or tampered key on disk
// can never poison the result cache.
type specWire struct {
	CSV     []byte  `json:"csv,omitempty"`
	Name    string  `json:"name,omitempty"`
	Lenient bool    `json:"lenient,omitempty"`
	Gen     string  `json:"gen,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Artists int     `json:"artists,omitempty"`
	Seed    int64   `json:"seed,omitempty"`

	// Parent is the RESOLVED parent content key of a delta job — not the
	// submitted reference, which may have been a job ID that won't exist
	// after a restart. Keys are stable across restarts, so a restored
	// delta job re-finalizes to exactly the key it had.
	Parent string `json:"parent,omitempty"`

	Opts optionsSpec `json:"opts"`
}

// encodeSpec renders the spec for the submit record.
func encodeSpec(spec *jobSpec) (json.RawMessage, error) {
	w := specWire{
		CSV: spec.csv, Name: spec.name, Lenient: spec.lenient,
		Gen: spec.gen, Scale: spec.scale, Artists: spec.artists, Seed: spec.seed,
		Parent: spec.parentKey,
		Opts: optionsSpec{
			Mode:           modeString(spec.opts.Mode),
			Closure:        closureString(spec.opts.Closure),
			MaxLhs:         spec.opts.MaxLhs,
			Workers:        spec.opts.Workers,
			TimeoutMS:      int64(spec.opts.Timeout / time.Millisecond),
			MaxRows:        spec.opts.Budget.MaxRows,
			MaxFDs:         spec.opts.Budget.MaxFDs,
			MaxMemoryBytes: spec.opts.Budget.MaxMemoryBytes,
		},
	}
	return json.Marshal(w)
}

// modeString and closureString render the option enums back to the
// names ParseMode/ParseClosure accept, so decodeSpec can reuse the
// submission validation path verbatim.
func modeString(m normalize.Mode) string {
	switch m {
	case normalize.ThirdNF:
		return "3nf"
	case normalize.SecondNF:
		return "2nf"
	}
	return "bcnf"
}

func closureString(c normalize.ClosureAlgorithm) string {
	switch c {
	case normalize.ClosureImproved:
		return "improved"
	case normalize.ClosureNaive:
		return "naive"
	}
	return "optimized"
}

// decodeSpec rebuilds a validated jobSpec from its persisted form by
// funneling it through the same buildSpec path submissions use, so a
// restored job obeys exactly the validation rules of a fresh one.
func decodeSpec(raw json.RawMessage) (*jobSpec, error) {
	var w specWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	req := &jobRequest{
		Name:    w.Name,
		CSV:     string(w.CSV),
		Lenient: w.Lenient,
		Options: w.Opts,
	}
	if w.Gen != "" {
		req.CSV = ""
		req.Dataset = &datasetSpec{
			Generator: w.Gen, Scale: w.Scale, Artists: w.Artists, Seed: w.Seed,
		}
	}
	req.Parent = w.Parent
	spec, err := buildSpec(req)
	if err != nil {
		return nil, err
	}
	if w.Parent != "" {
		// The persisted parent is already a resolved content key; the key
		// derivation is deterministic, so the restored job recomputes the
		// same child key it was born with.
		spec.finalizeDeltaKey(w.Parent)
	}
	return spec, nil
}

// persister is the nil-safe write side of the job store. A nil persister
// (no -data-dir) turns every hook into a no-op; append failures are
// logged and swallowed — persistence degrades, the service keeps
// serving (the same graceful-degradation stance the pipeline takes).
type persister struct {
	store *jobstore.Store
	logf  func(format string, args ...any)
}

func (p *persister) enabled() bool { return p != nil && p.store != nil }

func (p *persister) fail(op string, err error) {
	if err != nil && p.logf != nil {
		p.logf("server: jobstore %s: %v", op, err)
	}
}

// submit records a new job's identity, spec, and birth state (queued,
// or a terminal state for cache hits).
func (p *persister) submit(j *Job, spec *jobSpec, state State, cached bool) {
	if !p.enabled() {
		return
	}
	raw, err := encodeSpec(spec)
	if err != nil {
		p.fail("encode spec", err)
		return
	}
	p.fail("submit", p.store.AppendSubmit(jobstore.JobRecord{
		ID: j.ID, Created: j.Created, Key: spec.key, Spec: raw,
		State: string(state), Cached: cached,
	}))
}

// state records a lifecycle transition.
func (p *persister) state(id string, st State, at time.Time, errMsg string, skipped int) {
	if !p.enabled() {
		return
	}
	p.fail("state", p.store.AppendState(jobstore.StateUpdate{
		ID: id, State: string(st), At: at, Error: errMsg, Skipped: skipped,
	}))
}

// result records a terminal result payload, EncodeResult's data or
// its error. It must be called BEFORE the terminal state record: a
// crash between the two leaves an orphan result (overwritten on the
// re-run), never a terminal job whose result is gone.
func (p *persister) result(id, key string, data []byte, encErr error) {
	if !p.enabled() {
		return
	}
	if encErr != nil {
		p.fail("encode result", encErr)
		return
	}
	p.fail("result", p.store.AppendResult(id, key, data))
}

// lineage records a delta job's ancestry edge once its result is
// durable. AppendLineage is idempotent by child key, so the crash-replay
// re-run writing the same edge again is harmless.
func (p *persister) lineage(parent, delta, child, jobID string) {
	if !p.enabled() {
		return
	}
	p.fail("lineage", p.store.AppendLineage(jobstore.LineageRecord{
		Parent: parent, Delta: delta, Child: child, JobID: jobID,
	}))
}

// restoreJob rebuilds a live Job from a persisted record. It returns
// the job plus whether it must be re-enqueued (it was queued or running
// at crash time). Terminal jobs come back with their result decoded and
// their event bus already closed behind a terminal state event, so SSE
// cursor replay keeps working across the restart. An incomplete job
// whose spec no longer decodes is restored as failed — visible and
// diagnosable rather than silently dropped.
func (m *manager) restoreJob(rec jobstore.JobRecord) (job *Job, requeue bool) {
	job = &Job{
		ID:      rec.ID,
		Created: rec.Created,
		bus:     newBus(),
		rec:     normalize.NewRecordingObserver(),
		p:       m.p,
		state:   StateQueued,
	}
	spec, specErr := decodeSpec(rec.Spec)
	if specErr == nil {
		job.spec = spec
	}

	state := State(rec.State)
	if state.Terminal() {
		job.state = state
		job.started, job.finished = rec.Started, rec.Finished
		job.cached = rec.Cached
		job.skippedRows = rec.Skipped
		if rec.Error != "" {
			job.err = errors.New(rec.Error)
		}
		data := stateEventData{ID: job.ID, State: state, Cached: rec.Cached, Error: rec.Error}
		if len(rec.Result) > 0 {
			res, err := core.DecodeResult(rec.Result)
			if err != nil {
				m.p.fail("decode result "+rec.ID, err)
			} else {
				job.res = res
				data.Tables = len(res.Tables)
				data.Degradations = len(res.Degradations)
			}
		}
		job.bus.publish(eventState, data)
		job.bus.close()
		return job, false
	}

	if specErr != nil {
		// Can't re-run what we can't decode; fail it on disk too so the
		// next boot doesn't retry.
		err := fmt.Errorf("restore: %w", specErr)
		job.state = StateFailed
		job.finished = time.Now()
		job.err = err
		job.bus.publish(eventState, stateEventData{
			ID: job.ID, State: StateFailed, Error: err.Error(),
		})
		job.bus.close()
		m.p.state(job.ID, StateFailed, job.finished, err.Error(), 0)
		return job, false
	}

	// Queued or running at crash time: back to the queue. A previously
	// running job gets a fresh queued record so the disk state matches.
	if state == StateRunning {
		m.p.state(job.ID, StateQueued, time.Now(), "", 0)
	}
	job.bus.publish(eventState, stateEventData{ID: job.ID, State: StateQueued})
	return job, true
}

// restore replays the store's surviving jobs into the manager and
// returns the incomplete ones, in submission order, for re-enqueueing.
func (m *manager) restore() []*Job {
	if !m.p.enabled() {
		return nil
	}
	var requeue []*Job
	for _, rec := range m.p.store.Jobs() {
		job, again := m.restoreJob(rec)
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		if again {
			requeue = append(requeue, job)
		}
	}
	// Rehydrate the result cache from persisted done-run results so a
	// restart keeps answering repeats without recomputing.
	for _, e := range m.p.store.CacheEntries() {
		res, err := core.DecodeResult(e.Data)
		if err != nil {
			m.p.fail("decode cache entry", err)
			continue
		}
		m.cache.put(e.Key, res, int64(len(e.Data)))
	}
	return requeue
}
