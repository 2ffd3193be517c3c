// Package observe is the pluggable instrumentation layer of the
// normalization pipeline. Every stage of Figure 1 — FD discovery,
// closure calculation, key derivation, violation detection,
// violating-FD selection, decomposition, and primary-key selection —
// reports its lifecycle (start, finish with wall-time) and per-stage
// work counters (FDs induced, PLIs intersected, violations found,
// candidates scored, …) to an Observer.
//
// The zero-cost default is the no-op observer; Logging streams events
// as text lines, Recorder accumulates them for later inspection (the
// cmd front ends use it to print partial telemetry after Ctrl-C), and
// Multi fans events out to several observers at once.
//
// Observers may be invoked from multiple goroutines concurrently (the
// discovery and closure components run parallel workers), so every
// implementation must be safe for concurrent use. The implementations
// in this package are.
package observe

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage identifies one pipeline stage, named after the components of
// the paper's Figure 1.
type Stage string

// The seven pipeline stages in Figure 1 order, preceded by the ingest
// stage that feeds them.
const (
	// Ingest is the streaming CSV read that dictionary-encodes the
	// input into the pipeline's columnar substrate; it runs before the
	// Figure 1 components.
	Ingest        Stage = "ingest"
	Discovery     Stage = "fd-discovery"
	Closure       Stage = "closure"
	KeyDerivation Stage = "key-derivation"
	Violation     Stage = "violation-detection"
	Selection     Stage = "violating-fd-selection"
	Decomposition Stage = "decomposition"
	PrimaryKey    Stage = "primary-key-selection"
)

// Stages returns the pipeline stages in Figure 1 order. Ingest is not
// listed: it precedes the pipeline (the fault-injection matrix and the
// per-stage degradation ladder quantify over pipeline stages only);
// observers handle it like any other stage when its events arrive.
func Stages() []Stage {
	return []Stage{Discovery, Closure, KeyDerivation, Violation,
		Selection, Decomposition, PrimaryKey}
}

// Counter names emitted by the pipeline and its substrate packages.
// The set is open — observers should treat names as opaque labels —
// but these are the ones the built-in components report.
const (
	CounterFDsDiscovered     = "fds_discovered"
	CounterFDsInduced        = "fds_induced"
	CounterAgreeSets         = "agree_sets_sampled"
	CounterPLIsIntersected   = "plis_intersected"
	CounterCandidatesChecked = "candidates_checked"
	CounterRhsAttrsAdded     = "rhs_attrs_added"
	CounterKeysDerived       = "keys_derived"
	CounterViolationsFound   = "violations_found"
	CounterCandidatesScored  = "candidates_scored"
	CounterDecompositions    = "decompositions"
	CounterRowsMaterialized  = "rows_materialized"
	CounterUCCsDiscovered    = "uccs_discovered"
	// CounterPairsCompared counts the record pairs HyFD's sampler
	// compared, each yielding one agree set (new or not).
	CounterPairsCompared = "pairs_compared"
	// CounterValidationWorkers counts validation worker goroutines
	// spawned by parallel candidate checking (one persistent
	// work-stealing pool per discovery run; zero on the serial path).
	CounterValidationWorkers = "validation_workers"
	// CounterValidationSteals counts successful work-stealing chunk
	// transfers inside the validation pool — nonzero means the candidate
	// load was skewed enough that idle workers rebalanced it.
	CounterValidationSteals = "validation_steals"
	// CounterSubstrateBuilds/-Derived/-Hits report the shared PLI/
	// encoding substrate cache: substrates made on a lookup miss,
	// registered code-level derivations, and lookups served from the
	// cache.
	CounterSubstrateBuilds  = "substrate_builds"
	CounterSubstrateDerived = "substrate_derived"
	CounterSubstrateHits    = "substrate_hits"
	// CounterDeltaFDsChecked/-Demoted and CounterDeltaLatticeReused
	// report the delta plane's re-validation work (internal/delta):
	// parent-cover FDs actually validated against appended rows, FDs the
	// delta violated (demoted and re-specialized), and FDs carried over
	// from the parent cover without re-specialization.
	CounterDeltaFDsChecked    = "delta_fds_checked"
	CounterDeltaFDsDemoted    = "delta_fds_demoted"
	CounterDeltaLatticeReused = "delta_lattice_reused"
	// The ingest stage reports raw CSV bytes consumed, read chunks,
	// rows encoded, and spill-to-disk events (each event flushes sealed
	// code blocks to the spill file when the memory budget trips).
	CounterIngestBytes  = "ingest_bytes"
	CounterIngestChunks = "ingest_chunks"
	CounterIngestRows   = "ingest_rows"
	CounterSpillEvents  = "spill_events"
	// The compressed PLI store (internal/plistore) reports the bytes of
	// delta-varint compressed partitions it produced, entries whose
	// compressed segments spilled to the transient temp file under
	// memory pressure, spilled entries decoded back from disk, and
	// dropped single-column entries recomputed from the columnar codes.
	CounterPLICompressedBytes = "pli_compressed_bytes"
	CounterPLISpillEvents     = "pli_spill_events"
	CounterPLIReloads         = "pli_reloads"
	CounterPLIRecomputes      = "pli_recomputes"
	// CounterPLIResidentBytes is what the store's partitions would
	// occupy fully decoded — the footprint a run without the store would
	// keep resident, against which -max-memory savings are judged.
	CounterPLIResidentBytes = "pli_resident_bytes"
)

// Observer receives instrumentation events from the pipeline.
// StageStart and StageFinish bracket one execution of a stage (stages
// inside the decomposition loop run once per table, so a run usually
// sees several key-derivation/violation/selection spans); Counter
// reports work done under a stage and may arrive at any time between
// the stage's start and finish. Implementations must be safe for
// concurrent use.
type Observer interface {
	StageStart(stage Stage)
	Counter(stage Stage, name string, delta int64)
	StageFinish(stage Stage, elapsed time.Duration)
}

// Or returns obs if non-nil and the no-op observer otherwise, so
// callers can hold a never-nil observer.
func Or(obs Observer) Observer {
	if obs == nil {
		return Nop{}
	}
	return obs
}

// Nop is the no-op observer, the default when none is configured.
type Nop struct{}

// StageStart does nothing.
func (Nop) StageStart(Stage) {}

// Counter does nothing.
func (Nop) Counter(Stage, string, int64) {}

// StageFinish does nothing.
func (Nop) StageFinish(Stage, time.Duration) {}

// Multi fans every event out to all wrapped observers, in order.
type Multi []Observer

// StageStart forwards to every observer.
func (m Multi) StageStart(stage Stage) {
	for _, o := range m {
		o.StageStart(stage)
	}
}

// Counter forwards to every observer.
func (m Multi) Counter(stage Stage, name string, delta int64) {
	for _, o := range m {
		o.Counter(stage, name, delta)
	}
}

// StageFinish forwards to every observer.
func (m Multi) StageFinish(stage Stage, elapsed time.Duration) {
	for _, o := range m {
		o.StageFinish(stage, elapsed)
	}
}

// Func adapts plain functions to the Observer interface; nil fields
// are skipped. Like any Observer the functions must be safe for
// concurrent use — parallel pipeline workers invoke them concurrently.
type Func struct {
	OnStageStart  func(stage Stage)
	OnCounter     func(stage Stage, name string, delta int64)
	OnStageFinish func(stage Stage, elapsed time.Duration)
}

// StageStart forwards to OnStageStart when set.
func (f Func) StageStart(stage Stage) {
	if f.OnStageStart != nil {
		f.OnStageStart(stage)
	}
}

// Counter forwards to OnCounter when set.
func (f Func) Counter(stage Stage, name string, delta int64) {
	if f.OnCounter != nil {
		f.OnCounter(stage, name, delta)
	}
}

// StageFinish forwards to OnStageFinish when set.
func (f Func) StageFinish(stage Stage, elapsed time.Duration) {
	if f.OnStageFinish != nil {
		f.OnStageFinish(stage, elapsed)
	}
}

// EventKind discriminates recorded observer callbacks.
type EventKind int

// The three observer callback kinds.
const (
	KindStart EventKind = iota
	KindCounter
	KindFinish
)

// Event is one recorded observer callback.
type Event struct {
	Kind    EventKind
	Stage   Stage
	Name    string        // counter name, for KindCounter
	Delta   int64         // counter increment, for KindCounter
	Elapsed time.Duration // stage wall-time, for KindFinish
	At      time.Time     // when the callback arrived
}

// Recorder records every event for later inspection. Useful in tests
// and to print partial telemetry after a cancelled run.
//
// Per-stage totals are maintained incrementally as events arrive, so a
// concurrent scrape (Totals, Summary, WriteJSON) holds the lock for
// O(stages), not O(events) — a long-lived server can poll a recorder
// mid-run without stalling the pipeline's hot append path.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	totals map[Stage]*StageTotal
	order  []Stage // stages in first-seen order
}

// StageStart records a start event.
func (r *Recorder) StageStart(stage Stage) {
	r.record(Event{Kind: KindStart, Stage: stage, At: time.Now()})
}

// Counter records a counter event.
func (r *Recorder) Counter(stage Stage, name string, delta int64) {
	r.record(Event{Kind: KindCounter, Stage: stage, Name: name, Delta: delta, At: time.Now()})
}

// StageFinish records a finish event.
func (r *Recorder) StageFinish(stage Stage, elapsed time.Duration) {
	r.record(Event{Kind: KindFinish, Stage: stage, Elapsed: elapsed, At: time.Now()})
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	t, ok := r.totals[e.Stage]
	if !ok {
		if r.totals == nil {
			r.totals = make(map[Stage]*StageTotal)
		}
		t = &StageTotal{Stage: e.Stage, Counters: map[string]int64{}}
		r.totals[e.Stage] = t
		r.order = append(r.order, e.Stage)
	}
	switch e.Kind {
	case KindStart:
		t.Open++
	case KindCounter:
		t.Counters[e.Name] += e.Delta
	case KindFinish:
		if t.Open > 0 {
			t.Open--
		}
		t.Spans++
		t.Elapsed += e.Elapsed
	}
	r.mu.Unlock()
}

// Events returns a copy of all recorded events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// StageTotal aggregates the recorded events of one stage.
type StageTotal struct {
	Stage    Stage
	Spans    int           // completed start/finish pairs
	Open     int           // started but not finished (cancelled mid-stage)
	Elapsed  time.Duration // summed wall-time of completed spans
	Counters map[string]int64
}

// Totals aggregates events per stage, in Figure 1 order for the known
// pipeline stages followed by any other stages in first-seen order.
// The aggregates are maintained incrementally, so the call is O(stages)
// regardless of how many events were recorded and is safe (and cheap)
// to invoke concurrently with an active run.
func (r *Recorder) Totals() []StageTotal {
	r.mu.Lock()
	order := append([]Stage(nil), r.order...)
	byStage := make(map[Stage]*StageTotal, len(order))
	for s, t := range r.totals {
		counters := make(map[string]int64, len(t.Counters))
		for k, v := range t.Counters {
			counters[k] = v
		}
		byStage[s] = &StageTotal{Stage: s, Spans: t.Spans, Open: t.Open,
			Elapsed: t.Elapsed, Counters: counters}
	}
	r.mu.Unlock()

	rank := make(map[Stage]int, len(order))
	for i, s := range Stages() {
		rank[s] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		ri, iok := rank[order[i]]
		rj, jok := rank[order[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		default:
			return false // unknown stages keep first-seen order after known ones
		}
	})
	out := make([]StageTotal, 0, len(order))
	for _, s := range order {
		out = append(out, *byStage[s])
	}
	return out
}

// Summary writes a per-stage telemetry table: spans, summed wall-time,
// and the aggregated counters. Stages cancelled mid-span are marked.
func (r *Recorder) Summary(w io.Writer) {
	totals := r.Totals()
	if len(totals) == 0 {
		fmt.Fprintln(w, "  (no stages recorded)")
		return
	}
	for _, t := range totals {
		open := ""
		if t.Open > 0 {
			open = "  [interrupted]"
		}
		fmt.Fprintf(w, "  %-24s %3dx %12s%s\n", t.Stage, t.Spans, fmtElapsed(t.Elapsed), open)
		names := make([]string, 0, len(t.Counters))
		for n := range t.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "      %-24s %d\n", n, t.Counters[n])
		}
	}
}

func fmtElapsed(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// Logging writes one line per event to W, prefixed with "observe:".
// It is the simplest useful Observer implementation and doubles as the
// reference for writing custom ones.
type Logging struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogging returns an observer streaming events as text lines to w.
func NewLogging(w io.Writer) *Logging {
	return &Logging{w: w}
}

// StageStart logs a stage start.
func (l *Logging) StageStart(stage Stage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "observe: %s start\n", stage)
}

// Counter logs a counter increment.
func (l *Logging) Counter(stage Stage, name string, delta int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "observe: %s %s += %d\n", stage, name, delta)
}

// StageFinish logs a stage finish with its wall-time.
func (l *Logging) StageFinish(stage Stage, elapsed time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "observe: %s finish in %s\n", stage, fmtElapsed(elapsed))
}
