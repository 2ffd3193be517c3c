package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"normalize"
	"normalize/internal/observe"
)

// The public calls an operation makes, each timed as a child span of
// the operation's root span.
const (
	callIngestCSV      = "IngestCSV"
	callNormalize      = "NormalizeContext"
	callDecodeResult   = "DecodeResult"
	callReadCSV        = "ReadCSV"
	callNormalizeDelta = "NormalizeDelta"
	callDDL            = "DDL"
)

// span is one traced interval: an operation (root), a public call
// (child) or a pipeline stage (grandchild).
type span struct {
	id, parent int
	name       string
	cat        string
	start, end time.Duration // since the tracer's epoch
	args       map[string]int64
}

// openStage is a stage span whose StageFinish has not arrived yet.
type openStage struct {
	cpu time.Duration
}

var _ normalize.Observer = (*tracer)(nil)

// tracer records the traced run. It is the pipeline's Observer during
// traced operations: it keeps spans in memory and accumulates each
// operation's per-layer values from the stage spans and counters. Its
// callbacks never panic, whatever order events arrive in.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	open   map[normalize.Stage][]openStage
	parent int // id of the span new stage spans attach to
	root   int // id of the running operation's span
	// cur holds the running operation's layer values.
	cur      map[string]float64
	opStart  time.Time
	memStart runtime.MemStats
	// depth counts the stages open between their callbacks; while it is
	// above zero the operation's time since coverFrom is inside a stage.
	depth     int
	coverFrom time.Duration
	// stagedMs is the running operation's time inside stages, the union
	// of the stage spans' callback intervals. A stage replayed after
	// concurrent pre-analysis reports its busy time as elapsed, but its
	// callbacks come back to back: its work overlapped other stages'
	// time, so it adds next to nothing here.
	stagedMs float64
	// leafMs sums the calls that report no stage of their own.
	leafMs float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[normalize.Stage][]openStage)}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) add(s span) int {
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// StageStart opens a stage span under the current call.
func (t *tracer) StageStart(stage normalize.Stage) {
	cpu := processCPU()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.depth == 0 {
		t.coverFrom = t.now()
	}
	t.depth++
	t.open[stage] = append(t.open[stage], openStage{cpu: cpu})
}

// Counter adds to the running operation's <stage>.<counter> value.
func (t *tracer) Counter(stage normalize.Stage, name string, delta int64) {
	t.mu.Lock()
	if t.cur != nil {
		t.cur[stageMetric(stage, name)] += float64(delta)
	}
	t.mu.Unlock()
}

// StageFinish closes the stage's span. The span is placed to end now
// and to last elapsed, the stage's busy time: stages replayed after
// concurrent pre-analysis report their real duration only there.
func (t *tracer) StageFinish(stage normalize.Stage, elapsed time.Duration) {
	cpu := processCPU()
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	s := span{parent: t.parent, name: string(stage), cat: "stage", start: end - elapsed, end: end}
	if stack := t.open[stage]; len(stack) > 0 {
		o := stack[len(stack)-1]
		t.open[stage] = stack[:len(stack)-1]
		if t.cur != nil {
			t.cur[stageMetric(stage, measureCPU)] += ms(cpu - o.cpu)
		}
		if t.depth--; t.depth == 0 {
			t.stagedMs += ms(end - t.coverFrom)
		}
	}
	t.add(s)
	if t.cur != nil {
		t.cur[stageMetric(stage, measureMs)] += ms(elapsed)
	}
}

// beginOp opens operation i's root span.
func (t *tracer) beginOp(i int) {
	runtime.ReadMemStats(&t.memStart)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = make(map[string]float64)
	clear(t.open)
	t.depth, t.stagedMs, t.leafMs = 0, 0, 0
	t.opStart = time.Now()
	t.root = t.add(span{name: "op", cat: "op", start: t.now(), args: map[string]int64{"op": int64(i)}})
	t.parent = t.root
}

// endOp closes the root span and returns the operation's layer values,
// with derived ratios and the runtime's allocation counts filled in.
func (t *tracer) endOp(out *opResult) map[string]float64 {
	wall := time.Since(t.opStart)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.mu.Lock()
	defer t.mu.Unlock()
	root := &t.spans[t.root-1]
	root.end = t.now()
	if t.depth > 0 {
		// A stage that never finished covers the rest of the operation.
		t.stagedMs += ms(root.end - t.coverFrom)
	}
	v := t.cur
	t.cur = nil
	t.parent = 0
	for name, x := range v {
		if isCounter(name) {
			root.args[name] = int64(x)
		}
	}

	// The operation's self time: glue, waiting on pre-analysis and the
	// work of calls outside any stage (AppendRelation in NormalizeDelta).
	v[opUnattributed] = ms(wall) - t.stagedMs - t.leafMs
	if s := v[stageMetric(observe.Ingest, measureMs)]; s > 0 {
		v[ingestMBs] = v[stageMetric(observe.Ingest, observe.CounterIngestBytes)] / (1 << 20) / (s / 1e3)
	}
	if c := v[stageMetric(observe.Discovery, observe.CounterCandidatesChecked)]; c > 0 {
		v[discoveryValidRatio] = v[stageMetric(observe.Discovery, observe.CounterFDsDiscovered)] / c
	}
	if out != nil && out.delta != nil && out.delta.FellBack {
		v[deltaFellBack] = 1
	}
	v[runtimeAllocMB] = float64(mem.TotalAlloc-t.memStart.TotalAlloc) / (1 << 20)
	v[runtimeAllocs] = float64(mem.Mallocs - t.memStart.Mallocs)
	v[runtimeGCCycles] = float64(mem.NumGC - t.memStart.NumGC)
	return v
}

// call runs f as a timed public call: a child span of the operation on
// a traced run, and a plain call on an untimed one (nil tracer).
func (t *tracer) call(name string, f func() error) error {
	if t == nil {
		return f()
	}
	t.mu.Lock()
	op := t.parent
	start := t.now()
	id := t.add(span{parent: op, name: name, cat: "call", start: start})
	t.parent = id
	t.mu.Unlock()

	err := f()

	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.now()
	t.spans[id-1].end = end
	t.parent = op
	if t.cur == nil {
		return err
	}
	d := ms(end - start)
	switch name {
	case callDecodeResult:
		t.cur[persistDecodeMs] += d
	case callNormalizeDelta:
		t.cur[deltaMs] += d
	}
	if !t.hasChildren(id) {
		t.leafMs += d
	}
	return err
}

func (t *tracer) hasChildren(id int) bool {
	for i := len(t.spans) - 1; i >= id; i-- {
		if t.spans[i].parent == id {
			return true
		}
	}
	return false
}

// writeChromeTrace writes every span as Chrome trace-event JSON
// ("X" complete events, timestamps in microseconds), loadable in
// chrome://tracing or Perfetto.
func (t *tracer) writeChromeTrace(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
