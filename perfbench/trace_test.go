package main

import (
	"testing"
	"time"

	"normalize/internal/observe"
)

// TestTracerNeverPanics feeds the observer events in every order the
// pipeline can produce them, including a finish with no start (a
// replayed stage) and events outside any operation.
func TestTracerNeverPanics(t *testing.T) {
	tr := newTracer()
	tr.StageFinish(observe.KeyDerivation, time.Millisecond)
	tr.Counter(observe.Discovery, observe.CounterFDsInduced, 3)
	tr.StageStart(observe.Closure)
	tr.beginOp(0)
	tr.StageFinish(observe.Violation, time.Millisecond)
	if err := tr.call(callNormalize, func() error {
		tr.StageStart(observe.Discovery)
		tr.Counter(observe.Discovery, observe.CounterFDsInduced, 5)
		tr.StageStart(observe.Discovery)
		tr.StageFinish(observe.Discovery, 2*time.Millisecond)
		tr.StageFinish(observe.Discovery, 3*time.Millisecond)
		tr.StageFinish(observe.Discovery, time.Millisecond)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	v := tr.endOp(nil)
	if got := v[stageMetric(observe.Discovery, observe.CounterFDsInduced)]; got != 5 {
		t.Errorf("fds_induced = %v, want 5", got)
	}
	if got := v[stageMetric(observe.Discovery, measureMs)]; got != 6 {
		t.Errorf("fd-discovery.ms = %v, want 6", got)
	}
	tr.StageFinish(observe.Closure, time.Millisecond)
	if err := tr.writeChromeTrace(t.TempDir() + "/trace.json"); err != nil {
		t.Fatal(err)
	}
}

// TestUnattributedLeavesReplayedStagesOut replays a stage the way the
// pipeline does after concurrent pre-analysis: start and finish back to
// back, with the background work's duration as elapsed. The stage keeps
// its busy time, and the operation's self time does not go negative.
func TestUnattributedLeavesReplayedStagesOut(t *testing.T) {
	tr := newTracer()
	tr.beginOp(0)
	if err := tr.call(callNormalize, func() error {
		tr.StageStart(observe.KeyDerivation)
		tr.StageFinish(observe.KeyDerivation, time.Hour)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	v := tr.endOp(nil)
	if got, want := v[stageMetric(observe.KeyDerivation, measureMs)], ms(time.Hour); got != want {
		t.Errorf("key-derivation.ms = %v, want %v", got, want)
	}
	if got := v[opUnattributed]; got < 0 || got > 1000 {
		t.Errorf("op.unattributed_ms = %v, want the few ms the operation took", got)
	}
}
