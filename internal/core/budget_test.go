package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"normalize/internal/budget"
	"normalize/internal/datagen"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

// TestZeroBudgetIsUnlimited: the zero-value Budget must not change the
// result in any way — no degradations, identical schema.
func TestZeroBudgetIsUnlimited(t *testing.T) {
	rel := address()
	plain, err := NormalizeRelation(rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := NormalizeRelation(rel, Options{Budget: Budget{}})
	if err != nil {
		t.Fatalf("zero budget errored: %v", err)
	}
	if len(budgeted.Degradations) != 0 {
		t.Errorf("zero budget degraded: %v", budgeted.Degradations)
	}
	if len(budgeted.Tables) != len(plain.Tables) {
		t.Fatalf("zero budget changed the schema: %d vs %d tables",
			len(budgeted.Tables), len(plain.Tables))
	}
	for i := range plain.Tables {
		if !plain.Tables[i].Attrs.Equal(budgeted.Tables[i].Attrs) {
			t.Errorf("table %d attrs differ under zero budget", i)
		}
	}
	if !(Budget{}).IsZero() {
		t.Error("Budget{}.IsZero() = false")
	}
}

// TestTimeoutComposesWithCancelledParent: Options.Timeout must not mask
// a parent context that is already dead — the run returns the parent's
// error immediately, before any work.
func TestTimeoutComposesWithCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := NormalizeRelationContext(ctx, address(), Options{Timeout: time.Hour})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (parent wins over Timeout)", err)
	}
	if res != nil {
		t.Error("pre-cancelled run returned a result")
	}
	if time.Since(start) > time.Second {
		t.Error("pre-cancelled run did work")
	}
}

// TestTimeoutMidDiscoveryReturnsPartial is the headline acceptance
// criterion: a Timeout expiring mid-discovery on a dataset whose full
// run takes seconds must still return a non-nil result containing at
// least the original relation, plus a populated degradation report.
func TestTimeoutMidDiscoveryReturnsPartial(t *testing.T) {
	ds := datagen.Plista(1)
	res, err := NormalizeRelationContext(context.Background(), ds.Denormalized,
		Options{Timeout: 50 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatal("timed-out run returned no partial result")
	}
	if len(res.Degradations) == 0 {
		t.Error("timed-out run has an empty degradation report")
	}
	// The partial result must cover every attribute of the input.
	want := ds.Denormalized.DedupCopy(ds.Denormalized.Name)
	if err := checkLossless(want, res.Tables); err != nil {
		t.Errorf("timed-out partial result not lossless: %v", err)
	}
}

// TestMaxRowsSamplesDeterministically: a row ceiling samples upfront,
// records the degradation, completes without error, and the result is
// lossless with respect to the sample — twice over, identically.
func TestMaxRowsSamplesDeterministically(t *testing.T) {
	rel := correlated(rand.New(rand.NewSource(13)), 100)
	run := func() *Result {
		res, err := NormalizeRelation(rel, Options{Budget: Budget{MaxRows: 20}})
		if err != nil {
			t.Fatalf("sampled run errored: %v", err)
		}
		return res
	}
	res := run()
	if len(res.Degradations) == 0 || res.Degradations[0].Action != "sampled rows" {
		t.Fatalf("degradations = %v, want leading 'sampled rows'", res.Degradations)
	}
	sample := sampleRows(rel, 20)
	if sample.NumRows() > 20 {
		t.Fatalf("sampleRows returned %d rows, cap 20", sample.NumRows())
	}
	if err := checkLossless(sample, res.Tables); err != nil {
		t.Errorf("sampled run not lossless w.r.t. its sample: %v", err)
	}
	again := run()
	if !reflect.DeepEqual(res.Degradations, again.Degradations) {
		t.Error("row sampling not deterministic across runs")
	}
	if len(res.Tables) != len(again.Tables) {
		t.Error("sampled schema not deterministic across runs")
	}
}

// TestBudgetTripStage1 drives the FD ceiling to exhaustion: the ladder
// tightens max-lhs, then halves rows, then gives up with the original
// relation as the (trivially lossless) partial result.
func TestBudgetTripStage1(t *testing.T) {
	rel := correlated(rand.New(rand.NewSource(17)), 60)
	res, err := NormalizeRelation(rel, Options{Budget: Budget{MaxFDs: 1}})
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if pe.Stage != "fd-discovery" {
		t.Errorf("partial stage = %s, want fd-discovery", pe.Stage)
	}
	var ex *budget.Exceeded
	if !errors.As(err, &ex) || ex.Resource != budget.ResourceFDs {
		t.Fatalf("err = %v, want wrapped *budget.Exceeded on %s", err, budget.ResourceFDs)
	}
	if res == nil || len(res.Tables) != 1 {
		t.Fatalf("want the single undecomposed relation, got %v", res)
	}
	// The ladder must have tried max-lhs rungs and row halvings before
	// giving up, all on record.
	actions := map[string]bool{}
	for _, d := range res.Degradations {
		actions[d.Action] = true
	}
	for _, want := range []string{"tightened max-lhs", "halved rows", "run stopped early"} {
		if !actions[want] {
			t.Errorf("degradation ladder missing %q; got %v", want, res.Degradations)
		}
	}
}

// TestBudgetTripStage6 places the first trip inside the decomposition
// loop (discovery runs uncharged via a custom function) and checks the
// flushed partial result is join-lossless.
func TestBudgetTripStage6(t *testing.T) {
	rel := correlated(rand.New(rand.NewSource(19)), 80)
	opts := Options{
		Budget: Budget{MaxMemoryBytes: 2048},
		DiscoverContext: func(ctx context.Context, r *relation.Relation) (*fd.Set, error) {
			return hyfd.DiscoverContext(ctx, r, hyfd.Options{})
		},
	}
	res, err := NormalizeRelation(rel, opts)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PartialError", err, err)
	}
	if pe.Stage != "decomposition" {
		t.Errorf("partial stage = %s, want decomposition", pe.Stage)
	}
	var ex *budget.Exceeded
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v, want wrapped *budget.Exceeded", err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatal("no partial result")
	}
	if lerr := checkLossless(rel, res.Tables); lerr != nil {
		t.Errorf("stage-6 partial result not lossless: %v", lerr)
	}
	stopped := false
	for _, d := range res.Degradations {
		if d.Action == "stopped decomposing" {
			stopped = true
		}
	}
	if !stopped {
		t.Errorf("degradations = %v, want 'stopped decomposing'", res.Degradations)
	}
}

// TestBudgetDegradesToPartialClosure: a memory ceiling tripped during
// closure extension degrades to the partially extended cover — which is
// still sound (only implied attributes were added) — and the run keeps
// going instead of failing. A reduced cover A→B, B→C is fed in via a
// custom discover function so the closure step must extend A's RHS.
func TestBudgetDegradesToPartialClosure(t *testing.T) {
	rel := address()
	reduced := func(ctx context.Context, r *relation.Relation) (*fd.Set, error) {
		// postcode→city and first,last→postcode hold in the address
		// fixture; first,last→city is left for closure to derive.
		s := fd.NewSet(r.NumAttrs())
		s.AddAttrs([]int{2}, []int{3})    // Postcode → City
		s.AddAttrs([]int{0, 1}, []int{2}) // First, Last → Postcode
		return s, nil
	}
	res, err := NormalizeRelation(rel, Options{
		Budget:          Budget{MaxMemoryBytes: 1},
		DiscoverContext: reduced,
		Closure:         ClosureNaive,
	})
	if res == nil {
		t.Fatalf("no result (err = %v)", err)
	}
	if err != nil {
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want nil or *PartialError", err)
		}
	}
	found := false
	for _, d := range res.Degradations {
		if d.Action == "partial closure accepted" {
			found = true
			if d.Stage != "closure" {
				t.Errorf("degradation stage = %s, want closure", d.Stage)
			}
		}
	}
	if !found {
		t.Fatalf("degradations = %v, want 'partial closure accepted'", res.Degradations)
	}
	if lerr := checkLossless(rel, res.Tables); lerr != nil {
		t.Errorf("run with partial closure not lossless: %v", lerr)
	}
}
