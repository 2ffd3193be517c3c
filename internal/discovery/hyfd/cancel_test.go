package hyfd

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/observe"
	"normalize/internal/wsteal"
)

// TestDiscoverContextPreCancelled: a context cancelled before the call
// must abort discovery immediately.
func TestDiscoverContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := datagen.Plista(1)
	start := time.Now()
	_, err := DiscoverContext(ctx, ds.Denormalized, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("pre-cancelled discovery took %v, want ≈ immediate", elapsed)
	}
}

// TestDiscoverContextCancelMidRun is the repository's cancellation-
// latency contract on a Plista-sized dataset: full discovery takes
// seconds, and a cancellation landing mid-run must surface in under one
// second, without leaking validation workers.
func TestDiscoverContextCancelMidRun(t *testing.T) {
	ds := datagen.Plista(1)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	var cancelledAt time.Time
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
	}()
	_, err := DiscoverContext(ctx, ds.Denormalized, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (discovery normally runs for seconds)", err)
	}
	if latency := time.Since(cancelledAt); latency > time.Second {
		t.Errorf("cancellation surfaced %v after cancel, contract is < 1s", latency)
	}
	waitForGoroutines(t, baseline)
}

// TestDiscoverContextCancelSequential covers the non-parallel
// validation path too.
func TestDiscoverContextCancelSequential(t *testing.T) {
	ds := datagen.Plista(1)
	ctx, cancel := context.WithCancel(context.Background())
	var cancelledAt time.Time
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelledAt = time.Now()
		cancel()
	}()
	_, err := DiscoverContext(ctx, ds.Denormalized, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if latency := time.Since(cancelledAt); latency > time.Second {
		t.Errorf("cancellation surfaced %v after cancel, contract is < 1s", latency)
	}
}

// TestSamplerCancelPolledPerCluster: a cancellation that lands while a
// cluster's agree sets are being emitted stops sampling once that
// cluster is committed, at every worker count — however many pairs the
// remaining clusters and rounds would compare, and although emit never
// returns an error.
func TestSamplerCancelPolledPerCluster(t *testing.T) {
	rel := samplingRelation(rand.New(rand.NewSource(59)), 9, 400)
	want := referenceSample(t, rel, []int{5}).sets
	if len(want) < 2 || want[0].cluster == want[len(want)-1].cluster {
		t.Fatal("test setup: the reference sweep must span several clusters")
	}
	for _, workers := range []int{1, 2} {
		s, err := newSampler(rel.Encode(), substrateHandles(t, rel))
		if err != nil {
			t.Fatal(err)
		}
		var pool *wsteal.Pool
		if workers > 1 {
			pool = wsteal.New(workers)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var got []string
		emit := func(a *bitset.Set) error {
			cancel()
			got = append(got, a.String())
			return nil
		}
		for r := 0; r < 5 && err == nil && s.hasMore(); r++ {
			err = s.run(ctx, pool, emit)
		}
		if pool != nil {
			pool.Close()
		}
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: run returned %v, want context.Canceled", workers, err)
		}
		for i, set := range got {
			if i >= len(want) || set != want[i].set {
				t.Fatalf("workers %d: emitted set %d = %s, not the reference sequence", workers, i, set)
			}
			if want[i].round != want[0].round || want[i].cluster != want[0].cluster {
				t.Fatalf("workers %d: emitted %d sets after the cancel, reaching round %d cluster %d past round %d cluster %d",
					workers, len(got), want[i].round, want[i].cluster, want[0].round, want[0].cluster)
			}
		}
	}
}

// TestDiscoverContextCancelledFlushesCounters: a cancelled run must
// still report the work it did to the observer (partial telemetry).
// Machine speed (and the race detector) shifts how far discovery gets
// before a fixed delay, so the cancel point escalates until a cancelled
// run demonstrably accumulated work before being interrupted.
func TestDiscoverContextCancelledFlushesCounters(t *testing.T) {
	ds := datagen.Plista(1)
	for delay := 100 * time.Millisecond; delay <= 12*time.Second; delay *= 2 {
		rec := &observe.Recorder{}
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(delay, cancel)
		_, err := DiscoverContext(ctx, ds.Denormalized, Options{Observer: rec})
		timer.Stop()
		cancel()
		if err == nil {
			// The run beat the timer: cancellation never landed, so this
			// attempt says nothing about the interrupted flush path.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		var work int64
		for _, tot := range rec.Totals() {
			for _, v := range tot.Counters {
				work += v
			}
		}
		if work > 0 {
			return // cancelled mid-run and partial counters were flushed
		}
		// Cancelled before discovery proper began (still building PLIs);
		// give it longer and try again.
	}
	t.Fatal("no cancelled run flushed partial work counters at any delay")
}

// waitForGoroutines fails the test when the goroutine count does not
// return to (near) the baseline — i.e. when cancellation leaked
// validation workers.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
