package wsteal

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"normalize/internal/guard"
)

// TestRunExecutesEveryIndexOnce pins the scheduler's core contract at
// several worker counts: every index in [0, n) runs exactly once, and
// the commit callback observes the indices in strictly ascending order.
func TestRunExecutesEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 8} {
		p := New(workers)
		const n = 1000
		ran := make([]atomic.Int32, n)
		var committed []int
		err := p.Run(context.Background(), "test", n, func(i, slot int) error {
			if slot < 0 || slot >= workers {
				t.Errorf("workers=%d: slot %d out of range", workers, slot)
			}
			ran[i].Add(1)
			return nil
		}, func(i int) error {
			committed = append(committed, i)
			return nil
		})
		p.Close()
		if err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
		if len(committed) != n {
			t.Fatalf("workers=%d: committed %d of %d", workers, len(committed), n)
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order broken at %d: got %d", workers, i, c)
			}
		}
	}
}

// TestCommitOverlapsExecution verifies the commit cursor does not wait
// for the whole batch: with a slow tail task, early indices must commit
// before Run returns — i.e. before the tail completes.
func TestCommitOverlapsExecution(t *testing.T) {
	p := New(2)
	defer p.Close()
	const n = 64
	tail := make(chan struct{})
	var tailDone atomic.Bool
	earlyBeforeTail := false
	err := p.Run(context.Background(), "test", n, func(i, slot int) error {
		if i == n-1 {
			<-tail
			tailDone.Store(true)
		}
		return nil
	}, func(i int) error {
		if i == 0 && !tailDone.Load() {
			earlyBeforeTail = true
		}
		if i == n/2 {
			close(tail) // release the tail only after half committed
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !earlyBeforeTail {
		t.Error("commit of index 0 waited for the whole batch")
	}
}

// TestStealRebalances gives one worker a range of slow tasks and the
// rest instant ones; the idle workers must steal from the loaded range.
func TestStealRebalances(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 400
	err := p.Run(context.Background(), "test", n, func(i, slot int) error {
		if i < n/4 { // worker 0's initial range
			time.Sleep(200 * time.Microsecond)
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if p.Steals() == 0 {
		t.Error("no steals despite a 4x skewed load")
	}
}

// TestErrorPoisonsBatch: the first task error is returned and the
// remaining tasks drain without running their bodies.
func TestErrorPoisonsBatch(t *testing.T) {
	p := New(4)
	defer p.Close()
	boom := errors.New("boom")
	var ran atomic.Int32
	err := p.Run(context.Background(), "test", 1000, func(i, slot int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if got := ran.Load(); got == 1000 {
		t.Error("poisoned batch still ran every task")
	}
}

// TestCommitErrorStopsCommit: an error from commit is returned and no
// further commits happen, while the batch itself drains.
func TestCommitErrorStopsCommit(t *testing.T) {
	p := New(2)
	defer p.Close()
	boom := errors.New("commit boom")
	var commits atomic.Int32
	err := p.Run(context.Background(), "test", 100, func(i, slot int) error {
		return nil
	}, func(i int) error {
		commits.Add(1)
		if i == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want %v", err, boom)
	}
	if got := commits.Load(); got != 11 {
		t.Errorf("commit ran %d times after error at index 10, want 11", got)
	}
}

// TestPanicSurfacesAsGuardError: a panicking task must surface as a
// *guard.PanicError from Run, not crash the process.
func TestPanicSurfacesAsGuardError(t *testing.T) {
	p := New(2)
	defer p.Close()
	err := p.Run(context.Background(), "test batch", 50, func(i, slot int) error {
		if i == 7 {
			panic("kaboom")
		}
		return nil
	}, nil)
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run error = %v, want *guard.PanicError", err)
	}
}

// TestCancelMidStealLeavesNoGoroutines is the pool's leak contract: a
// context cancelled mid-batch (while slow tasks force steals) must
// return promptly with ctx.Err, release every worker back to the idle
// pool, and leave no goroutines behind after Close.
func TestCancelMidStealLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	p := New(8)
	var started atomic.Int32
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx, "test", 10000, func(i, slot int) error {
			started.Add(1)
			time.Sleep(100 * time.Microsecond)
			return nil
		}, nil)
	}()
	for started.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if got := started.Load(); got == 10000 {
		t.Error("cancelled batch still ran every task")
	}
	p.Close()
	settle(t, baseline)
}

// TestSequentialBatchesReusePool: one pool must serve many batches with
// per-slot scratch staying worker-stable (the slot argument is the same
// goroutine across batches).
func TestSequentialBatchesReusePool(t *testing.T) {
	p := New(3)
	defer p.Close()
	for round := 0; round < 20; round++ {
		var sum atomic.Int64
		err := p.Run(context.Background(), "test", 97, func(i, slot int) error {
			sum.Add(int64(i))
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := sum.Load(); got != 97*96/2 {
			t.Fatalf("round %d: sum = %d, want %d", round, got, 97*96/2)
		}
	}
}

// TestZeroAndTinyBatches: edge sizes must not hang or double-run.
func TestZeroAndTinyBatches(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 2, 3} {
		var ran atomic.Int32
		err := p.Run(context.Background(), "test", n, func(i, slot int) error {
			ran.Add(1)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := int(ran.Load()); got != n {
			t.Fatalf("n=%d: ran %d tasks", n, got)
		}
	}
}

// settle waits for the goroutine count to return to (near) the
// baseline, the shared shape of this repo's leak checks.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

// TestResolve pins the worker rule every Workers option resolves
// through: a positive request clamped to the host's CPUs, GOMAXPROCS
// (clamped the same way) for zero or a negative request. It only
// computes counts; no pool is started.
func TestResolve(t *testing.T) {
	cpus := runtime.NumCPU()
	procs := min(runtime.GOMAXPROCS(0), cpus)
	for _, c := range []struct{ requested, want int }{
		{1, 1},
		{cpus, cpus},
		{cpus + 7, cpus},
		{0, procs},
		{-3, procs},
	} {
		if got := Resolve(c.requested); got != c.want {
			t.Errorf("Resolve(%d) = %d, want %d", c.requested, got, c.want)
		}
	}
}
