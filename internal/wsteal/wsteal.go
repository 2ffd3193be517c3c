// Package wsteal provides a work-stealing scheduler for index-addressed
// task batches, built for the level-wise candidate validation loops of
// dependency discovery (HyFD, from scratch and revalidating).
//
// The previous generation of those loops spawned a fresh goroutine pool
// per lattice level and fed it one candidate at a time through a
// channel, then folded the verdicts after a full-level barrier. That
// shape serializes twice: the channel hands out work at one item per
// coordinator wakeup, and the barrier parks every worker while the
// coordinator folds. A Pool replaces both:
//
//   - Workers are persistent: one set of goroutines per discovery run,
//     parked between batches, so a 20-level lattice pays goroutine
//     startup once instead of 20 times.
//   - Work is range-split, not channel-fed: each batch divides [0, n)
//     into contiguous per-worker chunks; a worker that exhausts its own
//     chunk steals the upper half of the largest remaining victim chunk
//     with a single CAS. No coordinator is involved in distribution.
//   - Verdicts commit in index order while the batch is still running:
//     the coordinator's commit callback observes every index in
//     ascending order as soon as all smaller indices have finished, so
//     downstream work (FD induction from violations) overlaps the
//     remaining validation instead of waiting for a barrier.
//
// Determinism: commit is called exactly once per index, in ascending
// index order, from the Run caller's goroutine — regardless of worker
// count, steal interleaving, or scheduling. Any pipeline whose only
// cross-task coupling runs through commit therefore produces output
// byte-identical to a serial loop.
package wsteal

import (
	"context"
	"log"
	"runtime"
	"sync"
	"sync/atomic"

	"normalize/internal/guard"
)

// clampOnce gates the debug log line of the first clamped request so a
// server processing thousands of jobs emits it once, not per job.
var clampOnce sync.Once

// ClampWorkers caps a requested worker count at runtime.NumCPU(). The
// validation pools are CPU-bound, so workers beyond the physical cores
// cannot add throughput and measurably cost it on small hosts (cache
// pressure plus steal contention); every Options.Workers resolution
// funnels through this clamp. Results are unaffected — verdicts commit
// in index order at any worker count. New deliberately does not clamp:
// the pool itself is policy-free and tests exercise oversubscription.
func ClampWorkers(w int) int {
	if max := runtime.NumCPU(); w > max {
		clampOnce.Do(func() {
			log.Printf("wsteal: clamping %d workers to %d (runtime.NumCPU)", w, max)
		})
		return max
	}
	return w
}

// Resolve returns the worker count a Workers option asks for: the
// request when positive, GOMAXPROCS otherwise, clamped to the host's
// CPUs (ClampWorkers). Every pool the pipeline sizes from its Workers
// option — HyFD's and the pipeline's own — resolves through it.
func Resolve(requested int) int {
	if requested > 0 {
		return ClampWorkers(requested)
	}
	return ClampWorkers(runtime.GOMAXPROCS(0))
}

// Pool is a fixed-size set of persistent worker goroutines executing
// Run batches with work stealing. A Pool is cheap enough to create per
// discovery run; Close releases the goroutines. Run must not be called
// concurrently with itself or after Close.
type Pool struct {
	workers int
	batches chan *batch
	wg      sync.WaitGroup
	steals  atomic.Int64
}

// New creates a pool with the given number of worker goroutines
// (minimum 1), parked until the first Run.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, batches: make(chan *batch)}
	p.wg.Add(workers)
	for slot := 0; slot < workers; slot++ {
		go p.worker(slot)
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Steals returns the cumulative number of successful chunk steals, for
// telemetry and tests.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// Close stops the worker goroutines. It must not be called while a Run
// is in flight; Run must not be called after Close.
func (p *Pool) Close() {
	close(p.batches)
	p.wg.Wait()
}

func (p *Pool) worker(slot int) {
	defer p.wg.Done()
	for b := range p.batches {
		b.work(slot)
		b.wg.Done()
	}
}

// batch is one Run invocation: tasks [0, n) split into per-worker index
// ranges, stolen range-wise, with per-index completion flags driving
// the coordinator's in-order commit cursor.
type batch struct {
	n      int
	label  string
	task   func(i, slot int) error
	chunks []chunk
	done   []atomic.Bool
	notify chan struct{} // capacity 1: kick the commit cursor
	stop   atomic.Bool   // error or cancellation: drain without running
	errMu  sync.Mutex
	err    error
	wg     sync.WaitGroup // participating workers
	pool   *Pool
}

// chunk is a half-open index range packed into one atomic word
// (next<<32 | limit), so the owner's take-from-the-front and a thief's
// take-the-back-half contend on a single CAS.
type chunk struct{ state atomic.Uint64 }

func pack(next, limit int) uint64    { return uint64(next)<<32 | uint64(limit) }
func unpack(s uint64) (int, int)     { return int(s >> 32), int(s & 0xffffffff) }
func (c *chunk) load() (int, int)    { return unpack(c.state.Load()) }
func (c *chunk) set(next, limit int) { c.state.Store(pack(next, limit)) }

// Run executes task(i, slot) for every i in [0, n) across the pool's
// workers, where slot identifies the executing worker (stable per
// goroutine, in [0, Workers())) for per-worker scratch. If commit is
// non-nil it is called from Run's goroutine for every index in
// ascending order, as soon as all indices ≤ i have completed —
// overlapping the rest of the batch.
//
// The first task or commit error (worker panics surface as
// *guard.PanicError) poisons the batch: remaining tasks are skipped,
// commit stops, and the error is returned. Cancellation of ctx behaves
// the same with ctx.Err(). Either way Run returns only after every
// worker has left the batch, so task-visible state (result slices) is
// safe to read, and partially committed prefixes remain usable.
func (p *Pool) Run(ctx context.Context, label string, n int, task func(i, slot int) error, commit func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	b := &batch{
		n:      n,
		label:  label,
		task:   task,
		chunks: make([]chunk, p.workers),
		done:   make([]atomic.Bool, n),
		notify: make(chan struct{}, 1),
		pool:   p,
	}
	// Balanced contiguous ranges; trailing workers may start empty and
	// immediately steal.
	base, rem := n/p.workers, n%p.workers
	start := 0
	for slot := range b.chunks {
		size := base
		if slot < rem {
			size++
		}
		b.chunks[slot].set(start, start+size)
		start += size
	}
	b.wg.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.batches <- b
	}

	cursor, committing := 0, commit != nil
	for cursor < n {
		for cursor < n && b.done[cursor].Load() {
			if committing && !b.stop.Load() {
				if err := commit(cursor); err != nil {
					b.fail(err)
					committing = false
				}
			}
			cursor++
		}
		if cursor >= n {
			break
		}
		select {
		case <-b.notify:
		case <-ctx.Done():
			b.stop.Store(true)
			cursor = n // workers drain the flags; stop waiting on them
		}
	}
	b.wg.Wait()
	b.errMu.Lock()
	err := b.err
	b.errMu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// work drains the batch from worker slot: claim from the own chunk,
// then steal the upper half of the largest victim chunk, until no chunk
// holds unclaimed indices.
func (b *batch) work(slot int) {
	for {
		i, ok := b.claim(slot)
		if !ok {
			if !b.steal(slot) {
				return
			}
			continue
		}
		b.runTask(i, slot)
	}
}

// claim takes the next index from the worker's own chunk.
func (b *batch) claim(slot int) (int, bool) {
	c := &b.chunks[slot]
	for {
		s := c.state.Load()
		next, limit := unpack(s)
		if next >= limit {
			return 0, false
		}
		if c.state.CompareAndSwap(s, pack(next+1, limit)) {
			return next, true
		}
	}
}

// steal moves the upper half of the largest remaining victim chunk into
// the worker's own (empty) chunk. Returns false when no chunk holds
// work, which terminates the worker's participation in the batch.
func (b *batch) steal(slot int) bool {
	for {
		victim, best := -1, 0
		for v := range b.chunks {
			if v == slot {
				continue
			}
			if next, limit := b.chunks[v].load(); limit-next > best {
				victim, best = v, limit-next
			}
		}
		if victim < 0 {
			return false
		}
		s := b.chunks[victim].state.Load()
		next, limit := unpack(s)
		if next >= limit {
			continue // raced to empty; rescan
		}
		mid := next + (limit-next)/2
		if b.chunks[victim].state.CompareAndSwap(s, pack(next, mid)) {
			b.chunks[slot].set(mid, limit)
			b.pool.steals.Add(1)
			return true
		}
	}
}

// runTask executes one index (skipping the body when the batch is
// poisoned or cancelled) and publishes its completion.
func (b *batch) runTask(i, slot int) {
	if !b.stop.Load() {
		if err := guard.Run(b.label, func() error { return b.task(i, slot) }); err != nil {
			b.fail(err)
		}
	}
	b.done[i].Store(true)
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// fail records the first error and poisons the batch so remaining tasks
// drain without running.
func (b *batch) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
	b.stop.Store(true)
}
