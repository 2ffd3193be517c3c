package server

import (
	"testing"
	"time"

	"normalize"
)

// The server's hot paths: every pipeline counter delta funnels through
// busObserver.add, every event through bus.publish, every SSE write
// through subscription.poll, and every submission through cacheKey.
// `make bench-baseline` snapshots these into BENCH_server.json.

func BenchmarkBusPublish(b *testing.B) {
	bus := newBus()
	payload := stageEventData{Stage: "fd-discovery", Event: "finish", ElapsedNS: 12345}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.publish(eventStage, payload)
	}
}

func BenchmarkBusPublishWithSubscribers(b *testing.B) {
	bus := newBus()
	for i := 0; i < 4; i++ {
		sub := bus.subscribe()
		defer sub.cancel()
	}
	payload := stageEventData{Stage: "fd-discovery", Event: "finish", ElapsedNS: 12345}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.publish(eventStage, payload)
	}
}

func BenchmarkSubscriptionPoll(b *testing.B) {
	bus := newBus()
	for i := 0; i < maxBusHistory; i++ {
		bus.publish(eventProgress, progressEventData{})
	}
	sub := bus.subscribe()
	defer sub.cancel()
	sub.poll() // drain; steady-state polls see an idle full ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sub.poll()
	}
}

func BenchmarkBusObserverCounter(b *testing.B) {
	obs := newBusObserver(newBus())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		obs.add("fd-discovery", "comparisons", 1)
	}
}

func BenchmarkObserverSeamCounter(b *testing.B) {
	// The full per-delta path the pipeline pays: FuncObserver dispatch
	// into the coalescing adapter.
	o := newBusObserver(newBus()).observer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Counter(normalize.StageDiscovery, "comparisons", 1)
	}
}

func BenchmarkCacheKeyCSV(b *testing.B) {
	spec := &jobSpec{name: "address", csv: []byte(addressCSV)}
	spec.opts.MaxLhs = 3
	spec.opts.Timeout = time.Second
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cacheKey(spec)
	}
}

func BenchmarkCacheKeyGenerator(b *testing.B) {
	spec := &jobSpec{gen: "tpch", scale: 0.01, seed: 1}
	spec.opts.MaxLhs = 3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cacheKey(spec)
	}
}

func BenchmarkResultCacheGet(b *testing.B) {
	c := newResultCache(64, 0)
	keys := make([]string, 64)
	for i := range keys {
		spec := &jobSpec{gen: "tpch", scale: float64(i), seed: int64(i)}
		keys[i] = cacheKey(spec)
		c.put(keys[i], &normalize.Result{}, 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.get(keys[i%len(keys)])
	}
}
