package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"normalize"
)

// sweepSeeds are the committed seed and the twenty after it.
func sweepSeeds() []int64 {
	var seeds []int64
	for s := int64(committedSeed); len(seeds) < 21; s++ {
		seeds = append(seeds, s)
	}
	return seeds
}

// TestSeedSweep runs every workload's output check, on one operation
// per input, for the committed seed and twenty others. On orders-governed
// each seed must also stay exact while spilling PLIs to disk. It takes
// minutes, so it runs only when PERFBENCH_SWEEP is set. Subtests are
// named <workload>/<seed>, so -run selects a workload:
//
//	PERFBENCH_SWEEP=1 go test -run TestSeedSweep -timeout 60m -v .
//	PERFBENCH_SWEEP=1 go test -run TestSeedSweep/delta-append -timeout 60m -v .
func TestSeedSweep(t *testing.T) {
	if os.Getenv("PERFBENCH_SWEEP") == "" {
		t.Skip("set PERFBENCH_SWEEP=1 to run the seed sweep")
	}
	for i := range workloads {
		w := &workloads[i]
		for _, seed := range sweepSeeds() {
			t.Run(w.name+"/"+strconv.FormatInt(seed, 10), func(t *testing.T) {
				spills, tables, err := sweepOne(t, w, seed)
				t.Logf("%s seed %d: %d tables, %d PLI spill events", w.name, seed, tables, spills)
				if err != nil {
					t.Fatal(err)
				}
				if w.governed && spills == 0 {
					t.Errorf("governed run spilled no PLI: the ceiling no longer exercises the store")
				}
			})
		}
	}
}

// sweepOne sets up each input of one seed's run, runs one operation
// on it and checks it as a benchmark run does. It reports the fewest
// tables and PLI spill events over the inputs.
func sweepOne(t *testing.T, w *workload, seed int64) (spills int64, tables int, err error) {
	ctx := context.Background()
	in, err := w.newInstance(seed)
	if err != nil {
		return 0, 0, err
	}
	in.spillDir = filepath.Join(t.TempDir(), "spill")
	if err := os.MkdirAll(in.spillDir, 0o755); err != nil {
		return 0, 0, err
	}
	spills, tables = -1, -1
	for _, x := range in.inputs {
		if err := in.setUp(ctx, x); err != nil {
			return 0, 0, err
		}
		var n atomic.Int64
		counting := normalize.FuncObserver{OnCounter: func(_ normalize.Stage, name string, d int64) {
			if name == normalize.CounterPLISpillEvents {
				n.Add(d)
			}
		}}
		out, err := in.op(ctx, x, nil, counting)
		if err != nil {
			return 0, 0, err
		}
		if spills < 0 || n.Load() < spills {
			spills = n.Load()
		}
		if tables < 0 || len(out.res.Tables) < tables {
			tables = len(out.res.Tables)
		}
		if err := out.failure(out.ddl); err != nil {
			return spills, tables, err
		}
		if err := in.checkWorkload(ctx, x, out); err != nil {
			return spills, tables, err
		}
	}
	return spills, tables, nil
}

// TestGovernedMargins measures, over the sweep's seeds, the margins
// around orders-governed's ceiling: the governed floor (the least
// ceiling at which every seed's run is exact), the spill threshold
// (the largest ceiling at which every seed still spills PLIs) and the
// PLI footprint. The ceiling must sit strictly between floor and
// threshold. It runs only when PERFBENCH_MARGINS is set.
//
//	PERFBENCH_MARGINS=1 go test -run TestGovernedMargins -timeout 60m -v .
func TestGovernedMargins(t *testing.T) {
	if os.Getenv("PERFBENCH_MARGINS") == "" {
		t.Skip("set PERFBENCH_MARGINS=1 to measure the governed ceiling's margins")
	}
	w, err := findWorkload("orders-governed")
	if err != nil {
		t.Fatal(err)
	}
	const step = 256 << 10
	floor, threshold := int64(ordersCeiling), int64(ordersCeiling)
	var minFootprint, maxFootprint int64
	for i, seed := range sweepSeeds() {
		x, err := w.load(seed)
		if err != nil {
			t.Fatal(err)
		}
		in := &instance{w: w, inputs: []*input{x}}
		if i == 0 {
			// Start from the committed seed's own margins; later seeds
			// can only raise the floor and lower the threshold.
			for c := floor - step; c > 0; c -= step {
				if exact, _, _ := governedRun(t, in, c); !exact {
					break
				}
				floor = c
			}
			for {
				if _, spills, _ := governedRun(t, in, threshold+step); spills == 0 {
					break
				}
				threshold += step
			}
		}
		for {
			if exact, _, _ := governedRun(t, in, floor); exact {
				break
			}
			floor += step
		}
		for {
			if _, spills, _ := governedRun(t, in, threshold); spills > 0 {
				break
			}
			threshold -= step
		}
		_, _, footprint := governedRun(t, in, ordersCeiling)
		if minFootprint == 0 || footprint < minFootprint {
			minFootprint = footprint
		}
		maxFootprint = max(maxFootprint, footprint)
		t.Logf("after seed %d: floor %.2f MiB, spill threshold %.2f MiB, PLI footprint %.2f MiB",
			seed, mib(floor), mib(threshold), mib(footprint))
	}
	t.Logf("governed floor %d B (%.2f MiB), ceiling %d B (%.2f MiB), spill threshold %d B (%.2f MiB), PLI footprint %d-%d B",
		floor, mib(floor), int64(ordersCeiling), mib(ordersCeiling), threshold, mib(threshold), minFootprint, maxFootprint)
	if floor >= ordersCeiling || threshold <= ordersCeiling {
		t.Errorf("ceiling %.2f MiB is outside (floor %.2f, threshold %.2f] MiB", mib(ordersCeiling), mib(floor), mib(threshold))
	}
}

// governedRun runs one operation on the instance's input at the given
// ceiling and reports whether it was exact (no error, no degradation),
// its PLI spill events and its PLI footprint.
func governedRun(t *testing.T, in *instance, ceiling int64) (exact bool, spills, footprint int64) {
	t.Helper()
	var n, resident atomic.Int64
	obs := normalize.FuncObserver{OnCounter: func(_ normalize.Stage, name string, d int64) {
		switch name {
		case normalize.CounterPLISpillEvents:
			n.Add(d)
		case normalize.CounterPLIResidentBytes:
			resident.Add(d)
		}
	}}
	in.ceiling, in.spillDir = ceiling, t.TempDir()
	out, err := in.op(context.Background(), in.inputs[0], nil, obs)
	return err == nil && len(out.res.Degradations) == 0, n.Load(), resident.Load()
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
