// Command perfbench is the repository's benchmark. It runs one named
// workload as a closed loop from a single client — each operation
// starts when the previous one ends — checks that the outputs are
// correct, and prints one JSON result line.
//
// With --trace 0 it reports the end-to-end metrics, measured with no
// observer attached: the median wall and CPU time of an operation, the
// peak resident memory over the timed operations and the set-up time.
// With --trace 1 it alternates traced and untraced operations and
// reports the per-layer metrics: each timed public call is a span, each
// pipeline stage the Observer seam reports is a span below it, and the
// spans are written as Chrome trace-event JSON to .bench_build/traces/.
//
// Run it through run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload tpch --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

const (
	// setUps is the least number of set-ups a run makes; setup_s is
	// their median.
	setUps = 3
	// minOps is the least number of measured operations per run, however
	// long each takes; a traced run makes as many of each kind.
	minOps = 10
	// buildDir holds the benchmark's binary, caches, spill files and
	// traces, relative to the checkout root.
	buildDir = ".bench_build"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: tpch, orders-governed or delta-append")
	flag.Int64Var(&cfg.seed, "seed", committedSeed, "seed the workload's inputs are made from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "how long the measured loop runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	cfg.trace = trace != 0
	if err := run(context.Background(), cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	in, err := w.newInstance(cfg.seed)
	if err != nil {
		return fmt.Errorf("generate %s inputs: %w", w.name, err)
	}
	if in.ceiling > 0 {
		in.spillDir = filepath.Join(buildDir, fmt.Sprintf("spill-%d", os.Getpid()))
		if err := os.MkdirAll(in.spillDir, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(in.spillDir)
	}
	for j, x := range in.inputs {
		rows, attrs := x.shape()
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d input %d: %d rows x %d attributes, %d CSV bytes\n",
			w.name, cfg.seed, j, rows, attrs, len(x.csv)+len(x.deltaCSV))
	}

	setup, samples, err := in.setUpAll(ctx)
	if err != nil {
		return err
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	start := time.Now()
	for j, x := range in.inputs {
		if err := in.checkWorkload(ctx, x, samples[j]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: output check of input %d failed: %v\n", j, err)
			res.Correct = false
		}
		x.want = samples[j].ddl
	}
	samples = nil
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.2fs (median of %d), output check %.2fs\n",
		median(setup), len(setup), time.Since(start).Seconds())

	// Memory is measured over the operations only: return what set-up
	// and the check freed, then restart the high-water mark.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	m := in.measure(ctx, t, time.Duration(cfg.seconds)*time.Second, &res)
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, wall ms p25/p50/p75 %.1f/%.1f/%.1f\n",
		res.Attempted, quantile(m.wall, 0.25), median(m.wall), quantile(m.wall, 0.75))

	if t != nil {
		values := medians(m.layers)
		values[traceOverhead] = median(m.tracedWall)/median(m.wall) - 1
		report(&res, perLayer, values)
		path := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := t.writeChromeTrace(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	} else {
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		report(&res, endToEnd, map[string]float64{
			opMs: median(m.wall), cpuMs: median(m.cpu), peakRSS: peak, setupS: median(setup),
		})
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setUpAll does the program work that precedes an input's first timed
// operation, a warm-up operation included, at least setUps times,
// taking the inputs in turn. It returns each set-up's seconds and each
// input's last warm-up output, the one the output check examines.
func (in *instance) setUpAll(ctx context.Context) ([]float64, []*opResult, error) {
	var secs []float64
	samples := make([]*opResult, len(in.inputs))
	for i := 0; i < max(setUps, len(in.inputs)); i++ {
		j := i % len(in.inputs)
		x := in.inputs[j]
		start := time.Now()
		if err := in.setUp(ctx, x); err != nil {
			return nil, nil, fmt.Errorf("set-up of input %d: %w", j, err)
		}
		out, err := in.op(ctx, x, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up operation on input %d: %w", j, err)
		}
		secs = append(secs, time.Since(start).Seconds())
		samples[j] = out
	}
	return secs, samples, nil
}

// measurements are a run's per-operation samples.
type measurements struct {
	wall, cpu  []float64 // untraced operations, ms
	tracedWall []float64 // traced operations, ms
	layers     []map[string]float64
}

// measure runs the closed loop for d and at least minOps operations,
// ending after a whole round over the inputs. With a tracer, untraced
// and traced operations alternate, one pair per input in turn.
func (in *instance) measure(ctx context.Context, t *tracer, d time.Duration, res *result) measurements {
	kinds := 1
	if t != nil {
		kinds = 2
	}
	round := kinds * len(in.inputs)
	var m measurements
	deadline := time.Now().Add(d)
	for n := 1; ; n++ {
		i := n - 1
		x := in.inputs[i/kinds%len(in.inputs)]
		traced := t != nil && i%2 == 1
		var out *opResult
		var err error
		c0, w0 := processCPU(), time.Now()
		if traced {
			t.beginOp(i)
			out, err = in.op(ctx, x, t, t)
		} else {
			out, err = in.op(ctx, x, nil, nil)
		}
		wall, cpu := ms(time.Since(w0)), ms(processCPU()-c0)
		if traced {
			m.layers = append(m.layers, t.endOp(out))
			m.tracedWall = append(m.tracedWall, wall)
		} else {
			m.wall = append(m.wall, wall)
			m.cpu = append(m.cpu, cpu)
		}
		res.Attempted++
		if err == nil {
			err = out.failure(x.want)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", i, err)
		}
		if err != nil || !res.Correct {
			res.Failed++
		}
		if n >= kinds*minOps && n%round == 0 && !time.Now().Before(deadline) {
			return m
		}
	}
}

// medians takes each layer value's median over the traced operations;
// a value an operation did not report counts as zero.
func medians(ops []map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		xs := make([]float64, len(ops))
		for i, op := range ops {
			xs[i] = op[m.name]
		}
		out[m.name] = median(xs)
	}
	return out
}

func report(res *result, ms []metric, values map[string]float64) {
	for _, m := range ms {
		if v, ok := values[m.name]; ok {
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
}
