package main

import (
	"sort"
	"syscall"
	"time"

	"normalize/internal/observe"
)

// metric is one reported figure: its name and unit, as BENCHMARK.json
// lists them.
type metric struct {
	name, unit string
}

// End-to-end metrics, measured on the untraced run.
const (
	opMs    = "op_ms.p50"
	cpuMs   = "cpu_ms.p50"
	peakRSS = "peak_rss_mb"
	setupS  = "setup_s"
)

var endToEnd = []metric{
	{opMs, "ms"},
	{cpuMs, "ms"},
	{peakRSS, "MB"},
	{setupS, "s"},
}

// Measures a stage span yields, besides the stage's counters.
const (
	measureMs  = "ms"     // busy time, from StageFinish's elapsed
	measureCPU = "cpu_ms" // process CPU over the span
)

// Layers that are not pipeline stages: timed public calls (persist:
// DecodeResult; delta: NormalizeDelta), the Go runtime, the operation
// itself, and the tracing.
const (
	layerPersist = "persist"
	layerDelta   = "delta"
	layerRuntime = "runtime"
	layerOp      = "op"
	layerTrace   = "trace"
)

var (
	ingestMBs           = stageMetric(observe.Ingest, "mb_s")
	discoveryValidRatio = stageMetric(observe.Discovery, "valid_ratio")
	persistDecodeMs     = layerPersist + ".decode_ms"
	deltaMs             = layerDelta + "." + measureMs
	deltaFellBack       = layerDelta + ".fell_back"
	runtimeAllocMB      = layerRuntime + ".alloc_mb_per_op"
	runtimeAllocs       = layerRuntime + ".allocs_per_op"
	runtimeGCCycles     = layerRuntime + ".gc_cycles_per_op"
	opUnattributed      = layerOp + ".unattributed_ms"
	traceOverhead       = layerTrace + ".overhead_ratio"
)

// stageMetric names a per-layer metric of a pipeline stage.
func stageMetric(s observe.Stage, measure string) string { return string(s) + "." + measure }

func counter(s observe.Stage, name string) metric { return metric{stageMetric(s, name), "count"} }
func busy(s observe.Stage) metric                 { return metric{stageMetric(s, measureMs), "ms"} }

// perLayer is the traced run's vocabulary, in the order of the
// pipeline's layers. Every name is a stage or timed-call layer joined
// to an observe counter or a measure; the vocabulary test holds it to
// that.
var perLayer = []metric{
	busy(observe.Ingest),
	{stageMetric(observe.Ingest, measureCPU), "ms"},
	{ingestMBs, "MB/s"},
	counter(observe.Ingest, observe.CounterSpillEvents),

	{persistDecodeMs, "ms"},

	busy(observe.Discovery),
	{stageMetric(observe.Discovery, measureCPU), "ms"},
	counter(observe.Discovery, observe.CounterAgreeSets),
	counter(observe.Discovery, observe.CounterFDsInduced),
	counter(observe.Discovery, observe.CounterCandidatesChecked),
	counter(observe.Discovery, observe.CounterFDsDiscovered),
	counter(observe.Discovery, observe.CounterPLIsIntersected),
	counter(observe.Discovery, observe.CounterViolationsFound),
	counter(observe.Discovery, observe.CounterValidationSteals),
	counter(observe.Discovery, observe.CounterSubstrateBuilds),
	counter(observe.Discovery, observe.CounterSubstrateDerived),
	counter(observe.Discovery, observe.CounterSubstrateHits),
	{discoveryValidRatio, "ratio"},

	{stageMetric(observe.Discovery, observe.CounterPLICompressedBytes), "B"},
	{stageMetric(observe.Discovery, observe.CounterPLIResidentBytes), "B"},
	counter(observe.Discovery, observe.CounterPLISpillEvents),
	counter(observe.Discovery, observe.CounterPLIReloads),
	counter(observe.Discovery, observe.CounterPLIRecomputes),

	{deltaMs, "ms"},
	{deltaFellBack, "ratio"},
	counter(observe.Discovery, observe.CounterDeltaFDsChecked),
	counter(observe.Discovery, observe.CounterDeltaFDsDemoted),
	counter(observe.Discovery, observe.CounterDeltaLatticeReused),

	busy(observe.Closure),
	counter(observe.Closure, observe.CounterRhsAttrsAdded),

	busy(observe.KeyDerivation),
	counter(observe.KeyDerivation, observe.CounterKeysDerived),
	busy(observe.Violation),
	counter(observe.Violation, observe.CounterViolationsFound),

	busy(observe.Selection),
	counter(observe.Selection, observe.CounterCandidatesScored),

	busy(observe.Decomposition),
	counter(observe.Decomposition, observe.CounterDecompositions),
	counter(observe.Decomposition, observe.CounterRowsMaterialized),

	busy(observe.PrimaryKey),
	counter(observe.PrimaryKey, observe.CounterUCCsDiscovered),
	counter(observe.PrimaryKey, observe.CounterPLIsIntersected),

	{runtimeAllocMB, "MB"},
	{runtimeAllocs, "count"},
	{runtimeGCCycles, "count"},

	{opUnattributed, "ms"},
	{traceOverhead, "ratio"},
}

// allStages is every stage that reports spans: ingest and Figure 1's
// seven components.
func allStages() []observe.Stage {
	return append([]observe.Stage{observe.Ingest}, observe.Stages()...)
}

// isCounter reports whether a layer value is a raw stage counter, as
// opposed to a time or a derived ratio.
func isCounter(name string) bool {
	for _, st := range allStages() {
		prefix := string(st) + "."
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			m := name[len(prefix):]
			return m != measureMs && m != measureCPU
		}
	}
	return false
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly
// between the closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
