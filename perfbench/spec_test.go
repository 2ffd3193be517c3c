package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"normalize/internal/observe"
)

// observeCounters are the counter names the observe package declares.
var observeCounters = []string{
	observe.CounterFDsDiscovered, observe.CounterFDsInduced, observe.CounterAgreeSets,
	observe.CounterPLIsIntersected, observe.CounterCandidatesChecked, observe.CounterRhsAttrsAdded,
	observe.CounterKeysDerived, observe.CounterViolationsFound, observe.CounterCandidatesScored,
	observe.CounterDecompositions, observe.CounterRowsMaterialized, observe.CounterUCCsDiscovered,
	observe.CounterValidationWorkers, observe.CounterValidationSteals,
	observe.CounterSubstrateBuilds, observe.CounterSubstrateDerived, observe.CounterSubstrateHits,
	observe.CounterDeltaFDsChecked, observe.CounterDeltaFDsDemoted, observe.CounterDeltaLatticeReused,
	observe.CounterIngestBytes, observe.CounterIngestChunks, observe.CounterIngestRows, observe.CounterSpillEvents,
	observe.CounterPLICompressedBytes, observe.CounterPLISpillEvents, observe.CounterPLIReloads,
	observe.CounterPLIRecomputes, observe.CounterPLIResidentBytes,
}

// measures are the names a layer may pair with besides the observe
// counters: stage busy time and CPU for every stage, the derived
// ratios of two stages, and the measures of the layers that are not
// stages (the timed public calls, the runtime, the operation, the
// tracing).
var measures = map[string][]string{
	"*":                       {measureMs, measureCPU},
	string(observe.Ingest):    {"mb_s"},
	string(observe.Discovery): {"valid_ratio"},
	layerPersist:              {"decode_ms"},
	layerDelta:                {measureMs, "fell_back"},
	layerRuntime:              {"alloc_mb_per_op", "allocs_per_op", "gc_cycles_per_op"},
	layerOp:                   {"unattributed_ms"},
	layerTrace:                {"overhead_ratio"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// vocabularyError explains why name is outside the vocabulary, or is
// empty when it is in.
func vocabularyError(name string) string {
	if !nameRE.MatchString(name) {
		return "not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit"
	}
	layer, measure, ok := strings.Cut(name, ".")
	if !ok {
		return "no <layer>.<measure> form"
	}
	isStage := false
	for _, st := range allStages() {
		isStage = isStage || string(st) == layer
	}
	allowed := measures[layer]
	if isStage {
		allowed = append(append(allowed, measures["*"]...), observeCounters...)
	} else if allowed == nil {
		return "layer " + layer + " is no observe stage and no timed-call layer"
	}
	for _, m := range allowed {
		if m == measure {
			return ""
		}
	}
	return "measure " + measure + " is no observe counter and no measure of layer " + layer
}

func TestVocabularyIsBuiltFromObserveNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range perLayer {
		if seen[m.name] {
			t.Errorf("%s listed twice", m.name)
		}
		seen[m.name] = true
		if why := vocabularyError(m.name); why != "" {
			t.Errorf("%s: %s", m.name, why)
		}
	}
	// HyFD's violations_found and violation detection's are different
	// counts under one counter name; the stage keeps them apart.
	for _, name := range []string{"fd-discovery.violations_found", "violation-detection.violations_found"} {
		if !seen[name] {
			t.Errorf("%s missing", name)
		}
	}
}

func TestVocabularyRejectsStrayNames(t *testing.T) {
	for _, name := range []string{
		"fd-discovery.fds_found",        // no such counter
		"hyfd.candidates_checked",       // no such stage
		"closure.decode_ms",             // a call measure on a stage
		"persist.candidates_checked",    // a counter on a call layer
		"fd-discovery.fds discovered",   // space
		".ms",                           // no layer
		"fd-discovery",                  // no measure
		"ingest.ms/op",                  // slash
		strings.Repeat("x", 60) + ".ms", // too long
	} {
		if vocabularyError(name) == "" {
			t.Errorf("%q accepted", name)
		}
	}
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the metrics the
// program reports, name for name and unit for unit.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestProvenanceMatchesCode holds provenance.json to the workload
// parameters in the code and the measured margins to the ceiling.
func TestProvenanceMatchesCode(t *testing.T) {
	data, err := os.ReadFile("provenance.json")
	if err != nil {
		t.Fatal(err)
	}
	var p struct {
		MaxLhs        int   `json:"max_lhs"`
		CommittedSeed int64 `json:"committed_seed"`
		Workloads     []struct {
			Name         string
			Why          string
			InputsPerRun int   `json:"inputs_per_run"`
			CeilingBytes int64 `json:"ceiling_bytes"`
		}
		Ceiling struct {
			Ceiling   int64   `json:"ceiling_bytes"`
			Floor     int64   `json:"floor_bytes"`
			Threshold int64   `json:"spill_threshold_bytes"`
			Footprint []int64 `json:"pli_footprint_bytes"`
		} `json:"orders_governed_ceiling"`
	}
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.MaxLhs != maxLHS || p.CommittedSeed != committedSeed {
		t.Errorf("max_lhs %d, committed_seed %d; code has %d, %d", p.MaxLhs, p.CommittedSeed, maxLHS, committedSeed)
	}
	if len(p.Workloads) != len(workloads) {
		t.Fatalf("provenance lists %d workloads, the code %d", len(p.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := p.Workloads[i]
		want := int64(0)
		if w.governed {
			want = ordersCeiling
		}
		if got.Name != w.name || got.Why != w.why || got.InputsPerRun != w.inputs || got.CeilingBytes != want {
			t.Errorf("workload %d: provenance %+v, code %s (%d inputs, ceiling %d)", i, got, w.name, w.inputs, want)
		}
	}
	c := p.Ceiling
	if c.Ceiling != ordersCeiling {
		t.Errorf("ceiling %d, code %d", c.Ceiling, int64(ordersCeiling))
	}
	if !(c.Floor < c.Ceiling && c.Ceiling < c.Threshold) {
		t.Errorf("ceiling %d outside the measured floor %d and spill threshold %d", c.Ceiling, c.Floor, c.Threshold)
	}
	if len(c.Footprint) != 2 || c.Footprint[0] <= c.Ceiling {
		t.Errorf("PLI footprint %v is not above the ceiling", c.Footprint)
	}
}
