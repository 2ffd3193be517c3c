package main

import (
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkBusPublish-8   \t 1971642\t   608.5 ns/op\t 392 B/op\t  5 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	// Names stay verbatim at parse time; the procs suffix is resolved
	// run-wide by stripProcsSuffix.
	if b.Name != "BenchmarkBusPublish-8" || b.Procs != 0 || b.Runs != 1971642 {
		t.Errorf("header fields = %+v", b)
	}
	if b.NsPerOp != 608.5 || b.BytesPerOp == nil || *b.BytesPerOp != 392 ||
		b.AllocsPerOp == nil || *b.AllocsPerOp != 5 {
		t.Errorf("metrics = %+v", b)
	}

	if _, ok := parseBenchLine("BenchmarkBroken-8 notanumber 1 ns/op"); ok {
		t.Error("malformed runs accepted")
	}
	if _, ok := parseBenchLine("BenchmarkNoMetrics-8 100"); ok {
		t.Error("line without ns/op accepted")
	}

	// Throughput variant without -benchmem.
	b, ok = parseBenchLine("BenchmarkCSV 500 25000 ns/op 120.00 MB/s")
	if !ok || b.MBPerSec != 120 || b.BytesPerOp != nil {
		t.Errorf("throughput line = %+v ok=%v", b, ok)
	}

	// Custom ReportMetric units land in the Metrics map.
	b, ok = parseBenchLine("BenchmarkDeltaAppend/delta 1 295364186 ns/op 2527 candidates/op")
	if !ok || b.Metrics["candidates/op"] != 2527 {
		t.Errorf("custom metric line = %+v ok=%v", b, ok)
	}
}

func TestStripProcsSuffix(t *testing.T) {
	// Uniform GOMAXPROCS suffix: stripped into Procs, even when a
	// sub-benchmark encodes its own trailing number.
	bs := []benchmark{
		{Name: "BenchmarkA-8"},
		{Name: "BenchmarkHyFDWorkers/workers-4-8"},
		{Name: "BenchmarkHyFDWorkers/workers-2-8"},
	}
	stripProcsSuffix(bs)
	if bs[0].Name != "BenchmarkA" || bs[0].Procs != 8 {
		t.Errorf("plain name: %+v", bs[0])
	}
	if bs[1].Name != "BenchmarkHyFDWorkers/workers-4" || bs[1].Procs != 8 {
		t.Errorf("workers name: %+v", bs[1])
	}

	// GOMAXPROCS=1 host: go appends no suffix, so the workers-N series
	// must keep its numbers — the trailing values differ across lines.
	bs = []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1"},
		{Name: "BenchmarkHyFDWorkers/workers-2"},
		{Name: "BenchmarkHyFDWorkers/workers-4"},
	}
	stripProcsSuffix(bs)
	for i, want := range []string{"workers-1", "workers-2", "workers-4"} {
		if bs[i].Name != "BenchmarkHyFDWorkers/"+want || bs[i].Procs != 0 {
			t.Errorf("single-core series[%d] = %+v", i, bs[i])
		}
	}

	// A non-numeric tail anywhere disables stripping for the whole run.
	bs = []benchmark{{Name: "BenchmarkA-8"}, {Name: "BenchmarkB/own"}}
	stripProcsSuffix(bs)
	if bs[0].Name != "BenchmarkA-8" || bs[0].Procs != 0 {
		t.Errorf("mixed run stripped anyway: %+v", bs[0])
	}
}

func TestDeriveWorkerSpeedups(t *testing.T) {
	bs := []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 1000},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 500},
		{Name: "BenchmarkHyFDWorkers/workers-4", NsPerOp: 250},
		{Name: "BenchmarkNormalizeWorkers/workers-1", NsPerOp: 4000},
		{Name: "BenchmarkNormalizeWorkers/workers-4", NsPerOp: 2000},
		{Name: "BenchmarkFigure3TPCH", NsPerOp: 99},
	}
	deriveWorkerSpeedups(bs)
	for i, want := range []float64{1, 2, 4, 1, 2} {
		if got := bs[i].Metrics["speedup_vs_1w"]; got != want {
			t.Errorf("%s: speedup_vs_1w = %v, want %v", bs[i].Name, got, want)
		}
	}
	if bs[5].Metrics != nil {
		t.Errorf("non-series benchmark gained metrics: %+v", bs[5])
	}

	// -count > 1 repeats every entry; the baseline is the MEAN of the
	// workers-1 entries, applied to each repetition.
	bs = []benchmark{
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 900},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 550},
		{Name: "BenchmarkHyFDWorkers/workers-1", NsPerOp: 1100},
		{Name: "BenchmarkHyFDWorkers/workers-2", NsPerOp: 450},
	}
	deriveWorkerSpeedups(bs)
	if got := bs[1].Metrics["speedup_vs_1w"]; got != 1000.0/550.0 {
		t.Errorf("repeated series: speedup_vs_1w = %v, want %v", got, 1000.0/550.0)
	}
	if got := bs[0].Metrics["speedup_vs_1w"]; got != 1000.0/900.0 {
		t.Errorf("workers-1 repetition: speedup_vs_1w = %v, want %v", got, 1000.0/900.0)
	}

	// A series without a workers-1 baseline is left untouched.
	bs = []benchmark{{Name: "BenchmarkX/workers-4", NsPerOp: 10}}
	deriveWorkerSpeedups(bs)
	if bs[0].Metrics != nil {
		t.Errorf("baseline-less series gained metrics: %+v", bs[0])
	}
}

// TestReadTagsEachEntryWithItsPackage feeds one go test run over two
// packages: every entry carries the package it ran in, not the last
// one named, and a same-named series in each package keeps its own
// workers-1 baseline.
func TestReadTagsEachEntryWithItsPackage(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: normalize
cpu: Some CPU @ 2.00GHz
BenchmarkFigure3TPCH-2                 	       5	 300000000 ns/op
BenchmarkSeries/workers-1-2            	       5	      1000 ns/op
BenchmarkSeries/workers-2-2            	       5	       500 ns/op
PASS
ok  	normalize	12.3s
goos: linux
goarch: amd64
pkg: normalize/internal/plistore
cpu: Some CPU @ 2.00GHz
BenchmarkStoreRoundTrip-2              	     100	     20000 ns/op
BenchmarkSeries/workers-1-2            	       5	      3000 ns/op
BenchmarkSeries/workers-2-2            	       5	      1000 ns/op
PASS
ok  	normalize/internal/plistore	4.5s
`
	rep, err := read(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, pkg string
		speedup   float64
	}{
		{"BenchmarkFigure3TPCH", "normalize", 0},
		{"BenchmarkSeries/workers-1", "normalize", 1},
		{"BenchmarkSeries/workers-2", "normalize", 2},
		{"BenchmarkStoreRoundTrip", "normalize/internal/plistore", 0},
		{"BenchmarkSeries/workers-1", "normalize/internal/plistore", 1},
		{"BenchmarkSeries/workers-2", "normalize/internal/plistore", 3},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d entries, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		b := rep.Benchmarks[i]
		if b.Name != w.name || b.Pkg != w.pkg || b.Procs != 2 || b.Metrics["speedup_vs_1w"] != w.speedup {
			t.Errorf("entry %d = %+v, want name %s pkg %s speedup %v", i, b, w.name, w.pkg, w.speedup)
		}
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Some CPU @ 2.00GHz" {
		t.Errorf("header = %+v", rep)
	}
}
