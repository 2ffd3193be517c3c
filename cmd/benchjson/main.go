// Benchjson converts `go test -bench` text output on stdin into a
// machine-readable JSON document on stdout, so CI and the
// bench-baseline make target can archive and diff benchmark runs
// without extra tooling.
//
//	go test -bench=. -benchmem -run '^$' ./internal/server/ | go run ./cmd/benchjson
//
// The output is an object with the detected goos/goarch/cpu header
// fields and a "benchmarks" array; each entry carries the benchmark
// name (parallelism suffix stripped into "procs"), the package it ran
// in, iteration count, and the standard ns/op, B/op, allocs/op, and
// MB/s metrics when present.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type benchmark struct {
	Name string `json:"name"`
	// Pkg is the package of the most recent "pkg:" line before the
	// result; one go test run over several packages prints one per
	// package.
	Pkg         string  `json:"pkg,omitempty"`
	Procs       int     `json:"procs,omitempty"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	// Metrics holds custom b.ReportMetric units (e.g.
	// "candidates_checked/op") keyed by unit name, so counters
	// benchmarks publish survive into the baseline.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	rep, err := read(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// read parses go test -bench output into a report, tagging every
// benchmark with its package.
func read(r io.Reader) (report, error) {
	rep := report{Benchmarks: []benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return report{}, err
	}
	stripProcsSuffix(rep.Benchmarks)
	deriveWorkerSpeedups(rep.Benchmarks)
	return rep, nil
}

// stripProcsSuffix removes the GOMAXPROCS suffix go test appends to
// every benchmark name (Benchmark…-8). The suffix cannot be told apart
// from a trailing number the benchmark itself encodes (workers-4) on a
// per-line basis: go omits it entirely when GOMAXPROCS is 1, so eagerly
// stripping the last "-N" would eat the workers count on a single-core
// host and collapse a whole workers-{1,2,4} series onto one name. But
// within one run the suffix is the SAME on every line — so strip only
// when all names carry an identical trailing number. (A -cpu list run
// mixes suffixes; those names are left intact, which is lossless.)
func stripProcsSuffix(benchmarks []benchmark) {
	if len(benchmarks) == 0 {
		return
	}
	common := -1
	for _, b := range benchmarks {
		i := strings.LastIndex(b.Name, "-")
		if i <= 0 {
			return
		}
		procs, err := strconv.Atoi(b.Name[i+1:])
		if err != nil || (common >= 0 && procs != common) {
			return
		}
		common = procs
	}
	for i := range benchmarks {
		b := &benchmarks[i]
		b.Name = b.Name[:strings.LastIndex(b.Name, "-")]
		b.Procs = common
	}
}

// deriveWorkerSpeedups attaches a "speedup_vs_1w" metric to every
// entry of a worker-count series — benchmarks of one package named
// ".../workers-N" — relating its ns/op to the workers-1 entry of the
// same series. With -count > 1 a series holds repeated entries per
// worker count; the baseline is the mean ns/op of all its workers-1
// entries, so the derived field stays stable across repetition counts.
// Entries without a workers-1 sibling are left untouched.
func deriveWorkerSpeedups(benchmarks []benchmark) {
	const marker = "/workers-"
	base := make(map[string]struct {
		sum float64
		n   int
	})
	for _, b := range benchmarks {
		i := strings.LastIndex(b.Name, marker)
		if i < 0 || b.Name[i+len(marker):] != "1" {
			continue
		}
		series := b.Pkg + " " + b.Name[:i]
		agg := base[series]
		agg.sum += b.NsPerOp
		agg.n++
		base[series] = agg
	}
	for i := range benchmarks {
		b := &benchmarks[i]
		j := strings.LastIndex(b.Name, marker)
		if j < 0 {
			continue
		}
		if _, err := strconv.Atoi(b.Name[j+len(marker):]); err != nil {
			continue
		}
		agg, ok := base[b.Pkg+" "+b.Name[:j]]
		if !ok || agg.n == 0 || b.NsPerOp <= 0 {
			continue
		}
		if b.Metrics == nil {
			b.Metrics = make(map[string]float64)
		}
		b.Metrics["speedup_vs_1w"] = (agg.sum / float64(agg.n)) / b.NsPerOp
	}
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkBusPublish-8   1971642   608.5 ns/op   392 B/op   5 allocs/op
//
// The name is kept verbatim; the procs suffix is resolved afterwards
// across the whole run by stripProcsSuffix.
func parseBenchLine(line string) (benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 {
		return benchmark{}, false
	}
	var b benchmark
	b.Name = fields[0]
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b.Runs = runs
	// The remainder alternates value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		case "MB/s":
			b.MBPerSec = v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[fields[i+1]] = v
		}
	}
	return b, b.NsPerOp > 0
}
