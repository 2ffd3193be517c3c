// Package eval regenerates every table and figure of the paper's
// evaluation (Section 8) on the generated datasets. It is shared by the
// cmd/evaluate binary and the repository's benchmark suite; see
// EXPERIMENTS.md for the experiment index and the paper-vs-measured
// discussion.
package eval

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/closure"
	"normalize/internal/core"
	"normalize/internal/datagen"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/fd"
	"normalize/internal/keys"
	"normalize/internal/violation"
)

// Spec names a dataset generator together with the discovery pruning it
// is evaluated under. MaxLhs = 0 reproduces the paper exactly (complete
// FD sets); TPC-H uses the Section 4.3 pruning because its scaled-down
// instance has combinatorially more coincidental FDs than the full-size
// original (see EXPERIMENTS.md).
type Spec struct {
	Name   string
	Gen    func() (*datagen.Dataset, error)
	MaxLhs int
}

// DefaultSpecs are the six datasets of Table 3.
func DefaultSpecs() []Spec {
	return []Spec{
		{Name: "Horse", Gen: func() (*datagen.Dataset, error) { return datagen.Horse(1), nil }},
		{Name: "Plista", Gen: func() (*datagen.Dataset, error) { return datagen.Plista(1), nil }},
		{Name: "Amalgam1", Gen: func() (*datagen.Dataset, error) { return datagen.Amalgam1(1), nil }},
		{Name: "Flight", Gen: func() (*datagen.Dataset, error) { return datagen.Flight(1), nil }},
		{Name: "MusicBrainz", Gen: func() (*datagen.Dataset, error) { return datagen.MusicBrainz(24, 1) }},
		{Name: "TPC-H", Gen: func() (*datagen.Dataset, error) { return datagen.TPCH(0.0005, 1) }, MaxLhs: 4},
	}
}

// SmallSpecs are the three datasets the paper's naive-closure text
// quotes (13 s / 23 min / 41 min in the original).
func SmallSpecs() []Spec {
	all := DefaultSpecs()
	return []Spec{all[2], all[0], all[1]} // Amalgam1, Horse, Plista
}

// Table3Row is one row of the paper's Table 3.
type Table3Row struct {
	Name          string
	Attrs         int
	Records       int
	FDs           int
	FDKeys        int
	Discovery     time.Duration
	ClosureImpr   time.Duration
	ClosureOpt    time.Duration
	KeyDerivation time.Duration
	ViolationID   time.Duration
	AvgRhsBefore  float64
	AvgRhsAfter   float64
}

// RunTable3Row executes the per-component measurements of Table 3 for
// one dataset: FD discovery, both closure variants, key derivation, and
// violating-FD identification (first calls, like the paper reports).
// The measured components run under ctx and the call returns ctx.Err()
// promptly when the context ends mid-experiment.
func RunTable3Row(ctx context.Context, spec Spec) (Table3Row, error) {
	ds, err := spec.Gen()
	if err != nil {
		return Table3Row{Name: spec.Name}, err
	}
	rel := ds.Denormalized
	row := Table3Row{Name: spec.Name, Attrs: rel.NumAttrs(), Records: rel.NumRows()}

	start := time.Now()
	fds, err := hyfd.DiscoverContext(ctx, rel, hyfd.Options{MaxLhs: spec.MaxLhs})
	if err != nil {
		return row, err
	}
	row.Discovery = time.Since(start)
	row.FDs = fds.CountSingle()
	row.AvgRhsBefore = fds.AverageRhsSize()

	improved := fds.Clone()
	start = time.Now()
	if _, err := closure.ImprovedParallelContext(ctx, improved, 0); err != nil {
		return row, err
	}
	row.ClosureImpr = time.Since(start)

	optimized := fds.Clone()
	start = time.Now()
	if _, err := closure.OptimizedParallelContext(ctx, optimized, 0); err != nil {
		return row, err
	}
	row.ClosureOpt = time.Since(start)
	row.AvgRhsAfter = optimized.AverageRhsSize()

	all := bitset.Full(rel.NumAttrs())
	start = time.Now()
	derivedKeys := keys.Derive(optimized, all)
	row.KeyDerivation = time.Since(start)
	row.FDKeys = len(derivedKeys)

	nullAttrs := bitset.New(rel.NumAttrs())
	for c := 0; c < rel.NumAttrs(); c++ {
		if rel.HasNull(c) {
			nullAttrs.Add(c)
		}
	}
	start = time.Now()
	violation.Detect(violation.Input{
		FDs:       optimized,
		Keys:      derivedKeys,
		RelAttrs:  all,
		NullAttrs: nullAttrs,
	})
	row.ViolationID = time.Since(start)
	return row, nil
}

// PrintTable3 renders Table 3 rows in the paper's layout.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-12s %6s %8s %10s %8s %12s %12s %12s %10s %10s %8s %8s\n",
		"Name", "Attr.", "Records", "FDs", "FD-Keys", "FD Disc.",
		"Closure_impr", "Closure_opt", "Key Der.", "Viol. Iden.", "avgRhs0", "avgRhs+")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %6d %8d %10d %8d %12s %12s %12s %10s %10s %8.1f %8.1f\n",
			r.Name, r.Attrs, r.Records, r.FDs, r.FDKeys,
			fmtDur(r.Discovery), fmtDur(r.ClosureImpr), fmtDur(r.ClosureOpt),
			fmtDur(r.KeyDerivation), fmtDur(r.ViolationID),
			r.AvgRhsBefore, r.AvgRhsAfter)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1f min", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2f s", d.Seconds())
	default:
		return fmt.Sprintf("%d ms", d.Milliseconds())
	}
}

// NaiveRow compares the three closure algorithms on one dataset — the
// paper's Section 8.2 naive-closure comparison.
type NaiveRow struct {
	Name                       string
	FDs                        int
	Naive, Improved, Optimized time.Duration
}

// RunNaiveComparison measures the naive algorithm against the improved
// and optimized ones. sampleFDs bounds the input size (0 = all FDs):
// the naive algorithm is cubic, so the paper itself stopped running it
// on the larger sets. The measured algorithms run under ctx — the
// cubic naive closure in particular is why this experiment wants to be
// cancellable.
func RunNaiveComparison(ctx context.Context, spec Spec, sampleFDs int) (NaiveRow, error) {
	ds, err := spec.Gen()
	if err != nil {
		return NaiveRow{Name: spec.Name}, err
	}
	fds, err := hyfd.DiscoverContext(ctx, ds.Denormalized, hyfd.Options{MaxLhs: spec.MaxLhs})
	if err != nil {
		return NaiveRow{Name: spec.Name}, err
	}
	if sampleFDs > 0 && fds.Len() > sampleFDs {
		fds = SampleFDs(fds, sampleFDs, 1)
	}
	row := NaiveRow{Name: spec.Name, FDs: fds.CountSingle()}

	in := fds.Clone()
	start := time.Now()
	if _, err := closure.NaiveContext(ctx, in); err != nil {
		return row, err
	}
	row.Naive = time.Since(start)

	in = fds.Clone()
	start = time.Now()
	if _, err := closure.ImprovedContext(ctx, in); err != nil {
		return row, err
	}
	row.Improved = time.Since(start)

	in = fds.Clone()
	start = time.Now()
	if _, err := closure.OptimizedContext(ctx, in); err != nil {
		return row, err
	}
	row.Optimized = time.Since(start)
	return row, nil
}

// PrintNaive renders the naive-closure comparison.
func PrintNaive(w io.Writer, rows []NaiveRow) {
	fmt.Fprintf(w, "%-12s %10s %12s %12s %12s\n", "Name", "FDs(in)", "Naive", "Improved", "Optimized")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %10d %12s %12s %12s\n",
			r.Name, r.FDs, fmtDur(r.Naive), fmtDur(r.Improved), fmtDur(r.Optimized))
	}
}

// SampleFDs draws a random subset of n aggregated FDs (cloned), keeping
// the universe — the preparation of the paper's Figure 2 experiment.
func SampleFDs(fds *fd.Set, n int, seed int64) *fd.Set {
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(fds.Len())
	if n > len(idx) {
		n = len(idx)
	}
	out := fd.NewSet(fds.NumAttrs)
	for _, i := range idx[:n] {
		out.FDs = append(out.FDs, fds.FDs[i].Clone())
	}
	return out
}

// Figure2Point is one x-position of Figure 2: closure runtimes over an
// FD-count sweep.
type Figure2Point struct {
	FDs       int
	Improved  time.Duration
	Optimized time.Duration
}

// RunFigure2 sweeps the number of input FDs (random samples from the
// MusicBrainz FD set, attributes held constant) and measures the
// improved and optimized closure algorithms, reproducing Figure 2. A
// cancelled ctx ends the sweep promptly; the points completed so far
// are returned alongside ctx.Err(), so a partial sweep is still
// reportable.
func RunFigure2(ctx context.Context, steps int) ([]Figure2Point, error) {
	ds, err := datagen.MusicBrainz(24, 1)
	if err != nil {
		return nil, err
	}
	full, err := hyfd.DiscoverContext(ctx, ds.Denormalized, hyfd.Options{})
	if err != nil {
		return nil, err
	}
	var points []Figure2Point
	for i := 1; i <= steps; i++ {
		n := full.Len() * i / steps
		sample := SampleFDs(full, n, int64(i))
		imp := sample.Clone()
		start := time.Now()
		if _, err := closure.ImprovedParallelContext(ctx, imp, 0); err != nil {
			return points, err
		}
		impT := time.Since(start)
		opt := sample.Clone()
		start = time.Now()
		if _, err := closure.OptimizedParallelContext(ctx, opt, 0); err != nil {
			return points, err
		}
		optT := time.Since(start)
		points = append(points, Figure2Point{FDs: sample.CountSingle(), Improved: impT, Optimized: optT})
	}
	return points, nil
}

// PrintFigure2 renders the sweep as the series of Figure 2.
func PrintFigure2(w io.Writer, points []Figure2Point) {
	fmt.Fprintf(w, "%12s %14s %14s %8s\n", "input FDs", "Improved", "Optimized", "speedup")
	for _, p := range points {
		speedup := float64(p.Improved) / float64(p.Optimized)
		fmt.Fprintf(w, "%12d %14s %14s %7.1fx\n",
			p.FDs, fmtDur(p.Improved), fmtDur(p.Optimized), speedup)
	}
}

// Reconstruction reports how a normalized schema maps onto the gold
// standard: for every original relation the best-matching produced
// table by attribute-set Jaccard similarity.
type Reconstruction struct {
	Tables  []*core.Table
	Mapping []TableMatch
	Stats   core.Stats
	// Degradations is non-empty when the run degraded to stay inside a
	// budget or survived a stage failure (see core.Degradation).
	Degradations []core.Degradation
}

// TableMatch pairs an original relation with its best reconstruction.
type TableMatch struct {
	Original string
	Best     string
	Jaccard  float64
}

// RunReconstruction normalizes a denormalized dataset and matches the
// result against the original schema (Figures 3 and 4). The pipeline
// run is cancellable through ctx. A run that stops early with a
// partial result (*core.PartialError) is still matched — the
// reconstruction of what the pipeline got done is returned alongside
// the error so the caller can report both.
func RunReconstruction(ctx context.Context, ds *datagen.Dataset, maxLhs int) (*Reconstruction, error) {
	res, runErr := core.NormalizeRelationContext(ctx, ds.Denormalized, core.Options{MaxLhs: maxLhs})
	if runErr != nil {
		var pe *core.PartialError
		if !errors.As(runErr, &pe) || res == nil {
			return nil, runErr
		}
	}
	rec := &Reconstruction{Tables: res.Tables, Stats: res.Stats, Degradations: res.Degradations}
	for _, orig := range ds.Original {
		attrs := map[string]bool{}
		for _, a := range orig.Attrs {
			attrs[a] = true
		}
		best, bestJ := "", 0.0
		for _, t := range res.Tables {
			names := t.AttrNames(t.Attrs)
			inter := 0
			for _, n := range names {
				if attrs[n] {
					inter++
				}
			}
			j := float64(inter) / float64(len(attrs)+len(names)-inter)
			if j > bestJ {
				best, bestJ = t.Name, j
			}
		}
		rec.Mapping = append(rec.Mapping, TableMatch{Original: orig.Name, Best: best, Jaccard: bestJ})
	}
	return rec, runErr
}

// PrintReconstruction renders the normalized schema and the gold-
// standard mapping.
func PrintReconstruction(w io.Writer, rec *Reconstruction) {
	if len(rec.Degradations) > 0 {
		fmt.Fprintln(w, "Run degraded:")
		fmt.Fprint(w, core.FormatDegradations(rec.Degradations))
	}
	fmt.Fprintf(w, "Normalized schema (%d tables, %d decompositions, %d FDs):\n",
		len(rec.Tables), rec.Stats.Decompositions, rec.Stats.NumFDs)
	for _, t := range rec.Tables {
		fmt.Fprintf(w, "  %s  (%d rows)\n", t, t.Data.NumRows())
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(w, "      FK (%v) -> %s\n", t.AttrNames(fk.Attrs), fk.RefTable)
		}
	}
	fmt.Fprintln(w, "\nReconstruction vs. original schema:")
	perfect := 0
	for _, m := range rec.Mapping {
		fmt.Fprintf(w, "  %-20s -> %-28s (Jaccard %.2f)\n", m.Original, m.Best, m.Jaccard)
		if m.Jaccard == 1 {
			perfect++
		}
	}
	fmt.Fprintf(w, "Perfectly recovered: %d of %d original relations\n", perfect, len(rec.Mapping))
}
