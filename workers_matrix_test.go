package normalize_test

// The worker-matrix differential suite pins the PR's determinism
// contract end to end: every worker count must produce byte-identical
// results — the same FD covers out of discovery, the same DDL out of
// the full pipeline, the same rows in every decomposed instance, and
// the same delta-append results — across every discovery engine. The
// hyfd engine exercises the work-stealing validation pool and the
// sharded parallel encode directly; tane and dfd ride the
// DiscoverContext seam, so the worker count only varies the rest of
// the pipeline (closure computation, worklist analysis), which must be
// just as invariant. Run under -race in CI on a
// multi-core host, the suite doubles as a scheduler race hunt.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"normalize"
	"normalize/internal/datagen"
	"normalize/internal/discovery/dfd"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/tane"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

var matrixWorkerCounts = []int{1, 2, 3, 4, 8}

// matrixEngines enumerates the discovery engines under test. factory
// returns pipeline options for a worker count; hyfd is the built-in
// default (nil seam), the others adapt through DiscoverContext.
var matrixEngines = []struct {
	name    string
	factory func(w int) normalize.Options
}{
	{"hyfd", func(w int) normalize.Options {
		return normalize.Options{Workers: w}
	}},
	{"tane", func(w int) normalize.Options {
		return normalize.Options{Workers: w, DiscoverContext: func(ctx context.Context, rel *relation.Relation) (*fd.Set, error) {
			return tane.DiscoverContext(ctx, rel, tane.Options{})
		}}
	}},
	{"dfd", func(w int) normalize.Options {
		return normalize.Options{Workers: w, DiscoverContext: func(ctx context.Context, rel *relation.Relation) (*fd.Set, error) {
			return dfd.DiscoverContext(ctx, rel, dfd.Options{})
		}}
	}},
}

// matrixSignature renders everything the determinism contract covers:
// the DDL plus every decomposed table's rows, in order (instance
// content, not just schema shape).
func matrixSignature(res *normalize.Result) string {
	var b strings.Builder
	b.WriteString(normalize.DDL(res.Tables))
	for _, t := range res.Tables {
		fmt.Fprintf(&b, "rows %s %q\n", t.Name, t.Data.Rows())
	}
	return b.String()
}

func matrixInputs(r *rand.Rand) []*relation.Relation {
	inputs := []*relation.Relation{
		relation.MustNew("address",
			[]string{"First", "Last", "Postcode", "City", "Mayor"},
			[][]string{
				{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
				{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
				{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
				{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			}),
		project(r, datagen.Horse(17).Denormalized, 7, 60),
	}
	for trial := 0; trial < 3; trial++ {
		inputs = append(inputs, randomNullableRelation(r, 3+r.Intn(5), 20+r.Intn(60), 2+r.Intn(3), 10))
	}
	return inputs
}

// TestWorkersMatrixDiscovery checks the discovery layer alone: the
// hyfd cover — the output of the work-stealing validation and the
// parallel sampler — is identical at every worker count, and agrees
// with the serial tane and dfd covers on the same instance.
func TestWorkersMatrixDiscovery(t *testing.T) {
	r := rand.New(rand.NewSource(90))
	for i, rel := range matrixInputs(r) {
		base := hyfd.Discover(rel, hyfd.Options{Workers: 1})
		for _, w := range matrixWorkerCounts[1:] {
			got := hyfd.Discover(rel, hyfd.Options{Workers: w})
			if !got.Equal(base) {
				t.Errorf("input %d: hyfd cover at workers=%d differs from workers=1\nw=1:\n%sw=%d:\n%s",
					i, w, base.Format(rel.Attrs), w, got.Format(rel.Attrs))
			}
		}
		for name, other := range map[string]*fd.Set{
			"tane": tane.Discover(rel, tane.Options{}),
			"dfd":  dfd.Discover(rel, dfd.Options{}),
		} {
			if !other.Equal(base) {
				t.Errorf("input %d: %s cover differs from hyfd\nhyfd:\n%s%s:\n%s",
					i, name, base.Format(rel.Attrs), name, other.Format(rel.Attrs))
			}
		}
	}
}

// TestWorkersMatrixNormalize runs the full pipeline for every engine ×
// worker-count cell and compares DDL plus per-table rows
// byte-for-byte against the engine's workers=1 baseline.
func TestWorkersMatrixNormalize(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	inputs := matrixInputs(r)
	for _, eng := range matrixEngines {
		var engineBase string // engines must agree with each other too
		for i, rel := range inputs {
			var base string
			for _, w := range matrixWorkerCounts {
				opts := eng.factory(w)
				res, err := normalize.Normalize(rel, opts)
				if err != nil {
					t.Fatalf("%s input %d workers=%d: %v", eng.name, i, w, err)
				}
				sig := matrixSignature(res)
				if w == 1 {
					base = sig
					continue
				}
				if sig != base {
					t.Errorf("%s input %d: workers=%d result differs from workers=1:\n%s\nvs\n%s",
						eng.name, i, w, sig, base)
				}
			}
			engineBase += base
		}
		if got, want := engineBase, matrixEngineBaseline(t, inputs); got != want {
			t.Errorf("%s: engine-level schema differs from the hyfd baseline", eng.name)
		}
	}
}

var matrixBaselineMemo string

// matrixEngineBaseline computes (once) the concatenated workers=1
// hyfd signatures, the reference every engine must reproduce.
func matrixEngineBaseline(t *testing.T, inputs []*relation.Relation) string {
	t.Helper()
	if matrixBaselineMemo != "" {
		return matrixBaselineMemo
	}
	var b strings.Builder
	for i, rel := range inputs {
		res, err := normalize.Normalize(rel, normalize.Options{Workers: 1})
		if err != nil {
			t.Fatalf("baseline input %d: %v", i, err)
		}
		b.WriteString(matrixSignature(res))
	}
	matrixBaselineMemo = b.String()
	return matrixBaselineMemo
}

// TestWorkersMatrixDelta appends a suffix of each input's rows through
// NormalizeDelta at every worker count (the delta plane rejects custom
// discovery, so this leg is hyfd-only) and pins the appended result —
// DDL and rows — to the workers=1 delta run.
func TestWorkersMatrixDelta(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for i, rel := range matrixInputs(r) {
		rows := rel.Rows()
		if len(rows) < 4 {
			continue
		}
		cut := len(rows) * 7 / 10
		baseRel := func() *relation.Relation {
			out := make([][]string, cut)
			for j := range out {
				out[j] = append([]string(nil), rows[j]...)
			}
			return relation.MustNew(rel.Name, rel.Attrs, out)
		}
		deltaRows := func() [][]string {
			out := make([][]string, 0, len(rows)-cut)
			for _, row := range rows[cut:] {
				out = append(out, append([]string(nil), row...))
			}
			return out
		}
		var base string
		for _, w := range matrixWorkerCounts {
			opts := normalize.Options{Workers: w}
			parent, err := normalize.Normalize(baseRel(), opts)
			if err != nil {
				t.Fatalf("input %d workers=%d parent: %v", i, w, err)
			}
			res, _, err := normalize.NormalizeDelta(context.Background(), baseRel(), deltaRows(), parent,
				normalize.DeltaConfig{Options: opts})
			if err != nil {
				t.Fatalf("input %d workers=%d delta: %v", i, w, err)
			}
			sig := matrixSignature(res)
			if w == 1 {
				base = sig
				continue
			}
			if sig != base {
				t.Errorf("input %d: delta result at workers=%d differs from workers=1:\n%s\nvs\n%s",
					i, w, sig, base)
			}
		}
	}
}
