package normalize_test

// Differential property tests between the two FD discovery engines:
// TANE (lattice search) and HyFD (the paper's default). Both compute
// the complete minimal FD cover, so on any input their canonical FD
// sets must be identical — and because the rest of the pipeline is
// deterministic, the decomposed schema must not depend on which engine
// discovered the FDs. Inputs are randomized small relations (with
// nulls) plus column projections of the internal/datagen datasets.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"normalize"
	"normalize/internal/datagen"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/tane"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

// randomNullableRelation builds a relation with controlled redundancy
// (low cardinality forces non-trivial FDs) and a sprinkling of nulls,
// which both engines must treat identically (null = distinct value,
// the paper's §2 semantics).
func randomNullableRelation(r *rand.Rand, attrs, rows, card, pctNull int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			if r.Intn(100) < pctNull {
				row[j] = ""
			} else {
				row[j] = fmt.Sprintf("v%d", r.Intn(card))
			}
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

// project returns a relation restricted to ≤ width randomly chosen
// columns and ≤ maxRows rows.
func project(r *rand.Rand, rel *relation.Relation, width, maxRows int) *relation.Relation {
	if width > len(rel.Attrs) {
		width = len(rel.Attrs)
	}
	perm := r.Perm(len(rel.Attrs))[:width]
	names := make([]string, width)
	for i, c := range perm {
		names[i] = rel.Attrs[c]
	}
	n := rel.NumRows()
	if n > maxRows {
		n = maxRows
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		row := make([]string, width)
		for j, c := range perm {
			row[j] = rel.Value(i, c)
		}
		rows[i] = row
	}
	return relation.MustNew(rel.Name+"_proj", names, rows)
}

// assertSameFDs fails with both covers rendered when they differ.
func assertSameFDs(t *testing.T, rel *relation.Relation, a, b *fd.Set, label string) {
	t.Helper()
	if !a.Equal(b) {
		t.Errorf("%s: engines disagree on %s (%d attrs, %d rows)\nTANE:\n%sHyFD:\n%s",
			label, rel.Name, len(rel.Attrs), rel.NumRows(),
			a.Format(rel.Attrs), b.Format(rel.Attrs))
	}
}

func TestDifferentialTANEHyFDRandomRelations(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 30; trial++ {
		attrs := 2 + r.Intn(7) // 2..8 columns
		rows := 5 + r.Intn(50)
		card := 1 + r.Intn(4)
		pctNull := r.Intn(25)
		rel := randomNullableRelation(r, attrs, rows, card, pctNull)
		label := fmt.Sprintf("trial %d (attrs=%d rows=%d card=%d null=%d%%)",
			trial, attrs, rows, card, pctNull)

		full := tane.Discover(rel, tane.Options{})
		assertSameFDs(t, rel, full,
			hyfd.Discover(rel, hyfd.Options{Workers: trial % 2}), label)

		// The LHS-bounded covers must agree too (§4.3 pruning).
		assertSameFDs(t, rel,
			tane.Discover(rel, tane.Options{MaxLhs: 2}),
			hyfd.Discover(rel, hyfd.Options{MaxLhs: 2}), label+" MaxLhs=2")
	}
}

func TestDifferentialTANEHyFDDatagenProjections(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sources := []*relation.Relation{
		datagen.Horse(1).Denormalized,
		datagen.Plista(2).Denormalized,
		datagen.Amalgam1(3).Denormalized,
	}
	for _, src := range sources {
		for trial := 0; trial < 3; trial++ {
			rel := project(r, src, 2+r.Intn(7), 40)
			label := fmt.Sprintf("%s trial %d", src.Name, trial)
			assertSameFDs(t, rel,
				tane.Discover(rel, tane.Options{}),
				hyfd.Discover(rel, hyfd.Options{}), label)
		}
	}
}

// taneDiscover adapts TANE onto the pipeline's DiscoverContext seam.
func taneDiscover(ctx context.Context, rel *relation.Relation) (*fd.Set, error) {
	return tane.DiscoverContext(ctx, rel, tane.Options{})
}

// TestDifferentialDecompositionEngineInvariant: swapping the discovery
// engine must not change the normalized schema. The DDL rendering
// covers table names, attributes, primary keys, and foreign keys in
// one deterministic string.
func TestDifferentialDecompositionEngineInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rels := []*relation.Relation{
		relation.MustNew("address",
			[]string{"First", "Last", "Postcode", "City", "Mayor"},
			[][]string{
				{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
				{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
				{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
				{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			}),
		project(r, datagen.Horse(11).Denormalized, 8, 40),
	}
	for i := 0; i < 6; i++ {
		rels = append(rels, randomNullableRelation(r, 2+r.Intn(7), 5+r.Intn(40), 1+r.Intn(3), 10))
	}

	for i, rel := range rels {
		for _, mode := range []string{"bcnf", "3nf"} {
			m, err := normalize.ParseMode(mode)
			if err != nil {
				t.Fatal(err)
			}
			viaHyFD, err := normalize.Normalize(rel, normalize.Options{Mode: m})
			if err != nil {
				t.Fatalf("rel %d %s via HyFD: %v", i, mode, err)
			}
			viaTANE, err := normalize.Normalize(rel, normalize.Options{Mode: m, DiscoverContext: taneDiscover})
			if err != nil {
				t.Fatalf("rel %d %s via TANE: %v", i, mode, err)
			}
			a, b := normalize.DDL(viaHyFD.Tables), normalize.DDL(viaTANE.Tables)
			if a != b {
				t.Errorf("rel %d (%s, %s): schema depends on the discovery engine\nHyFD:\n%s\nTANE:\n%s",
					i, rel.Name, mode, a, b)
			}
			if viaHyFD.Stats.NumFDs != viaTANE.Stats.NumFDs {
				t.Errorf("rel %d (%s, %s): FD counts differ: %d vs %d",
					i, rel.Name, mode, viaHyFD.Stats.NumFDs, viaTANE.Stats.NumFDs)
			}
		}
	}
}
