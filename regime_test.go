package normalize_test

// Differential test between the two regimes of the PLI store. Every
// engine reads its single-column partitions and retains the partitions
// it derives through the substrate's store, so the same engine must
// find the same cover (or keys) whether that store is resident — flat,
// uncharged partitions — or governed under a ceiling tight enough to
// spill and recompute them.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"normalize/internal/budget"
	"normalize/internal/datagen"
	"normalize/internal/discovery/dfd"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/tane"
	"normalize/internal/discovery/ucc"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
)

// regimeMaxLhs bounds the FD engines' left-hand sides, and with them
// the partitions one HyFD validation step pins.
const regimeMaxLhs = 3

// regimeCeiling is the governed store's memory ceiling for rel under an
// engine that holds at most pins decoded partitions at once: room for
// that many of rel's largest column partition as the store charges it
// (8 bytes per clustered row, 24 per cluster, 96 of header, 8 per row
// of inverted index). Every engine step has to fit — one that does not
// fails the run, and with it the test — while the partitions the
// engines retain overflow it, so cold ones are spilled or dropped and
// later reloaded or recomputed.
func regimeCeiling(rel *relation.Relation, pins int) int64 {
	enc := rel.Encode()
	var largest int64
	for a := range enc.Columns {
		p := pli.FromColumn(enc.Columns[a], enc.Cardinality[a])
		if b := 8*int64(p.Size()) + 24*int64(p.NumClusters()) + 96 + 8*int64(p.NumRows()); b > largest {
			largest = b
		}
	}
	return int64(pins) * largest
}

// engineOutput runs one engine over rel with sub and renders its
// result, so covers and key sets compare as strings.
type engineOutput func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error)

// regimeEngines lists each engine with the most decoded partitions it
// holds at once: a HyFD validation slot pins its LHS chain while it
// decodes the next operand; the lattice engines pin two operands while
// they put their product.
var regimeEngines = []struct {
	name string
	pins int
	run  engineOutput
}{
	{"hyfd", regimeMaxLhs + 1, func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error) {
		s, err := hyfd.DiscoverContext(ctx, rel, hyfd.Options{MaxLhs: regimeMaxLhs, Workers: 1, Substrate: sub})
		return fmt.Sprint(s), err
	}},
	{"hyfd-workers-2", 2*regimeMaxLhs + 1, func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error) {
		s, err := hyfd.DiscoverContext(ctx, rel, hyfd.Options{MaxLhs: regimeMaxLhs, Workers: 2, Substrate: sub})
		return fmt.Sprint(s), err
	}},
	{"tane", 3, func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error) {
		s, err := tane.DiscoverContext(ctx, rel, tane.Options{MaxLhs: regimeMaxLhs, Substrate: sub})
		return fmt.Sprint(s), err
	}},
	{"dfd", 3, func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error) {
		s, err := dfd.DiscoverContext(ctx, rel, dfd.Options{MaxLhs: regimeMaxLhs, Substrate: sub})
		return fmt.Sprint(s), err
	}},
	{"ucc", 3, func(ctx context.Context, rel *relation.Relation, sub *plicache.Substrate) (string, error) {
		keys, err := ucc.DiscoverContext(ctx, rel, ucc.Options{Substrate: sub})
		return fmt.Sprint(keys, len(keys)), err
	}},
}

// TestEngineRegimesAgree: each engine's output on a resident substrate
// equals its output on a substrate whose store starts cold under a
// ceiling that forces spills and recomputes, and every governed store
// leaves no spill file behind once closed.
func TestEngineRegimesAgree(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(20261019))
	var rels []*relation.Relation
	for trial := 0; trial < 12; trial++ {
		rels = append(rels, randomNullableRelation(r, 3+r.Intn(6), 40+r.Intn(60), 1+r.Intn(5), r.Intn(25)))
	}
	for _, src := range []*relation.Relation{
		datagen.Horse(1).Denormalized,
		datagen.Plista(2).Denormalized,
		datagen.Amalgam1(3).Denormalized,
	} {
		for trial := 0; trial < 2; trial++ {
			rels = append(rels, project(r, src, 3+r.Intn(6), 80))
		}
	}

	dir := t.TempDir()
	var spills, recomputes int64
	for i, rel := range rels {
		for _, e := range regimeEngines {
			label := fmt.Sprintf("relation %d (%s, %d attrs, %d rows) %s", i, rel.Name, rel.NumAttrs(), rel.NumRows(), e.name)
			want, err := e.run(ctx, rel, plicache.New(rel.Encode()))
			if err != nil {
				t.Fatalf("%s resident: %v", label, err)
			}
			tr := budget.NewTracker(0, regimeCeiling(rel, e.pins))
			st := plistore.New(tr, dir)
			sub, err := plicache.NewCache(st).For(ctx, rel)
			if err != nil {
				t.Fatal(err)
			}
			// Start cold: put every column partition, then run a full
			// eviction sweep (a foreign charge of the whole ceiling keeps
			// it over the limit whatever it frees), so the engine's first
			// acquisitions rebuild them.
			for a := 0; a < rel.NumAttrs(); a++ {
				if _, err := sub.Handle(a); err != nil {
					t.Fatal(err)
				}
			}
			tr.Grow(tr.MemLimit())
			tr.Grow(-tr.MemLimit())
			got, err := e.run(ctx, rel, sub)
			stats := st.Stats()
			st.Close()
			if err != nil {
				t.Fatalf("%s governed: %v (store %+v)", label, err, stats)
			}
			if got != want {
				t.Errorf("%s: regimes disagree\nresident: %s\ngoverned: %s", label, want, got)
			}
			spills += stats.SpillEvents
			recomputes += stats.Recomputes
			if ents, _ := os.ReadDir(dir); len(ents) > 0 {
				t.Fatalf("%s: spill file %s left behind after Close", label, ents[0].Name())
			}
		}
	}
	if spills == 0 || recomputes == 0 {
		t.Errorf("governed ceiling did not exercise the store: %d spill events, %d recomputes", spills, recomputes)
	}
	t.Logf("%d relations × %d engines: %d spill events, %d recomputes", len(rels), len(regimeEngines), spills, recomputes)
}
