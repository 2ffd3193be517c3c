package hyfd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/discovery/tane"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/relation"
)

// TestWorkersDifferential is the determinism contract of parallel
// validation: for every worker count, discovery must return a
// byte-identical FD cover. Run under -race this also exercises the
// worker pool for data races.
func TestWorkersDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		rel := randomRelation(r, 5+r.Intn(4), 40+r.Intn(120), 2+r.Intn(3))
		base := Discover(rel, Options{Workers: 1}).Format(rel.Attrs)
		for _, w := range []int{2, 3, 7} {
			got := Discover(rel, Options{Workers: w}).Format(rel.Attrs)
			if got != base {
				t.Fatalf("trial %d: workers=%d cover differs from workers=1:\n%s\nvs\n%s",
					trial, w, got, base)
			}
		}
	}
}

// TestInductionWorkersDeterministic: the sampler emits one agree-set
// sequence at every worker count, each round is inducted in one order
// (largest first, stable on ties), and validation commits verdicts in
// candidate order, so the cover and every work counter of discovery
// read the same at every worker count. The cover is the exact one:
// brute force's on small random relations with nulls and duplicate
// rows, at max-LHS 0 (unbounded) to 3, and TANE's on generated TPC-H
// at max-LHS 1 and 2. TPC-H also runs at max-LHS 3, where the 52
// attributes put TANE's lattice past gigabytes and the check is the
// agreement across worker counts.
func TestInductionWorkersDeterministic(t *testing.T) {
	type input struct {
		name    string
		rel     *relation.Relation
		maxLhss []int
		exact   func(maxLhs int) *fd.Set // nil: no reference at this bound
	}
	var inputs []input
	r := rand.New(rand.NewSource(131))
	for i := 0; i < 6; i++ {
		attrs, card := 4+r.Intn(4), 2+r.Intn(3)
		var rows [][]string
		for j := 20 + r.Intn(40); j > 0; j-- {
			row := make([]string, attrs)
			for c := range row {
				if r.Intn(6) > 0 {
					row[c] = fmt.Sprintf("v%d", r.Intn(card))
				}
			}
			rows = append(rows, row)
		}
		for j := 1 + r.Intn(8); j > 0; j-- {
			rows = append(rows, slices.Clone(rows[r.Intn(len(rows))]))
		}
		names := make([]string, attrs)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		rel := relation.MustNew("rand", names, rows)
		inputs = append(inputs, input{fmt.Sprintf("random %d", i), rel, []int{0, 1, 2, 3}, func(maxLhs int) *fd.Set {
			if maxLhs == 0 {
				maxLhs = attrs
			}
			return bruteforce.DiscoverFDs(rel, maxLhs)
		}})
	}
	for _, seed := range []int64{1, 2, 3} {
		ds, err := datagen.TPCH(0.0002, seed)
		if err != nil {
			t.Fatal(err)
		}
		rel := ds.Denormalized
		inputs = append(inputs, input{fmt.Sprintf("tpch seed %d", seed), rel, []int{1, 2, 3}, func(maxLhs int) *fd.Set {
			if maxLhs > 2 {
				return nil
			}
			return tane.Discover(rel, tane.Options{MaxLhs: maxLhs})
		}})
	}
	counters := []string{observe.CounterPairsCompared, observe.CounterAgreeSets, observe.CounterFDsInduced,
		observe.CounterCandidatesChecked, observe.CounterViolationsFound, observe.CounterPLIsIntersected}
	for _, in := range inputs {
		for _, maxLhs := range in.maxLhss {
			want := in.exact(maxLhs)
			var base *fd.Set
			var baseCounters map[string]int64
			for _, workers := range []int{1, 2, 4} {
				rec := &observe.Recorder{}
				got := Discover(in.rel, Options{MaxLhs: maxLhs, Workers: workers, Observer: rec})
				if want != nil && !got.Equal(want) {
					t.Fatalf("%s, max-lhs %d, workers %d: cover differs from the exact one:\n%s\nvs\n%s",
						in.name, maxLhs, workers, got.Format(in.rel.Attrs), want.Format(in.rel.Attrs))
				}
				totals := rec.Totals()
				if len(totals) != 1 || totals[0].Stage != observe.Discovery {
					t.Fatalf("%s: counters under %v, want one fd-discovery stage", in.name, totals)
				}
				if base == nil {
					base, baseCounters = got, totals[0].Counters
					continue
				}
				if got.Format(in.rel.Attrs) != base.Format(in.rel.Attrs) {
					t.Fatalf("%s, max-lhs %d, workers %d: cover differs from workers 1", in.name, maxLhs, workers)
				}
				for _, name := range counters {
					if got, want := totals[0].Counters[name], baseCounters[name]; got != want {
						t.Errorf("%s, max-lhs %d, workers %d: %s = %d, %d at workers 1",
							in.name, maxLhs, workers, name, got, want)
					}
				}
			}
		}
	}
}

// TestSubstrateEquivalence: discovery with a pre-built shared substrate
// must match discovery that builds its own encoding and PLIs.
func TestSubstrateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(r, 4+r.Intn(4), 20+r.Intn(60), 2+r.Intn(4))
		sub, err := plicache.Build(context.Background(), rel)
		if err != nil {
			t.Fatal(err)
		}
		own := Discover(rel, Options{}).Format(rel.Attrs)
		shared := Discover(rel, Options{Substrate: sub}).Format(rel.Attrs)
		if own != shared {
			t.Fatalf("trial %d: substrate-backed cover differs:\n%s\nvs\n%s", trial, shared, own)
		}
	}
}

// TestValidationOrder pins the LHS intersection order of the validator:
// ascending partition error (most selective first), ties broken by
// attribute index.
func TestValidationOrder(t *testing.T) {
	// err(a0) = 0 (all distinct), err(a1) = 5 (constant, 6 rows),
	// err(a2) = 2 (two clusters of 2: 4 - 2), err(a3) = 2 (same as a2).
	rel := relation.MustNew("r", []string{"a0", "a1", "a2", "a3"}, [][]string{
		{"1", "c", "x", "q"},
		{"2", "c", "x", "q"},
		{"3", "c", "y", "r"},
		{"4", "c", "y", "r"},
		{"5", "c", "z", "s"},
		{"6", "c", "w", "t"},
	})
	sub, err := plicache.Build(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	d := &discoverer{enc: sub.Encoded(), n: 4, opts: Options{}}
	if err := d.buildPLIs(sub); err != nil {
		t.Fatal(err)
	}
	for a, want := range []int{0, 5, 2, 2} {
		if got := d.handles[a].Error(); got != want {
			t.Fatalf("err(a%d) = %d, want %d (test setup)", a, got, want)
		}
	}
	got := d.validationOrder(bitset.Of(4, 0, 1, 2, 3))
	want := []int{0, 2, 3, 1} // error 0, then 2 and 2 (index tie-break), then 5
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("validation order = %v, want %v", got, want)
		}
	}
}

// TestWorkersCancelNoLeak: cancelling mid-run with an explicit worker
// pool must wind the workers down without leaking goroutines.
func TestWorkersCancelNoLeak(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	rel := randomRelation(r, 12, 3000, 3)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := DiscoverContext(ctx, rel, Options{Workers: 4})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
	waitForGoroutines(t, baseline)
}
