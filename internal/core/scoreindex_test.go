package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// scoreBatchRelation draws a random relation whose column i takes
// values from a pool of cards[i] (0 = a unique key column) and is null
// with probability nullRate.
func scoreBatchRelation(r *rand.Rand, rows int, cards []int, nullRate float64) *relation.Relation {
	names := make([]string, len(cards))
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, len(cards))
		for c, card := range cards {
			switch {
			case r.Float64() < nullRate:
				row[c] = "" // null
			case card == 0:
				row[c] = fmt.Sprintf("key%d", i)
			default:
				// Values of differing lengths, so max lengths are not
				// uniform across rows.
				v := r.Intn(card)
				row[c] = fmt.Sprintf("%0*d", 1+v%4, v)
			}
		}
		data[i] = row
	}
	return relation.MustNew("batch", names, data)
}

// scoreBatchCase is one row of the batch's equivalence table: a
// relation shape and the attribute sets (as lhs → rhs pairs of
// violating FDs) handed to one batch.
type scoreBatchCase struct {
	name     string
	rows     int
	cards    []int
	nullRate float64
	// sets builds the FDs from the index's run-wide attribute order, so
	// a case can ask for rank-order prefixes.
	sets func(r *rand.Rand, order []int) []*fd.FD
	// seed, when set, pre-fills the memo with sentinel values that the
	// batch must keep rather than re-measure.
	seed func(order []int) *ScoreMemo
}

func setOf(n int, attrs ...int) *bitset.Set { return bitset.Of(n, attrs...) }

func randomSets(r *rand.Rand, n, count, maxSize int) []*fd.FD {
	var out []*fd.FD
	for i := 0; i < count; i++ {
		lhs, rhs := bitset.New(n), bitset.New(n)
		for k := r.Intn(maxSize + 1); k > 0; k-- {
			lhs.Add(r.Intn(n))
		}
		for k := r.Intn(maxSize + 1); k > 0; k-- {
			rhs.Add(r.Intn(n))
		}
		out = append(out, &fd.FD{Lhs: lhs, Rhs: rhs})
	}
	return out
}

// prefixChain returns the rank-order prefixes of the first k
// attributes of order, each as the LHS of one FD, longest first, with
// the full chain repeated as an RHS.
func prefixChain(n, k int, order []int) []*fd.FD {
	var out []*fd.FD
	for i := k; i >= 1; i-- {
		out = append(out, &fd.FD{Lhs: setOf(n, order[:i]...), Rhs: setOf(n, order[:k]...)})
	}
	return out
}

var scoreBatchCases = []scoreBatchCase{
	{
		name: "random sets with nulls", rows: 300, cards: []int{3, 5, 8, 2, 13, 40, 4}, nullRate: 0.1,
		sets: func(r *rand.Rand, order []int) []*fd.FD { return randomSets(r, len(order), 60, 5) },
	},
	{
		name: "duplicates, empty and single-attribute sets", rows: 120, cards: []int{2, 6, 3, 9}, nullRate: 0.2,
		sets: func(r *rand.Rand, order []int) []*fd.FD {
			n := len(order)
			return []*fd.FD{
				{Lhs: bitset.New(n), Rhs: setOf(n, 1)},
				{Lhs: setOf(n, 2), Rhs: bitset.New(n)},
				{Lhs: setOf(n, 0, 3), Rhs: setOf(n, 1, 2)},
				{Lhs: setOf(n, 0, 3), Rhs: setOf(n, 1, 2)},
				{Lhs: setOf(n, 3), Rhs: setOf(n, 0, 3)},
				{Lhs: setOf(n, 1), Rhs: setOf(n, 1)},
			}
		},
	},
	{
		name: "rank-order prefixes of one another", rows: 250, cards: []int{4, 7, 2, 11, 5, 3}, nullRate: 0.05,
		sets: func(r *rand.Rand, order []int) []*fd.FD {
			n := len(order)
			out := prefixChain(n, n, order)
			// Siblings that share a two-attribute prefix with the chain.
			out = append(out, &fd.FD{Lhs: setOf(n, order[0], order[1], order[4]), Rhs: setOf(n, order[0], order[2])})
			return out
		},
	},
	{
		name: "unique leading column", rows: 200, cards: []int{5, 0, 3, 6}, nullRate: 0,
		sets: func(r *rand.Rand, order []int) []*fd.FD {
			return append(prefixChain(len(order), len(order), order), randomSets(r, len(order), 20, 3)...)
		},
	},
	{
		name: "all-null and constant columns", rows: 80, cards: []int{1, 4, 1, 6}, nullRate: 0.5,
		sets: func(r *rand.Rand, order []int) []*fd.FD { return randomSets(r, len(order), 30, 4) },
	},
	{
		name: "seeded memo entries are kept", rows: 150, cards: []int{3, 9, 4, 7, 2}, nullRate: 0.1,
		sets: func(r *rand.Rand, order []int) []*fd.FD { return prefixChain(len(order), len(order), order) },
		seed: func(order []int) *ScoreMemo {
			key := ScoreMemoKey(setOf(len(order), order[:2]...))
			return &ScoreMemo{Distinct: map[string]int{key: -7}, MaxLen: map[string]int{key: -9}}
		},
	},
}

// TestScoreBatchMatchesRelationScans is the batch's equivalence table:
// every distinct count and max length it writes must equal the row
// scans relation.DistinctCount and relation.MaxValueLen (neither uses
// PLIs), at one worker and on a two-worker pool, and the memo must hold
// exactly the requested sets plus the seed — no walk prefix leaks in.
func TestScoreBatchMatchesRelationScans(t *testing.T) {
	for ci, tc := range scoreBatchCases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(101 + ci)))
				rel := scoreBatchRelation(r, tc.rows, tc.cards, tc.nullRate)
				var seed *ScoreMemo
				probe := newScoreIndex(rel, plicache.New(rel.Encode()), nil)
				if tc.seed != nil {
					seed = tc.seed(probe.order)
				}
				ix := newScoreIndex(rel, plicache.New(rel.Encode()), seed)
				viol := tc.sets(r, ix.order)
				var pool *wsteal.Pool
				if workers > 1 {
					pool = wsteal.New(workers)
					defer pool.Close()
				}
				if err := ix.measure(context.Background(), pool, viol); err != nil {
					t.Fatal(err)
				}
				checkScoreBatch(t, rel, ix, viol, seed)
			})
		}
	}
}

func checkScoreBatch(t *testing.T, rel *relation.Relation, ix *scoreIndex, viol []*fd.FD, seed *ScoreMemo) {
	t.Helper()
	wantDistinct, wantLen := map[string]int{}, map[string]int{}
	if seed != nil {
		for k, v := range seed.Distinct {
			wantDistinct[k] = v
		}
		for k, v := range seed.MaxLen {
			wantLen[k] = v
		}
	}
	for _, v := range viol {
		for _, s := range []*bitset.Set{v.Lhs, v.Rhs} {
			if k := ScoreMemoKey(s); !s.IsEmpty() {
				if _, seeded := wantDistinct[k]; !seeded {
					wantDistinct[k] = rel.DistinctCount(s)
				}
			}
		}
		if k := ScoreMemoKey(v.Lhs); !v.Lhs.IsEmpty() {
			if _, seeded := wantLen[k]; !seeded {
				wantLen[k] = rel.MaxValueLen(v.Lhs)
			}
		}
	}
	memo := ix.memo()
	if len(memo.Distinct) != len(wantDistinct) || len(memo.MaxLen) != len(wantLen) {
		t.Errorf("memo holds %d counts and %d lengths, want %d and %d",
			len(memo.Distinct), len(memo.MaxLen), len(wantDistinct), len(wantLen))
	}
	for k, want := range wantDistinct {
		if got, ok := memo.Distinct[k]; !ok || got != want {
			t.Errorf("distinct {%s} = %d (present %v), want %d", k, got, ok, want)
		}
	}
	for k, want := range wantLen {
		if got, ok := memo.MaxLen[k]; !ok || got != want {
			t.Errorf("max length {%s} = %d (present %v), want %d", k, got, ok, want)
		}
	}
	// facts reads the memo; the empty set has one combination of length 0.
	for _, v := range viol {
		f := ix.facts(v.Lhs, v.Rhs, rel.NumRows(), rel.NumAttrs())
		if v.Lhs.IsEmpty() && (f.LhsDistinct != 1 || f.LhsMaxLen != 0) {
			t.Errorf("empty LHS facts = %+v", f)
		}
		if v.Rhs.IsEmpty() && f.RhsDistinct != 1 {
			t.Errorf("empty RHS facts = %+v", f)
		}
	}
}

// TestScoreBatchCancelledAtSelection cancels the run the moment the
// selection stage starts: the batch must stop with a *PartialError
// attributed to that stage, and the run's pool must be gone when the
// call returns.
func TestScoreBatchCancelledAtSelection(t *testing.T) {
	ds, err := datagen.TPCH(0.0002, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			obs := observe.Func{OnStageStart: func(stage observe.Stage) {
				if stage == observe.Selection {
					cancel()
				}
			}}
			res, err := NormalizeRelationContext(ctx, ds.Denormalized, Options{MaxLhs: 3, Workers: workers, Observer: obs})
			var pe *PartialError
			if !errors.As(err, &pe) || pe.Stage != observe.Selection || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a *PartialError at %s wrapping context.Canceled", err, observe.Selection)
			}
			if res == nil || len(res.Tables) == 0 {
				t.Fatal("cancelled run returned no partial result")
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("goroutines did not return to baseline: %d, want ≤ %d", n, baseline)
			}
		})
	}
}
