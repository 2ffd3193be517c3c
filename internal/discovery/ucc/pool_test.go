package ucc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"normalize/internal/budget"
	"normalize/internal/observe"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// ordersRelation is an order-line fact table: a unique line id and
// seven random columns of low or mid cardinality, which only become
// unique several at a time, so the lattice runs a few levels deep.
func ordersRelation(rows int, seed int64) *relation.Relation {
	r := rand.New(rand.NewSource(seed))
	cards := []int{1500, 800, 40, 50, 11, 7, 4}
	names := []string{"line", "customer", "product", "warehouse", "quantity", "discount", "mode", "status"}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, 0, len(names))
		row = append(row, fmt.Sprintf("L%06d", i))
		for _, c := range cards {
			row = append(row, fmt.Sprintf("v%d", r.Intn(c)))
		}
		data[i] = row
	}
	return relation.MustNew("orders", names, data)
}

// governedSubstrate returns rel's substrate over a governed store, cold
// the way the root package's regime suite starts it: every column
// partition put, then swept out by a foreign charge of the whole
// ceiling. The ceiling holds pins of rel's largest column partition as
// the store charges it.
func governedSubstrate(t *testing.T, rel *relation.Relation, pins int) (*plicache.Substrate, *plistore.Store) {
	t.Helper()
	enc := rel.Encode()
	var largest int64
	for a := range enc.Columns {
		p := pli.FromColumn(enc.Columns[a], enc.Cardinality[a])
		if b := 8*int64(p.Size()) + 24*int64(p.NumClusters()) + 96 + 8*int64(p.NumRows()); b > largest {
			largest = b
		}
	}
	tr := budget.NewTracker(0, int64(pins)*largest)
	dir := t.TempDir()
	st := plistore.New(tr, dir)
	t.Cleanup(func() {
		st.Close()
		if ents, _ := os.ReadDir(dir); len(ents) > 0 {
			t.Errorf("spill file %s left behind after Close", ents[0].Name())
		}
	})
	sub, err := plicache.NewCache(st).For(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < rel.NumAttrs(); a++ {
		if _, err := sub.Handle(a); err != nil {
			t.Fatal(err)
		}
	}
	tr.Grow(tr.MemLimit())
	tr.Grow(-tr.MemLimit())
	return sub, st
}

// TestPoolMatchesSerial: running each level's intersections on a pool
// of 1, 2 or 4 workers yields the same keys in the same order, and the
// same counters, as the inline loop, over a resident store and over a
// governed one whose ceiling forces spills.
func TestPoolMatchesSerial(t *testing.T) {
	rels := append(randomRelations(), ordersRelation(20000, 1))
	pools := map[int]*wsteal.Pool{}
	for _, w := range []int{1, 2, 4} {
		pools[w] = wsteal.New(w)
		defer pools[w].Close()
	}
	var spills int64
	for i, rel := range rels {
		var want string
		for _, governed := range []bool{false, true} {
			for _, w := range []int{0, 1, 2, 4} {
				sub := plicache.New(rel.Encode())
				var st *plistore.Store
				if governed {
					// Every worker pins its probe side while it puts a
					// product, whose first charge is its compressed and
					// decoded forms; with several workers those charges
					// are in flight at once. Room for that, and no more,
					// makes the retained partitions spill.
					sub, st = governedSubstrate(t, rel, 3*max(w, 1)+1)
				}
				rec := &observe.Recorder{}
				keys, err := DiscoverContext(context.Background(), rel, Options{Substrate: sub, Observer: rec, Pool: pools[w]})
				if err != nil {
					t.Fatalf("relation %d governed=%v workers %d: %v", i, governed, w, err)
				}
				got := fmt.Sprint(keys, rec.Totals())
				if want == "" {
					want = got
				} else if got != want {
					t.Fatalf("relation %d governed=%v workers %d:\n got %s\nwant %s", i, governed, w, got, want)
				}
				if st != nil {
					spills += st.Stats().SpillEvents
				}
			}
		}
	}
	if spills == 0 {
		t.Error("governed ceiling never spilled a retained partition")
	}
}

// TestDiscoverContextCancelMidLevel: a context cancelled before the
// call, or by a worker while a level's intersections run, makes
// discovery return ctx.Err(); the pool's workers all leave the level,
// the pool still serves a later run, and closing it leaves no
// goroutine behind.
func TestDiscoverContextCancelMidLevel(t *testing.T) {
	// Every row twice: no key exists, so every candidate is retained
	// and put in the store.
	base := ordersRelation(2000, 3).Rows()
	rel := relation.MustNew("dup", []string{"a", "b", "c", "d", "e", "f", "g", "h"}, append(base, base...))
	want := fmt.Sprint(Discover(rel, Options{}))
	baseline := runtime.NumGoroutine()

	for _, w := range []int{0, 1, 2, 4} {
		var pool *wsteal.Pool
		if w > 0 {
			pool = wsteal.New(w)
		}

		pre, cancel := context.WithCancel(context.Background())
		cancel()
		if keys, err := DiscoverContext(pre, rel, Options{Pool: pool}); !errors.Is(err, context.Canceled) || keys != nil {
			t.Errorf("workers %d, cancelled before the call: keys %v, err %v", w, keys, err)
		}

		// The store is governed and filled to its ceiling once the column
		// partitions are in, so the first product a level task puts
		// calls the reclaimer, which cancels and lets the charge stand.
		tr := budget.NewTracker(0, 1<<30)
		st := plistore.New(tr, t.TempDir())
		sub, err := plicache.NewCache(st).For(context.Background(), rel)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < rel.NumAttrs(); a++ {
			if _, err := sub.Handle(a); err != nil {
				t.Fatal(err)
			}
		}
		tr.Grow(tr.MemLimit() - tr.Memory())
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		inLevel := false
		tr.SetReclaimer(func() bool {
			once.Do(func() {
				inLevel = true
				cancel()
			})
			return true
		})
		keys, err := DiscoverContext(ctx, rel, Options{Substrate: sub, Pool: pool})
		if !errors.Is(err, context.Canceled) || keys != nil {
			t.Errorf("workers %d, cancelled mid-level: keys %v, err %v", w, keys, err)
		}
		if !inLevel {
			t.Errorf("workers %d: no level task put a partition", w)
		}
		cancel()
		st.Close()

		if pool != nil {
			if got := fmt.Sprint(Discover(rel, Options{Pool: pool})); got != want {
				t.Errorf("workers %d, run after the cancelled one: %s, want %s", w, got, want)
			}
			pool.Close()
		}
	}
	waitForGoroutines(t, baseline)
}

func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines did not settle: baseline %d, now %d", baseline, runtime.NumGoroutine())
}
