package hyfd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/discovery/bruteforce"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// sampled is one agree set of the reference sweep with the round and
// cluster that first produced it.
type sampled struct {
	round, cluster int
	set            string
}

// referenceClusters spells out the sampler's input order: rows ranked
// by a lexicographic sort of their code vectors, and every column
// partition's clusters in partition order with members in rank order,
// one list per attribute.
func referenceClusters(t *testing.T, rel *relation.Relation) [][][]int {
	t.Helper()
	enc := rel.Encode()
	order := make([]int, enc.NumRows)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		for a := range enc.Columns {
			if ci, cj := enc.Columns[a][order[i]], enc.Columns[a][order[j]]; ci != cj {
				return ci < cj
			}
		}
		return false
	})
	rank := make([]int, enc.NumRows)
	for pos, r := range order {
		rank[r] = pos
	}
	var clusters [][][]int
	for _, h := range substrateHandles(t, rel) {
		p, err := h.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		var attr [][]int
		for _, cluster := range p.Clusters() {
			c := append([]int(nil), cluster...)
			sort.Slice(c, func(i, j int) bool { return rank[c[i]] < rank[c[j]] })
			attr = append(attr, c)
		}
		clusters = append(clusters, attr)
		h.Release()
	}
	return clusters
}

// referenceAgree allocates the agree set of rows r1 and r2.
func referenceAgree(enc *relation.Encoded, r1, r2 int) *bitset.Set {
	a := bitset.New(len(enc.Columns))
	for x, col := range enc.Columns {
		if col[r1] == col[r2] {
			a.Add(x)
		}
	}
	return a
}

// referenceRun is what the reference sweep did: the new agree sets in
// emission order, the pairs it compared, and how often an attribute
// dropped out on low efficiency and was re-admitted at a switch.
type referenceRun struct {
	sets                []sampled
	pairs               int64
	dropped, readmitted int
}

// referenceSample is the sampler's contract spelled out pair by pair.
// phases[0] is the number of initial rounds, and every later entry is
// a switch followed by up to that many rounds. Every attribute starts
// at window 1 and is active while its largest cluster has a pair at
// its window. A round takes, attribute by attribute, the attributes
// active when it starts, and compares every pair at the attribute's
// window in each of its clusters; each agree set is allocated, keyed
// and checked against the sets seen so far. The attribute's efficiency
// is its new sets over its compared pairs; its window widens by one,
// and it drops out when the efficiency is below the threshold (0.01 at
// first) or its largest cluster has no pair at the new window. A
// switch halves the threshold and re-admits every attribute whose last
// efficiency meets it and whose largest cluster has a pair at its
// window. A phase ends early when no attribute is active.
func referenceSample(t *testing.T, rel *relation.Relation, phases []int) referenceRun {
	t.Helper()
	enc := rel.Encode()
	clusters := referenceClusters(t, rel)
	type attr struct {
		window, largest int
		active          bool
		efficiency      float64
	}
	attrs := make([]attr, len(clusters))
	first := make([]int, len(clusters)) // global index of the attribute's first cluster
	for a, cs := range clusters {
		attrs[a].window = 1
		for _, c := range cs {
			attrs[a].largest = max(attrs[a].largest, len(c))
		}
		attrs[a].active = attrs[a].window < attrs[a].largest
		if a > 0 {
			first[a] = first[a-1] + len(clusters[a-1])
		}
	}
	threshold := 0.01
	seen := map[string]bool{}
	var out referenceRun
	round := 0
	for p, rounds := range phases {
		if p > 0 {
			threshold /= 2
			for a := range attrs {
				if at := &attrs[a]; !at.active && at.efficiency >= threshold && at.window < at.largest {
					at.active = true
					out.readmitted++
				}
			}
		}
		for r := 0; r < rounds; r++ {
			var running []int
			for a, at := range attrs {
				if at.active {
					running = append(running, a)
				}
			}
			if len(running) == 0 {
				break
			}
			round++
			for _, a := range running {
				at := &attrs[a]
				pairs, found := 0, 0
				for ci, c := range clusters[a] {
					for i := 0; i+at.window < len(c); i++ {
						pairs++
						set := referenceAgree(enc, c[i], c[i+at.window])
						if seen[set.Key()] {
							continue
						}
						seen[set.Key()] = true
						found++
						out.sets = append(out.sets, sampled{round: round, cluster: first[a] + ci, set: set.String()})
					}
				}
				out.pairs += int64(pairs)
				at.efficiency = float64(found) / float64(pairs)
				at.window++
				switch {
				case at.efficiency < threshold:
					at.active = false
					out.dropped++
				case at.window >= at.largest:
					at.active = false
				}
			}
		}
	}
	return out
}

func substrateHandles(t *testing.T, rel *relation.Relation) []*plistore.Handle {
	t.Helper()
	sub := plicache.New(rel.Encode())
	handles := make([]*plistore.Handle, rel.NumAttrs())
	for a := range handles {
		h, err := sub.Handle(a)
		if err != nil {
			t.Fatal(err)
		}
		handles[a] = h
	}
	return handles
}

// samplingRelation is a random relation in the shapes the sampler must
// handle: low-cardinality columns with nulls, duplicated rows, a
// constant column and a unique one.
func samplingRelation(r *rand.Rand, attrs, rows int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	card := make([]int, attrs)
	for a := range card {
		card[a] = 2 + r.Intn(6)
	}
	data := make([][]string, 0, rows)
	for len(data) < rows {
		if len(data) > 0 && r.Intn(8) == 0 {
			data = append(data, append([]string(nil), data[r.Intn(len(data))]...))
			continue
		}
		row := make([]string, attrs)
		for a := range row {
			if v := r.Intn(card[a] + 1); v < card[a] {
				row[a] = fmt.Sprintf("v%d", v)
			} // else null
		}
		data = append(data, row)
	}
	constant, unique := r.Intn(attrs), r.Intn(attrs)
	for i, row := range data {
		row[constant] = "k"
		if unique != constant {
			row[unique] = fmt.Sprintf("u%d", i)
		}
	}
	return relation.MustNew("sampling", names, data)
}

// TestSamplerMatchesPairwiseReference pins the emitted agree-set
// sequence and the pair count of the sampler to the pair-by-pair
// reference sweep, over initial rounds and several switches (so the
// windows, efficiencies, the run-wide seen table and the slots' dedup
// tables carry over between rounds), at every worker count. The wide
// relations put agree sets on more than one word. Across the trials
// attributes drop out on low efficiency and are re-admitted at a
// switch.
func TestSamplerMatchesPairwiseReference(t *testing.T) {
	r := rand.New(rand.NewSource(241))
	phases := []int{3, 2, 2, 2, 2}
	var dropped, readmitted int
	for trial := 0; trial < 8; trial++ {
		attrs := []int{5, 13, 64, 65, 70, 130, 6, 9}[trial]
		rel := samplingRelation(r, attrs, 60+r.Intn(100)+trial/6*600)
		want := referenceSample(t, rel, phases)
		dropped += want.dropped
		readmitted += want.readmitted
		for _, workers := range []int{1, 2, 3} {
			s, err := newSampler(rel.Encode(), substrateHandles(t, rel))
			if err != nil {
				t.Fatal(err)
			}
			var pool *wsteal.Pool
			if workers > 1 {
				pool = wsteal.New(workers)
			}
			var got []string
			emit := func(a *bitset.Set) error {
				got = append(got, a.String())
				return nil
			}
			for p, rounds := range phases {
				if p > 0 {
					s.lowerThreshold()
				}
				for r := 0; r < rounds && s.hasMore(); r++ {
					if err := s.run(context.Background(), pool, emit); err != nil {
						t.Fatal(err)
					}
				}
			}
			if pool != nil {
				pool.Close()
			}
			if len(got) != len(want.sets) {
				t.Fatalf("trial %d (%d attrs), workers %d: %d agree sets, reference %d",
					trial, attrs, workers, len(got), len(want.sets))
			}
			for i, w := range want.sets {
				if got[i] != w.set {
					t.Fatalf("trial %d (%d attrs), workers %d: agree set %d = %s, reference %s (round %d, cluster %d)",
						trial, attrs, workers, i, got[i], w.set, w.round, w.cluster)
				}
			}
			if s.pairs != want.pairs {
				t.Fatalf("trial %d (%d attrs), workers %d: %d pairs compared, reference %d",
					trial, attrs, workers, s.pairs, want.pairs)
			}
		}
	}
	if dropped == 0 || readmitted == 0 {
		t.Fatalf("test setup: %d low-efficiency drop-outs and %d re-admissions, want both", dropped, readmitted)
	}
}

// orderLines is a long, thin, low-cardinality relation in the shape of
// BenchmarkHyFDWorkers/orderlines: every column is a short cycle over
// the row number, so neighbouring records repeat a few agree sets. With
// a non-nil noise a ninth column draws each row's value from 50 at
// random.
func orderLines(rows int, noise *rand.Rand) *relation.Relation {
	names := []string{"order_id", "customer", "region", "product", "category", "warehouse", "status", "priority"}
	if noise != nil {
		names = append(names, "noise")
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{fmt.Sprintf("order-%d", i%500), fmt.Sprintf("customer-%d", i%200),
			fmt.Sprintf("region-%d", i%7), fmt.Sprintf("product-%d", (i*13)%150), fmt.Sprintf("category-%d", i%25),
			fmt.Sprintf("warehouse-%d", i%12), fmt.Sprintf("status-%d", i%5), fmt.Sprintf("priority-%d", i%3)}
		if noise != nil {
			data[i] = append(data[i], fmt.Sprintf("n%d", noise.Intn(50)))
		}
	}
	return relation.MustNew("orderlines", names, data)
}

// discoverCounted runs discovery with a recorder and returns the cover
// and the fd-discovery counters.
func discoverCounted(t *testing.T, rel *relation.Relation, opts Options) (string, map[string]int64) {
	t.Helper()
	rec := &observe.Recorder{}
	opts.Observer = rec
	cover := Discover(rel, opts).Format(rel.Attrs)
	totals := rec.Totals()
	if len(totals) != 1 || totals[0].Stage != observe.Discovery {
		t.Fatalf("counters under %v, want one fd-discovery stage", totals)
	}
	return cover, totals[0].Counters
}

// TestSamplerStopsOnLowYield: on a long, thin, low-cardinality relation
// every attribute's first window finds far fewer than one new agree set
// per hundred pairs, so no attribute survives window 1, and the whole
// discovery compares exactly the window-1 pairs, at every worker count.
func TestSamplerStopsOnLowYield(t *testing.T) {
	rel := orderLines(20000, nil)
	enc := rel.Encode()
	var window1 int64 // a column of k values has rows − k neighbour pairs
	for _, k := range enc.Cardinality {
		window1 += int64(enc.NumRows - k)
	}
	s, err := newSampler(enc, substrateHandles(t, rel))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(context.Background(), nil, func(*bitset.Set) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for a, at := range s.attrs {
		if at.active {
			t.Errorf("%s survived window 1 at efficiency %g", rel.Attrs[a], at.efficiency)
		}
	}
	if s.pairs != window1 {
		t.Fatalf("window 1 compared %d pairs, want %d", s.pairs, window1)
	}
	for _, workers := range []int{1, 2} {
		_, counters := discoverCounted(t, rel, Options{MaxLhs: 3, Workers: workers})
		if got := counters[observe.CounterPairsCompared]; got != window1 {
			t.Errorf("workers %d: %s = %d, want the %d window-1 pairs", workers, observe.CounterPairsCompared, got, window1)
		}
	}
}

// TestSamplerNoSwitchAfterLastLevel: at max-LHS 2, level 2 is the last
// level validated. On these relations it refutes more than 10% of its
// candidates, which would switch back to sampling at any lower level,
// and a switch would compare more pairs. Levels 0 and 1 refute nothing
// (a violated X → A with |X| ≤ 1 has a violating pair adjacent in one
// of X's clusters, which window 1 compares), so no switch comes before
// it. Validation must compare no pair, and the cover stays exact.
func TestSamplerNoSwitchAfterLastLevel(t *testing.T) {
	const maxLhs = 2
	for seed := int64(1); seed <= 3; seed++ {
		rel := orderLines(400, rand.New(rand.NewSource(seed)))
		enc := rel.Encode()
		initial := referenceSample(t, rel, []int{3}).pairs
		if switched := referenceSample(t, rel, []int{3, 2}).pairs; switched == initial {
			t.Fatalf("seed %d, test setup: a switch after the initial rounds would compare no pair", seed)
		}
		want := bruteforce.DiscoverFDs(rel, maxLhs).Format(rel.Attrs)
		for _, workers := range []int{1, 2} {
			d, _, err := newDiscoverer(context.Background(), rel, Options{MaxLhs: maxLhs, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.seedBySampling(3); err != nil {
				t.Fatal(err)
			}
			var cands, invalid [maxLhs + 1]int
			for level := range cands {
				d.tree.Level(level, func(lhs, rhs *bitset.Set) {
					rhs.ForEach(func(a int) bool {
						cands[level]++
						if !bruteforce.Holds(enc, lhs, a) {
							invalid[level]++
						}
						return true
					})
				})
			}
			if invalid[0]+invalid[1] > 0 || 10*invalid[maxLhs] <= cands[maxLhs] {
				t.Fatalf("seed %d, test setup: levels hold %v candidates, %v of them invalid; want only level %d's, more than 10%%",
					seed, cands, invalid, maxLhs)
			}
			if d.sampler.pairs != initial {
				t.Fatalf("seed %d, workers %d: initial rounds compared %d pairs, reference %d", seed, workers, d.sampler.pairs, initial)
			}
			got, err := d.finish()
			d.close()
			if err != nil {
				t.Fatal(err)
			}
			if d.sampler.pairs != initial {
				t.Errorf("seed %d, workers %d: validation sampled %d more pairs", seed, workers, d.sampler.pairs-initial)
			}
			if cover := got.Format(rel.Attrs); cover != want {
				t.Fatalf("seed %d, workers %d: cover differs from brute force:\n%s\nvs\n%s", seed, workers, cover, want)
			}
		}
	}
}

// TestSamplerSlotForgetsEarlierClusters pins a slot's contract
// independently of the commit that would mask a slip: one compare
// returns exactly its cluster's distinct agree sets in first-occurrence
// order, whatever the slot compared before. One slot runs every
// (window, cluster) step in a shuffled order, as stealing can hand a
// worker a lower cluster after a higher one.
func TestSamplerSlotForgetsEarlierClusters(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for _, attrs := range []int{7, 66} {
		rel := samplingRelation(r, attrs, 90)
		enc := rel.Encode()
		clusters := referenceClusters(t, rel)
		s, err := newSampler(enc, substrateHandles(t, rel))
		if err != nil {
			t.Fatal(err)
		}
		type step struct{ w, c int }
		var steps []step
		var all [][]int
		for _, cs := range clusters {
			all = append(all, cs...)
		}
		for w := 1; w <= 4; w++ {
			for c := range all {
				steps = append(steps, step{w, c})
			}
		}
		r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		slot := &sampleSlot{agree: make([]uint64, s.nw)}
		for _, st := range steps {
			var want []string
			local := map[string]bool{}
			c := all[st.c]
			for i := 0; i+st.w < len(c); i++ {
				if a := referenceAgree(enc, c[i], c[i+st.w]); !local[a.Key()] {
					local[a.Key()] = true
					want = append(want, a.String())
				}
			}
			sets := slot.compare(s, s.cluster(st.c), st.w)
			var got []string
			for off := 0; off < len(sets); off += s.nw {
				got = append(got, bitset.FromWords(attrs, sets[off:off+s.nw]).String())
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%d attrs, window %d, cluster %d: slot gave %v, want %v", attrs, st.w, st.c, got, want)
			}
		}
	}
}

// TestSamplerRejectsRowsPastInt32: rank positions are int32, so a
// relation past 2³¹−1 rows is refused before anything is allocated.
func TestSamplerRejectsRowsPastInt32(t *testing.T) {
	if _, err := newSampler(&relation.Encoded{NumRows: math.MaxInt32 + 1}, nil); err == nil {
		t.Fatal("newSampler accepted 2³¹ rows")
	}
}
