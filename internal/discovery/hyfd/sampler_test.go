package hyfd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"normalize/internal/bitset"
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
// partition's clusters in partition order with members in rank order.
func referenceClusters(t *testing.T, rel *relation.Relation) [][]int {
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
	var clusters [][]int
	for _, h := range substrateHandles(t, rel) {
		p, err := h.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		for _, cluster := range p.Clusters() {
			c := append([]int(nil), cluster...)
			sort.Slice(c, func(i, j int) bool { return rank[c[i]] < rank[c[j]] })
			clusters = append(clusters, c)
		}
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

// referenceSample is the sampler's contract spelled out pair by pair:
// per window round, every cluster's pairs at that distance, each agree
// set allocated, keyed and checked against the sets seen so far. It
// returns every new agree set in emission order.
func referenceSample(t *testing.T, rel *relation.Relation, rounds int) []sampled {
	t.Helper()
	enc := rel.Encode()
	clusters := referenceClusters(t, rel)
	maxCluster := 0
	for _, c := range clusters {
		maxCluster = max(maxCluster, len(c))
	}
	seen := map[string]bool{}
	var out []sampled
	for w := 1; w <= rounds && w < maxCluster; w++ {
		for ci, c := range clusters {
			for i := 0; i+w < len(c); i++ {
				a := referenceAgree(enc, c[i], c[i+w])
				k := a.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				out = append(out, sampled{round: w, cluster: ci, set: a.String()})
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
// sequence of the sampler to the pair-by-pair reference sweep, over
// several calls of run (so the window, the seen sets and the slots'
// dedup tables carry over between rounds), at every worker count. The
// wide relations put agree sets on more than one word.
func TestSamplerMatchesPairwiseReference(t *testing.T) {
	r := rand.New(rand.NewSource(241))
	for trial := 0; trial < 6; trial++ {
		attrs := []int{5, 13, 64, 65, 70, 130}[trial]
		rel := samplingRelation(r, attrs, 60+r.Intn(100))
		const rounds = 6
		want := referenceSample(t, rel, rounds)
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
			for r := 0; r < rounds && s.hasMore(); r++ {
				if err := s.run(context.Background(), pool, emit); err != nil {
					t.Fatal(err)
				}
			}
			if pool != nil {
				pool.Close()
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (%d attrs), workers %d: %d agree sets, reference %d",
					trial, attrs, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i].set {
					t.Fatalf("trial %d (%d attrs), workers %d: agree set %d = %s, reference %s (round %d, cluster %d)",
						trial, attrs, workers, i, got[i], want[i].set, want[i].round, want[i].cluster)
				}
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
		for w := 1; w <= 4; w++ {
			for c := range clusters {
				steps = append(steps, step{w, c})
			}
		}
		r.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
		slot := &sampleSlot{agree: make([]uint64, s.nw)}
		for _, st := range steps {
			var want []string
			local := map[string]bool{}
			c := clusters[st.c]
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
