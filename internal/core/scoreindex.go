package core

import (
	"context"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/pli"
	"normalize/internal/relation"
	"normalize/internal/scoring"
	"normalize/internal/wsteal"
)

// ScoreMemo is the run's exact scoring facts, keyed by attribute sets
// in the universal (root) index space: the number of distinct value
// combinations and the maximum summed value length per set. Both are
// projection-invariant — projecting onto a superset of the attributes
// and removing duplicate rows changes neither the set of distinct
// combinations nor their lengths — so one root-level memo serves every
// table of the decomposition worklist.
//
// The memo is the contract between a full run and the delta plane
// (internal/delta): a run publishes the facts it measured in
// Result.ScoreMemo, and a delta run maintains them incrementally —
// counting only the genuinely new combinations appended rows introduce
// — and seeds them back via Options.ScoreSeed. Because maintained facts
// are exact, both paths score every violating FD identically and choose
// the same splits, which is what pins delta DDL to the from-scratch
// output byte for byte.
type ScoreMemo struct {
	// Distinct maps a canonical attribute-set key (ascending universal
	// indices joined by ","; see ScoreMemoKey) to the exact number of
	// distinct value combinations over those attributes.
	Distinct map[string]int `json:"distinct,omitempty"`
	// MaxLen maps the same keys to the maximum over rows of the summed
	// value lengths of the set's attributes (relation.MaxValueLen).
	MaxLen map[string]int `json:"max_len,omitempty"`
}

// ScoreMemoKey renders an attribute set in universal index space as the
// memo's canonical map key: ascending indices joined by ",".
func ScoreMemoKey(attrs *bitset.Set) string {
	var b strings.Builder
	first := true
	attrs.ForEach(func(a int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(a))
		return true
	})
	return b.String()
}

// scoreIndex computes and memoizes the scoring facts of one run, bound
// to the root table's instance and its encoding. Facts are
// measured in one batch per table (measure) before that table's FDs are
// scored, so facts only reads the memo. A seed memo (Options.ScoreSeed)
// pre-fills the maps so a delta run never recomputes what its parent
// already measured.
//
// Single attributes read their distinct count straight off the
// dictionary cardinality; larger sets are counted by a prefix walk over
// single-column PLIs (see measure); max value lengths come from one
// dictionary-backed row scan per set.
//
// The index builds each attribute's PLI and inverted index itself, once,
// on first use, and keeps them flat and uncharged — outside the run's
// PLI store on purpose. Under a memory ceiling that store is governed,
// and by the time selection runs the ceiling has no room for them: on
// the benchmark's orders-governed workload the charges that cannot be
// evicted hold ~16.9 MB of its 19.92 MB ceiling at the second
// selection, leaving ~3.0 MB, while the PLIs the walks build total
// ~3.9 MB (up to 1.0 MB each; ~12.1 MB over all 13 root columns) and
// the walk pins up to two per worker. Charging them would trip the
// degradation ladder.
type scoreIndex struct {
	data *relation.Relation
	enc  *relation.Encoded
	cols []columnPLI

	// order lists the attributes by descending dictionary cardinality
	// (index tie-break) — ascending PLI error, since e(A) = rows − |dom A|
	// — and rank inverts it. Every intersection chain follows this one
	// run-wide order, so chains run most-selective-first and sets share
	// their prefixes.
	order, rank []int

	distinct map[string]int
	maxLen   map[string]int

	// walkers is per-worker walk scratch, indexed by pool slot and kept
	// across batches.
	walkers []*walker
}

// columnPLI is one attribute's lazily built PLI.
type columnPLI struct {
	once sync.Once
	p    *pli.PLI
}

// newScoreIndex binds an index to the root instance.
func newScoreIndex(data *relation.Relation, seed *ScoreMemo) *scoreIndex {
	enc := data.Encode()
	card := enc.Cardinality
	order := make([]int, len(card))
	for a := range order {
		order[a] = a
	}
	sort.SliceStable(order, func(i, j int) bool { return card[order[i]] > card[order[j]] })
	rank := make([]int, len(order))
	for r, a := range order {
		rank[a] = r
	}
	ix := &scoreIndex{
		data:     data,
		enc:      enc,
		cols:     make([]columnPLI, len(card)),
		order:    order,
		rank:     rank,
		distinct: make(map[string]int),
		maxLen:   make(map[string]int),
	}
	if seed != nil {
		for k, v := range seed.Distinct {
			ix.distinct[k] = v
		}
		for k, v := range seed.MaxLen {
			ix.maxLen[k] = v
		}
	}
	return ix
}

// pli returns attribute a's PLI, building it on first use; its
// inverted index is built on its own first use and cached on the PLI.
// Safe for concurrent use.
func (ix *scoreIndex) pli(a int) *pli.PLI {
	c := &ix.cols[a]
	c.once.Do(func() { c.p = pli.FromColumn(ix.enc.Columns[a], ix.enc.Cardinality[a]) })
	return c.p
}

// facts assembles the data-dependent FDScore inputs of the violating FD
// lhs → rhs (universal index space) on table instance rows/numAttrs. It
// reads the memo, which measure has filled for every violating FD of
// the table; the empty set has one (empty) value combination of length
// 0.
func (ix *scoreIndex) facts(lhs, rhs *bitset.Set, rows, numAttrs int) scoring.FDFacts {
	f := scoring.FDFacts{Rows: rows, NumAttrs: numAttrs, LhsDistinct: 1, RhsDistinct: 1}
	if !lhs.IsEmpty() {
		key := ScoreMemoKey(lhs)
		f.LhsMaxLen, f.LhsDistinct = ix.maxLen[key], ix.distinct[key]
	}
	if !rhs.IsEmpty() {
		f.RhsDistinct = ix.distinct[ScoreMemoKey(rhs)]
	}
	return f
}

// countSet is one attribute set whose distinct count a batch measures:
// its memo key and its attributes as ascending ranks.
type countSet struct {
	key string
	seq []int
}

// lenSet is one attribute set whose max value length a batch measures.
type lenSet struct {
	key   string
	attrs *bitset.Set
}

// measure fills the memo with every fact the scoring of viol needs and
// the memo lacks: the distinct count of each non-empty LHS and RHS and
// the max value length of each non-empty LHS. Only those sets are
// written, so the memo — and Result.ScoreMemo — holds exactly what a
// per-FD computation would have measured.
//
// Distinct counts are taken by one walk over all missing sets, each
// spelled as its attributes in rank order and sorted lexicographically,
// as a prefix trie: every shared prefix is intersected once, and a set
// that no other set extends takes its last step count-only
// (pli.IntersectCount). The walk splits at the first two attributes
// into independent tasks, which run together with the max-length scans
// on pool (serially when pool is nil); each task writes only its own
// result slots, so the batch is deterministic at every worker count.
func (ix *scoreIndex) measure(ctx context.Context, pool *wsteal.Pool, viol []*fd.FD) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var counts []countSet
	var lens []lenSet
	countQueued, lenQueued := make(map[string]bool), make(map[string]bool)
	wantCount := func(attrs *bitset.Set, key string) {
		if _, ok := ix.distinct[key]; ok || countQueued[key] {
			return
		}
		countQueued[key] = true
		seq := make([]int, 0, attrs.Cardinality())
		attrs.ForEach(func(a int) bool {
			seq = append(seq, ix.rank[a])
			return true
		})
		slices.Sort(seq)
		counts = append(counts, countSet{key: key, seq: seq})
	}
	for _, v := range viol {
		if !v.Lhs.IsEmpty() {
			key := ScoreMemoKey(v.Lhs)
			wantCount(v.Lhs, key)
			if _, ok := ix.maxLen[key]; !ok && !lenQueued[key] {
				lenQueued[key] = true
				lens = append(lens, lenSet{key: key, attrs: v.Lhs})
			}
		}
		if !v.Rhs.IsEmpty() {
			wantCount(v.Rhs, ScoreMemoKey(v.Rhs))
		}
	}
	slices.SortFunc(counts, func(a, b countSet) int { return slices.Compare(a.seq, b.seq) })

	// Single attributes are answered by their cardinality; the rest form
	// one task per run of sets sharing their first two ranks.
	distinct := make([]int, len(counts))
	var groups [][2]int // [lo, hi) into counts
	for i := 0; i < len(counts); {
		c := counts[i]
		if len(c.seq) == 1 {
			distinct[i] = ix.enc.Cardinality[ix.order[c.seq[0]]]
			i++
			continue
		}
		j := i + 1
		for j < len(counts) && len(counts[j].seq) > 1 && counts[j].seq[0] == c.seq[0] && counts[j].seq[1] == c.seq[1] {
			j++
		}
		groups = append(groups, [2]int{i, j})
		i = j
	}
	maxLen := make([]int, len(lens))

	slots := 1
	if pool != nil {
		slots = pool.Workers()
	}
	for len(ix.walkers) < slots {
		ix.walkers = append(ix.walkers, &walker{ix: ix, bufs: make([]pli.Buffer, len(ix.order))})
	}
	task := func(i, slot int) error {
		if i < len(groups) {
			lo, hi := groups[i][0], groups[i][1]
			ix.walkers[slot].walk(ix.pli(ix.order[counts[lo].seq[0]]), 1, counts[lo:hi], distinct[lo:hi])
			return nil
		}
		i -= len(groups)
		maxLen[i] = ix.data.MaxValueLen(lens[i].attrs)
		return nil
	}
	n := len(groups) + len(lens)
	if pool != nil {
		if err := pool.Run(ctx, "score-batch", n, task, nil); err != nil {
			return err
		}
	} else {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			task(i, 0)
		}
	}

	for i, c := range counts {
		ix.distinct[c.key] = distinct[i]
	}
	for i, l := range lens {
		ix.maxLen[l.key] = maxLen[i]
	}
	return nil
}

// walker is one worker's scratch for the prefix walk: one intersector
// (its counter/cursor pair) and one result buffer per walk depth, all
// reused across tasks and batches.
type walker struct {
	ix   *scoreIndex
	isx  pli.Intersector
	bufs []pli.Buffer
}

// walk counts sets — sorted lexicographically, each holding at least
// depth ranks, all sharing their first depth ranks, whose partition is
// p — into out. A set equal to the prefix reads its count off p; an
// extension by one attribute that no other set extends further takes
// one count-only step; every other extension is intersected once into
// the next depth's buffer and walked with its extensions.
func (w *walker) walk(p *pli.PLI, depth int, sets []countSet, out []int) {
	rows := w.ix.enc.NumRows
	if p.IsUnique() {
		// Every row is its own combination, on every extension too.
		for i := range out {
			out[i] = rows
		}
		return
	}
	i := 0
	if len(sets[0].seq) == depth {
		// Stripped singletons each hold a distinct combination; every
		// surviving cluster holds exactly one more.
		out[0] = rows - p.Size() + p.NumClusters()
		i = 1
	}
	for i < len(sets) {
		r := sets[i].seq[depth]
		j := i + 1
		for j < len(sets) && sets[j].seq[depth] == r {
			j++
		}
		inv := w.ix.pli(w.ix.order[r]).Inverted()
		if j == i+1 && len(sets[i].seq) == depth+1 {
			size, clusters := w.isx.IntersectCount(p, inv)
			out[i] = rows - size + clusters
		} else {
			next := w.isx.IntersectInto(&w.bufs[depth], p, inv)
			w.walk(next, depth+1, sets[i:j], out[i:j])
		}
		i = j
	}
}

// memo snapshots the measured facts for Result.ScoreMemo.
func (ix *scoreIndex) memo() *ScoreMemo {
	m := &ScoreMemo{
		Distinct: make(map[string]int, len(ix.distinct)),
		MaxLen:   make(map[string]int, len(ix.maxLen)),
	}
	for k, v := range ix.distinct {
		m.Distinct[k] = v
	}
	for k, v := range ix.maxLen {
		m.MaxLen[k] = v
	}
	return m
}
