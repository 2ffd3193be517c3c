package fd

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"normalize/internal/bitset"
)

func bs(n int, elems ...int) *bitset.Set { return bitset.Of(n, elems...) }

// toSet reads every stored FD off the tree, level by level, as a sorted
// aggregated Set.
func toSet(tr *Tree) *Set {
	s := NewSet(tr.numAttrs)
	for k := 0; k <= tr.MaxLevel(); k++ {
		tr.Level(k, func(lhs, rhs *bitset.Set) {
			s.FDs = append(s.FDs, &FD{Lhs: lhs, Rhs: rhs})
		})
	}
	return s.Sort()
}

// stored reports whether exactly lhs → a is stored.
func stored(tr *Tree, lhs *bitset.Set, a int) bool {
	found := false
	tr.Level(lhs.Cardinality(), func(l, rhs *bitset.Set) {
		found = found || l.Equal(lhs) && rhs.Contains(a)
	})
	return found
}

func TestTreeAddContains(t *testing.T) {
	tr := NewTree(5)
	tr.Add(bs(5, 0, 2), 3)
	if !stored(tr, bs(5, 0, 2), 3) {
		t.Error("FD missing after Add")
	}
	if stored(tr, bs(5, 0, 2), 4) || stored(tr, bs(5, 0), 3) || stored(tr, bs(5, 0, 1, 2), 3) {
		t.Error("tree reports an FD never added")
	}
	if s := toSet(tr); s.CountSingle() != 1 {
		t.Errorf("%d FDs stored, want 1", s.CountSingle())
	}
}

func TestTreeAddSetAndToSet(t *testing.T) {
	tr := NewTree(5)
	tr.AddSet(bs(5, 2), bs(5, 3, 4))
	tr.Add(bs(5, 0, 1), 2)
	s := toSet(tr)
	if s.Len() != 2 || s.CountSingle() != 3 {
		t.Fatalf("toSet: Len=%d CountSingle=%d", s.Len(), s.CountSingle())
	}
	if !s.FDs[0].Lhs.Equal(bs(5, 2)) || !s.FDs[0].Rhs.Equal(bs(5, 3, 4)) {
		t.Errorf("first FD = %v", s.FDs[0])
	}
}

func TestTreeGeneralization(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 1, 3), 5)
	gen := bs(6, 0, 2) // GeneralizedRhs must clear what dst held
	if !tr.GeneralizedRhs(bs(6, 1, 3), gen).Equal(bs(6, 5)) {
		t.Errorf("equal lhs must count as generalization: %v", gen)
	}
	if !tr.GeneralizedRhs(bs(6, 0, 1, 3), gen).Equal(bs(6, 5)) {
		t.Errorf("superset lhs must find generalization: %v", gen)
	}
	if !tr.GeneralizedRhs(bs(6, 1), gen).IsEmpty() {
		t.Errorf("subset lhs is not a generalization holder: %v", gen)
	}
	// Empty-lhs FD generalizes everything.
	tr2 := NewTree(6)
	tr2.Add(bs(6), 2)
	if !tr2.GeneralizedRhs(bs(6, 4), gen).Equal(bs(6, 2)) || !tr2.GeneralizedRhs(bs(6), gen).Equal(bs(6, 2)) {
		t.Error("empty lhs must generalize all")
	}
}

func TestTreeCollectGeneralizations(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 1), 5)
	tr.Add(bs(6, 1, 3), 5)
	tr.Add(bs(6, 2), 5)
	tr.Add(bs(6, 1), 4)
	tr.Add(bs(6, 0, 3), 2)
	gen := bitset.New(6)
	for _, c := range []struct {
		lhs, want *bitset.Set
	}{
		{bs(6, 1, 3), bs(6, 4, 5)},
		{bs(6, 2, 3), bs(6, 5)},
		{bs(6, 0, 1, 3), bs(6, 2, 4, 5)},
		{bs(6, 3), bs(6)},
	} {
		if got := tr.GeneralizedRhs(c.lhs, gen); !got.Equal(c.want) {
			t.Errorf("GeneralizedRhs(%v) = %v, want %v", c.lhs, got, c.want)
		}
	}
}

func TestTreeRemove(t *testing.T) {
	tr := NewTree(5)
	tr.Add(bs(5, 1, 2), 4)
	tr.RemoveRhs(bs(5, 1, 2), bs(5, 4))
	if stored(tr, bs(5, 1, 2), 4) || toSet(tr).Len() != 0 || tr.MaxLevel() != -1 {
		t.Error("RemoveRhs left the FD behind")
	}
	// Removing a non-existent FD is a no-op.
	tr.RemoveRhs(bs(5, 0), bs(5, 1))
	tr.RemoveRhs(bs(5, 1, 2, 3), bs(5, 4))
	tr.RemoveRhs(bs(5, 1, 2), bs(5, 4))
	if tr.MaxLevel() != -1 || len(tr.ViolatedBy(bs(5))) != 0 {
		t.Error("removals of absent FDs changed the tree")
	}
}

func TestTreeMinimalCover(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 1, 3), 5)
	tr.Add(bs(6, 0, 1, 3), 5)
	tr.Add(bs(6, 1), 5) // generalizes both earlier inserts
	cover := tr.MinimalCover()
	if cover.Len() != 1 || !cover.FDs[0].Lhs.Equal(bs(6, 1)) || !cover.FDs[0].Rhs.Equal(bs(6, 5)) {
		t.Errorf("minimal cover = %v", cover.FDs)
	}
	if toSet(tr).CountSingle() != 3 {
		t.Error("MinimalCover changed the tree")
	}
}

func TestTreeMinimalCoverKeepsOtherRhs(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 1, 3), 5)
	tr.Add(bs(6, 1, 3), 4)
	tr.Add(bs(6, 1), 5) // supersedes {1,3}→5 but not {1,3}→4
	cover := tr.MinimalCover().Sort()
	if cover.Len() != 2 || !cover.FDs[1].Lhs.Equal(bs(6, 1, 3)) || !cover.FDs[1].Rhs.Equal(bs(6, 4)) {
		t.Errorf("minimal cover = %v", cover.FDs)
	}
}

func TestTreeLevelAndMaxLevel(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 1), 2)
	tr.Add(bs(6, 1, 3), 4)
	tr.Add(bs(6, 0, 2, 5), 4)
	if tr.MaxLevel() != 3 {
		t.Errorf("MaxLevel = %d", tr.MaxLevel())
	}
	var level2 []string
	tr.Level(2, func(lhs, rhs *bitset.Set) {
		level2 = append(level2, lhs.String())
	})
	if len(level2) != 1 || level2[0] != "{1, 3}" {
		t.Errorf("Level(2) = %v", level2)
	}
	// Emptying the deepest node lowers MaxLevel; its path stays.
	tr.RemoveRhs(bs(6, 0, 2, 5), bs(6, 4))
	if tr.MaxLevel() != 2 {
		t.Errorf("MaxLevel after emptying level 3 = %d", tr.MaxLevel())
	}
	tr.Level(3, func(lhs, _ *bitset.Set) { t.Errorf("Level(3) reported emptied %v", lhs) })
	if NewTree(4).MaxLevel() != -1 {
		t.Error("empty tree MaxLevel should be -1")
	}
}

func TestTreeViolatedBy(t *testing.T) {
	tr := NewTree(6)
	tr.Add(bs(6, 0), 1)    // lhs ⊆ agree, rhs outside → violated
	tr.Add(bs(6, 0), 2)    // rhs inside agree → fine
	tr.Add(bs(6, 0, 3), 1) // lhs outside agree → fine
	tr.Add(bs(6, 2), 4)    // violated
	tr.Add(bs(6), 5)       // empty lhs, rhs outside → violated
	agree := bs(6, 0, 2)
	got := tr.ViolatedBy(agree)
	want := map[string]string{
		"{0}": "{1}",
		"{2}": "{4}",
		"{}":  "{5}",
	}
	if len(got) != len(want) {
		t.Fatalf("ViolatedBy returned %d FDs, want %d: %v", len(got), len(want), got)
	}
	for _, v := range got {
		if want[v.Lhs.String()] != v.Rhs.String() {
			t.Errorf("unexpected violated FD %v -> %v", v.Lhs, v.Rhs)
		}
	}
}

// TestTreeViolatedByMatchesCollect checks ViolatedBy against the
// reference's per-attribute collection of stored generalizations.
func TestTreeViolatedByMatchesCollect(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(6)
		if trial%2 == 1 {
			n = 64 + r.Intn(70)
		}
		tr, ref := NewTree(n), newBrute(n)
		for i := 0; i < 25; i++ {
			a := r.Intn(n)
			lhs := bitset.New(n)
			for j := r.Intn(4); j > 0; j-- {
				if e := r.Intn(n); e != a {
					lhs.Add(e)
				}
			}
			tr.Add(lhs, a)
			ref.add(lhs, a)
		}
		agree := bitset.New(n)
		for e := 0; e < n; e++ {
			if r.Intn(4) != 0 {
				agree.Add(e)
			}
		}
		type pair struct {
			lhs string
			a   int
		}
		want := map[pair]bool{}
		for a := 0; a < n; a++ {
			if agree.Contains(a) {
				continue
			}
			for _, lhs := range ref.generalizations(agree, a) {
				want[pair{lhs.String(), a}] = true
			}
		}
		got := map[pair]bool{}
		for _, v := range tr.ViolatedBy(agree) {
			v.Rhs.ForEach(func(a int) bool {
				got[pair{v.Lhs.String(), a}] = true
				return true
			})
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d violated pairs, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("trial %d: missing violated pair %v", trial, k)
			}
		}
	}
}

func TestTreeRemoveRhs(t *testing.T) {
	tr := NewTree(5)
	tr.AddSet(bs(5, 1), bs(5, 2, 3, 4))
	tr.RemoveRhs(bs(5, 1), bs(5, 2, 4))
	if stored(tr, bs(5, 1), 2) || stored(tr, bs(5, 1), 4) {
		t.Error("RemoveRhs left removed attributes")
	}
	if !stored(tr, bs(5, 1), 3) {
		t.Error("RemoveRhs removed an unrelated attribute")
	}
	// Removing from a non-existent path is a no-op.
	tr.RemoveRhs(bs(5, 0, 2), bs(5, 3))
}

// brute is a reference implementation holding the stored FDs per
// left-hand side in a map, with every query a scan over all of them.
type brute struct {
	n    int
	rhs  map[string]*bitset.Set // by lhs.Key(); entries may be empty
	lhss []*bitset.Set          // every lhs ever stored, in first-store order
}

func newBrute(n int) *brute { return &brute{n: n, rhs: map[string]*bitset.Set{}} }

func (b *brute) entry(lhs *bitset.Set) *bitset.Set {
	r, ok := b.rhs[lhs.Key()]
	if !ok {
		r = bitset.New(b.n)
		b.rhs[lhs.Key()] = r
		b.lhss = append(b.lhss, lhs.Clone())
	}
	return r
}

func (b *brute) add(lhs *bitset.Set, a int)      { b.entry(lhs).Add(a) }
func (b *brute) addSet(lhs, rhs *bitset.Set)     { b.entry(lhs).UnionWith(rhs) }
func (b *brute) removeRhs(lhs, rhs *bitset.Set)  { b.entry(lhs).DifferenceWith(rhs) }
func (b *brute) get(lhs *bitset.Set) *bitset.Set { return b.rhs[lhs.Key()] }

// generalizations returns every stored lhs X ⊆ set with X → a.
func (b *brute) generalizations(set *bitset.Set, a int) []*bitset.Set {
	var out []*bitset.Set
	for _, lhs := range b.lhss {
		if lhs.IsSubsetOf(set) && b.get(lhs).Contains(a) {
			out = append(out, lhs)
		}
	}
	return out
}

func (b *brute) generalizedRhs(set *bitset.Set) *bitset.Set {
	out := bitset.New(b.n)
	for _, lhs := range b.lhss {
		if lhs.IsSubsetOf(set) {
			out.UnionWith(b.get(lhs))
		}
	}
	return out
}

func (b *brute) violatedBy(agree *bitset.Set) *Set {
	s := NewSet(b.n)
	for _, lhs := range b.lhss {
		if lhs.IsSubsetOf(agree) && !b.get(lhs).IsSubsetOf(agree) {
			s.Add(lhs, b.get(lhs).Difference(agree))
		}
	}
	return s.Sort()
}

func (b *brute) minimalCover() *Set {
	s := NewSet(b.n)
	for _, lhs := range b.lhss {
		rhs := b.get(lhs).Clone()
		for _, sub := range b.lhss {
			if sub.IsProperSubsetOf(lhs) {
				rhs.DifferenceWith(b.get(sub))
			}
		}
		if !rhs.IsEmpty() {
			s.Add(lhs, rhs)
		}
	}
	return s.Sort()
}

func (b *brute) level(k int) *Set {
	s := NewSet(b.n)
	for _, lhs := range b.lhss {
		if lhs.Cardinality() == k && !b.get(lhs).IsEmpty() {
			s.Add(lhs, b.get(lhs))
		}
	}
	return s.Sort()
}

func (b *brute) maxLevel() int {
	max := -1
	for _, lhs := range b.lhss {
		if !b.get(lhs).IsEmpty() && lhs.Cardinality() > max {
			max = lhs.Cardinality()
		}
	}
	return max
}

// opReader decodes an op stream's operands; reads past the end give 0.
type opReader struct {
	data []byte
	n    int
	ref  *brute
}

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	c := r.data[0]
	r.data = r.data[1:]
	return c
}

func (r *opReader) attr() int { return int(r.byte()) % r.n }

// set decodes one attribute set from a header byte: bit 0 starts from
// a stored lhs (picked by the next byte) rather than ∅, bits 1–3 count
// the attributes that follow and are added, and bit 4 complements the
// result, which makes dense agree sets and RHS removals that empty a
// node.
func (r *opReader) set() *bitset.Set {
	h := r.byte()
	s := bitset.New(r.n)
	if h&1 != 0 && len(r.ref.lhss) > 0 {
		s.CopyFrom(r.ref.lhss[int(r.byte())%len(r.ref.lhss)])
	}
	for i := (h >> 1) & 7; i > 0; i-- {
		s.Add(r.attr())
	}
	if h&16 != 0 {
		s = bitset.Full(r.n).DifferenceWith(s)
	}
	return s
}

// checkTreeOps replays an op stream on a Tree and on brute and returns
// the first query they answer differently. data[0] picks the universe,
// 1 to 130 attributes; each op is an opcode byte and its operands.
// Mutations are Add, AddSet and RemoveRhs; queries are ViolatedBy,
// GeneralizedRhs, MinimalCover, Level and MaxLevel, and all of them
// run once more at the end.
func checkTreeOps(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%130
	tr, ref := NewTree(n), newBrute(n)
	r := &opReader{data: data[1:], n: n, ref: ref}
	gen := bitset.Full(n)
	for op := 0; len(r.data) > 0; op++ {
		var err error
		switch r.byte() % 7 {
		case 0:
			lhs, a := r.set(), r.attr()
			tr.Add(lhs, a)
			ref.add(lhs, a)
		case 1:
			lhs, rhs := r.set(), r.set()
			tr.AddSet(lhs, rhs)
			ref.addSet(lhs, rhs)
		case 2:
			lhs, rhs := r.set(), r.set()
			tr.RemoveRhs(lhs, rhs)
			ref.removeRhs(lhs, rhs)
		case 3:
			agree := r.set()
			got := NewSet(n)
			for _, v := range tr.ViolatedBy(agree) {
				got.Add(v.Lhs, v.Rhs)
			}
			err = sameFDs("ViolatedBy("+agree.String()+")", got.Sort(), ref.violatedBy(agree))
		case 4:
			lhs := r.set()
			if got, want := tr.GeneralizedRhs(lhs, gen), ref.generalizedRhs(lhs); !got.Equal(want) {
				err = fmt.Errorf("GeneralizedRhs(%v) = %v, want %v", lhs, got, want)
			}
		case 5:
			err = sameFDs("MinimalCover", tr.MinimalCover().Sort(), ref.minimalCover())
		case 6:
			err = sameLevels(tr, ref, int(r.byte())%(n+1))
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	if err := sameFDs("MinimalCover", tr.MinimalCover().Sort(), ref.minimalCover()); err != nil {
		return fmt.Errorf("end: %w", err)
	}
	for k := 0; k <= n; k++ {
		if err := sameLevels(tr, ref, k); err != nil {
			return fmt.Errorf("end: %w", err)
		}
	}
	return nil
}

// sameLevels compares MaxLevel and Level(k), including Level's order:
// ascending paths, the order Set.Sort gives one level.
func sameLevels(tr *Tree, ref *brute, k int) error {
	if got, want := tr.MaxLevel(), ref.maxLevel(); got != want {
		return fmt.Errorf("MaxLevel = %d, want %d", got, want)
	}
	got := NewSet(tr.numAttrs)
	tr.Level(k, func(lhs, rhs *bitset.Set) {
		got.FDs = append(got.FDs, &FD{Lhs: lhs, Rhs: rhs})
	})
	return sameFDs(fmt.Sprintf("Level(%d)", k), got, ref.level(k))
}

// sameFDs compares two FD sets FD by FD, in order.
func sameFDs(what string, got, want *Set) error {
	g, w := fdStrings(got), fdStrings(want)
	if !slices.Equal(g, w) {
		return fmt.Errorf("%s = %v, want %v", what, g, w)
	}
	return nil
}

func fdStrings(s *Set) []string {
	out := make([]string, len(s.FDs))
	for i, f := range s.FDs {
		out[i] = f.String()
	}
	return out
}

// randomTreeOps returns an op stream over a universe of n attributes
// (1 ≤ n ≤ 130) with the given number of ops, biased like induction:
// mostly small left-hand sides and stores, with queries in between.
func randomTreeOps(r *rand.Rand, n, ops int) []byte {
	data := []byte{byte(n - 1)}
	set := func(dense bool) {
		h := byte(r.Intn(2)) | byte(r.Intn(4))<<1
		if dense {
			h |= 16
		}
		data = append(data, h)
		if h&1 != 0 {
			data = append(data, byte(r.Intn(256)))
		}
		for i := (h >> 1) & 7; i > 0; i-- {
			data = append(data, byte(r.Intn(n)))
		}
	}
	for i := 0; i < ops; i++ {
		op := r.Intn(7)
		data = append(data, byte(op))
		switch op {
		case 0:
			set(false)
			data = append(data, byte(r.Intn(n)))
		case 1:
			set(false)
			set(r.Intn(4) == 0)
		case 2:
			set(false)
			set(r.Intn(2) == 0)
		case 3:
			set(r.Intn(4) != 0)
		case 4:
			set(false)
		case 6:
			data = append(data, byte(r.Intn(5)))
		}
	}
	return data
}

// TestQuickTreeMatchesBruteForce runs random op streams against the
// reference, on one-word universes (3–10 attributes) and on universes
// that span two or three mask words (65–130).
func TestQuickTreeMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(8)
		if trial%2 == 1 {
			n = 65 + r.Intn(66)
		}
		data := randomTreeOps(r, n, 120)
		if err := checkTreeOps(data); err != nil {
			t.Fatalf("trial %d (%d attributes): %v", trial, n, err)
		}
	}
}
