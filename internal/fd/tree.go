package fd

import (
	"math/bits"

	"normalize/internal/bitset"
)

// Tree is a prefix tree over FD left-hand sides with right-hand-side
// attribute bitmaps at every node: the node reached by the (ascending)
// attribute path X carries the set of attributes A for which X → A is
// stored. The tree answers the queries that drive HyFD-style
// induction — which stored FDs a record pair refutes, and which RHS
// attributes a set already has a stored generalization for — and reads
// off the minimal cover of what it stores.
//
// Every node keeps a child mask, one word per 64 attributes, so the
// walks intersect it with the query set a word at a time and visit only
// children the query contains.
type Tree struct {
	numAttrs int
	root     *treeNode
	// levels[k] counts the nodes at depth k whose RHS is non-empty, so
	// MaxLevel and an empty Level need no walk.
	levels []int
}

type treeNode struct {
	rhs      *bitset.Set // FDs ending at this node
	mask     []uint64    // bit e%64 of mask[e/64] is set iff children[e] != nil
	children []*treeNode // dense, indexed by attribute; nil until the first child
}

// NewTree returns an empty FD tree over numAttrs attributes.
func NewTree(numAttrs int) *Tree {
	return &Tree{
		numAttrs: numAttrs,
		root:     &treeNode{rhs: bitset.New(numAttrs)},
		levels:   make([]int, numAttrs+1),
	}
}

// path returns the node of lhs, creating the missing nodes on the way.
func (t *Tree) path(lhs *bitset.Set) *treeNode {
	n := t.root
	for i, w := range lhs.Words() {
		for ; w != 0; w &= w - 1 {
			e := i*64 + bits.TrailingZeros64(w)
			if n.children == nil {
				n.children = make([]*treeNode, t.numAttrs)
				n.mask = make([]uint64, (t.numAttrs+63)/64)
			}
			if n.children[e] == nil {
				n.children[e] = &treeNode{rhs: bitset.New(t.numAttrs)}
				n.mask[i] |= 1 << uint(e%64)
			}
			n = n.children[e]
		}
	}
	return n
}

// find returns the node of lhs, or nil when the tree has no such path.
func (t *Tree) find(lhs *bitset.Set) *treeNode {
	n := t.root
	for i, w := range lhs.Words() {
		for ; w != 0; w &= w - 1 {
			if n.children == nil {
				return nil
			}
			if n = n.children[i*64+bits.TrailingZeros64(w)]; n == nil {
				return nil
			}
		}
	}
	return n
}

// Add stores the FD lhs → rhsAttr, without minimality checks.
func (t *Tree) Add(lhs *bitset.Set, rhsAttr int) {
	n := t.path(lhs)
	if n.rhs.IsEmpty() {
		t.levels[lhs.Cardinality()]++
	}
	n.rhs.Add(rhsAttr)
}

// AddSet stores lhs → a for every a in rhs.
func (t *Tree) AddSet(lhs, rhs *bitset.Set) {
	n := t.path(lhs)
	if n.rhs.IsEmpty() && !rhs.IsEmpty() {
		t.levels[lhs.Cardinality()]++
	}
	n.rhs.UnionWith(rhs)
}

// RemoveRhs deletes lhs → a for every a in rhs with a single path walk.
// Emptied nodes stay in place; every query skips them.
func (t *Tree) RemoveRhs(lhs *bitset.Set, rhs *bitset.Set) {
	n := t.find(lhs)
	if n == nil || n.rhs.IsEmpty() {
		return
	}
	if n.rhs.DifferenceWith(rhs).IsEmpty() {
		t.levels[lhs.Cardinality()]--
	}
}

// ViolatedBy returns every stored FD that a record pair with the given
// agree set refutes: all (lhs, badRhs) with lhs ⊆ agree and
// badRhs = rhs \ agree non-empty, in depth-first order. One tree walk
// serves all RHS attributes at once, which is what makes HyFD-style
// induction cheap.
func (t *Tree) ViolatedBy(agree *bitset.Set) []FD {
	var out []FD
	t.violatedBy(t.root, agree, make([]int, 0, 16), &out)
	return out
}

func (t *Tree) violatedBy(n *treeNode, agree *bitset.Set, path []int, out *[]FD) {
	// Test before building the difference: most visited nodes are not
	// violated, and the subset test allocates nothing.
	if !n.rhs.IsSubsetOf(agree) {
		*out = append(*out, FD{Lhs: bitset.Of(t.numAttrs, path...), Rhs: n.rhs.Difference(agree)})
	}
	words := agree.Words()
	for i, m := range n.mask {
		for w := m & words[i]; w != 0; w &= w - 1 {
			e := i*64 + bits.TrailingZeros64(w)
			t.violatedBy(n.children[e], agree, append(path, e), out)
		}
	}
}

// GeneralizedRhs sets dst to the RHS attributes a for which some stored
// FD X → a has X ⊆ lhs (including X = lhs), and returns dst: one walk
// answers the generalization question for every RHS attribute.
func (t *Tree) GeneralizedRhs(lhs, dst *bitset.Set) *bitset.Set {
	dst.DifferenceWith(dst) // clear
	generalized(t.root, lhs.Words(), dst, nil)
	return dst
}

// generalized adds to dst the RHS of every node below n whose path is a
// subset of lhs, except skip.
func generalized(n *treeNode, lhs []uint64, dst *bitset.Set, skip *treeNode) {
	if n != skip {
		dst.UnionWith(n.rhs)
	}
	for i, m := range n.mask {
		for w := m & lhs[i]; w != 0; w &= w - 1 {
			generalized(n.children[i*64+bits.TrailingZeros64(w)], lhs, dst, skip)
		}
	}
}

// MinimalCover returns the stored FDs X → a for which no stored FD
// Y → a has Y ⊊ X, one FD per left-hand side, in depth-first order.
// When the tree holds a cover of the valid FDs — every valid FD has a
// stored generalization — and stores only valid FDs, this is exactly
// the minimal cover.
func (t *Tree) MinimalCover() *Set {
	s := NewSet(t.numAttrs)
	t.minimalCover(t.root, bitset.New(t.numAttrs), bitset.New(t.numAttrs), s)
	return s
}

func (t *Tree) minimalCover(n *treeNode, lhs, gen *bitset.Set, s *Set) {
	if !n.rhs.IsEmpty() {
		gen.DifferenceWith(gen) // clear
		generalized(t.root, lhs.Words(), gen, n)
		if !n.rhs.IsSubsetOf(gen) {
			s.FDs = append(s.FDs, &FD{Lhs: lhs.Clone(), Rhs: n.rhs.Difference(gen)})
		}
	}
	for i, m := range n.mask {
		for w := m; w != 0; w &= w - 1 {
			e := i*64 + bits.TrailingZeros64(w)
			lhs.Add(e)
			t.minimalCover(n.children[e], lhs, gen, s)
			lhs.Remove(e)
		}
	}
}

// Level calls f with every stored FD whose Lhs has exactly size
// attributes (0 ≤ size ≤ the universe size), aggregated per Lhs, in
// depth-first order. The sets are the caller's own. Used by the
// level-wise HyFD validation.
func (t *Tree) Level(size int, f func(lhs *bitset.Set, rhs *bitset.Set)) {
	if t.levels[size] == 0 {
		return
	}
	t.level(t.root, size, make([]int, 0, size), f)
}

func (t *Tree) level(n *treeNode, size int, path []int, f func(lhs *bitset.Set, rhs *bitset.Set)) {
	if len(path) == size {
		if !n.rhs.IsEmpty() {
			f(bitset.Of(t.numAttrs, path...), n.rhs.Clone())
		}
		return
	}
	for i, m := range n.mask {
		for w := m; w != 0; w &= w - 1 {
			e := i*64 + bits.TrailingZeros64(w)
			t.level(n.children[e], size, append(path, e), f)
		}
	}
}

// MaxLevel returns the largest Lhs size of any stored FD, or -1 when
// the tree is empty.
func (t *Tree) MaxLevel() int {
	for k := len(t.levels) - 1; k >= 0; k-- {
		if t.levels[k] > 0 {
			return k
		}
	}
	return -1
}
