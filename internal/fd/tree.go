package fd

import "normalize/internal/bitset"

// Tree is a prefix tree over FD left-hand sides with right-hand-side
// attribute bitmaps at every node: the node reached by the (ascending)
// attribute path X carries the set of attributes A for which X → A is
// stored. The tree supports the generalization and specialization
// queries that drive HyFD-style induction: "is there a stored FD whose
// Lhs is a subset of this set?", "collect/remove all such FDs", and
// minimal insertion.
type Tree struct {
	numAttrs int
	root     *treeNode
}

type treeNode struct {
	rhs      *bitset.Set // FDs ending at this node
	children []*treeNode // dense, indexed by attribute
}

// NewTree returns an empty FD tree over numAttrs attributes.
func NewTree(numAttrs int) *Tree {
	return &Tree{numAttrs: numAttrs, root: newTreeNode(numAttrs)}
}

func newTreeNode(numAttrs int) *treeNode {
	return &treeNode{rhs: bitset.New(numAttrs), children: make([]*treeNode, numAttrs)}
}

// NumAttrs returns the universe size.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// Add stores the FD lhs → rhsAttr, without minimality checks.
func (t *Tree) Add(lhs *bitset.Set, rhsAttr int) {
	n := t.root
	lhs.ForEach(func(e int) bool {
		if n.children[e] == nil {
			n.children[e] = newTreeNode(t.numAttrs)
		}
		n = n.children[e]
		return true
	})
	n.rhs.Add(rhsAttr)
}

// AddSet stores lhs → a for every a in rhs.
func (t *Tree) AddSet(lhs, rhs *bitset.Set) {
	n := t.root
	lhs.ForEach(func(e int) bool {
		if n.children[e] == nil {
			n.children[e] = newTreeNode(t.numAttrs)
		}
		n = n.children[e]
		return true
	})
	n.rhs.UnionWith(rhs)
}

// Contains reports whether exactly lhs → rhsAttr is stored.
func (t *Tree) Contains(lhs *bitset.Set, rhsAttr int) bool {
	n := t.root
	ok := true
	lhs.ForEach(func(e int) bool {
		if n.children[e] == nil {
			ok = false
			return false
		}
		n = n.children[e]
		return true
	})
	return ok && n.rhs.Contains(rhsAttr)
}

// ContainsGeneralization reports whether some stored FD X → rhsAttr has
// X ⊆ lhs (including X = lhs).
func (t *Tree) ContainsGeneralization(lhs *bitset.Set, rhsAttr int) bool {
	return containsGen(t.root, lhs, -1, rhsAttr)
}

func containsGen(n *treeNode, lhs *bitset.Set, after, rhsAttr int) bool {
	if n.rhs.Contains(rhsAttr) {
		return true
	}
	for e := lhs.NextAfter(after); e >= 0; e = lhs.NextAfter(e) {
		if c := n.children[e]; c != nil && containsGen(c, lhs, e, rhsAttr) {
			return true
		}
	}
	return false
}

// CollectGeneralizations returns the Lhs of every stored FD X → rhsAttr
// with X ⊆ lhs.
func (t *Tree) CollectGeneralizations(lhs *bitset.Set, rhsAttr int) []*bitset.Set {
	var out []*bitset.Set
	collectGen(t.root, lhs, -1, rhsAttr, make([]int, 0, 16), &out, t.numAttrs)
	return out
}

func collectGen(n *treeNode, lhs *bitset.Set, after, rhsAttr int, prefix []int, out *[]*bitset.Set, numAttrs int) {
	if n.rhs.Contains(rhsAttr) {
		*out = append(*out, bitset.Of(numAttrs, prefix...))
	}
	for e := lhs.NextAfter(after); e >= 0; e = lhs.NextAfter(e) {
		if c := n.children[e]; c != nil {
			collectGen(c, lhs, e, rhsAttr, append(prefix, e), out, numAttrs)
		}
	}
}

// ViolatedBy returns every stored FD that a record pair with the given
// agree set refutes: all (lhs, badRhs) with lhs ⊆ agree and
// badRhs = rhs \ agree non-empty. One tree walk serves all RHS
// attributes at once, which is what makes HyFD-style induction cheap.
func (t *Tree) ViolatedBy(agree *bitset.Set) []FD {
	var out []FD
	t.violatedBy(t.root, agree, -1, make([]int, 0, 16), &out)
	return out
}

func (t *Tree) violatedBy(n *treeNode, agree *bitset.Set, after int, prefix []int, out *[]FD) {
	// Test before building the difference: most visited nodes are not
	// violated, and the subset test allocates nothing.
	if !n.rhs.IsSubsetOf(agree) {
		*out = append(*out, FD{Lhs: bitset.Of(t.numAttrs, prefix...), Rhs: n.rhs.Difference(agree)})
	}
	for e := agree.NextAfter(after); e >= 0; e = agree.NextAfter(e) {
		if c := n.children[e]; c != nil {
			t.violatedBy(c, agree, e, append(prefix, e), out)
		}
	}
}

// RemoveRhs deletes lhs → a for every a in rhs with a single path walk.
func (t *Tree) RemoveRhs(lhs *bitset.Set, rhs *bitset.Set) {
	n := t.root
	ok := true
	lhs.ForEach(func(e int) bool {
		if n.children[e] == nil {
			ok = false
			return false
		}
		n = n.children[e]
		return true
	})
	if ok {
		n.rhs.DifferenceWith(rhs)
	}
}

// Remove deletes the FD lhs → rhsAttr if stored. Empty nodes are not
// physically pruned; the tree stays correct regardless.
func (t *Tree) Remove(lhs *bitset.Set, rhsAttr int) {
	n := t.root
	ok := true
	lhs.ForEach(func(e int) bool {
		if n.children[e] == nil {
			ok = false
			return false
		}
		n = n.children[e]
		return true
	})
	if ok {
		n.rhs.Remove(rhsAttr)
	}
}

// AddMinimal inserts lhs → rhsAttr only if no generalization is stored,
// and removes all stored specializations (FDs Y → rhsAttr with
// lhs ⊂ Y). It reports whether the FD was inserted. Maintaining this
// invariant on every insert keeps the tree a minimal cover.
func (t *Tree) AddMinimal(lhs *bitset.Set, rhsAttr int) bool {
	if t.ContainsGeneralization(lhs, rhsAttr) {
		return false
	}
	t.removeSpecializations(t.root, -1, lhs, lhs.First(), rhsAttr)
	t.Add(lhs, rhsAttr)
	return true
}

// removeSpecializations clears rhsAttr from every node whose ascending
// attribute path is a superset of lhs. nextLhs is the smallest lhs
// attribute not yet seen on the path (-1 when all are matched). Callers
// guarantee lhs → rhsAttr itself is absent (no generalization exists),
// so only proper specializations are removed.
func (t *Tree) removeSpecializations(n *treeNode, after int, lhs *bitset.Set, nextLhs, rhsAttr int) {
	if nextLhs < 0 && n.rhs.Contains(rhsAttr) {
		n.rhs.Remove(rhsAttr)
	}
	for e := after + 1; e < t.numAttrs; e++ {
		// Paths ascend, so once e passes the next required lhs
		// attribute, no deeper path can contain lhs anymore.
		if nextLhs >= 0 && e > nextLhs {
			return
		}
		c := n.children[e]
		if c == nil {
			continue
		}
		nl := nextLhs
		if e == nextLhs {
			nl = lhs.NextAfter(e)
		}
		t.removeSpecializations(c, e, lhs, nl, rhsAttr)
	}
}

// ToSet extracts all stored FDs as an aggregated Set.
func (t *Tree) ToSet() *Set {
	s := NewSet(t.numAttrs)
	t.walk(t.root, make([]int, 0, 16), func(path []int, rhs *bitset.Set) {
		lhs := bitset.Of(t.numAttrs, path...)
		s.FDs = append(s.FDs, &FD{Lhs: lhs, Rhs: rhs.Clone()})
	})
	return s
}

// Count returns the number of stored single-RHS FDs.
func (t *Tree) Count() int {
	n := 0
	t.walk(t.root, make([]int, 0, 16), func(_ []int, rhs *bitset.Set) {
		n += rhs.Cardinality()
	})
	return n
}

// Level calls f with every stored FD whose Lhs has exactly size
// attributes. Used by the level-wise HyFD validation.
func (t *Tree) Level(size int, f func(lhs *bitset.Set, rhs *bitset.Set)) {
	t.walk(t.root, make([]int, 0, 16), func(path []int, rhs *bitset.Set) {
		if len(path) == size {
			f(bitset.Of(t.numAttrs, path...), rhs.Clone())
		}
	})
}

// MaxLevel returns the largest Lhs size of any stored FD, or -1 when
// the tree is empty.
func (t *Tree) MaxLevel() int {
	max := -1
	t.walk(t.root, make([]int, 0, 16), func(path []int, _ *bitset.Set) {
		if len(path) > max {
			max = len(path)
		}
	})
	return max
}

func (t *Tree) walk(n *treeNode, path []int, f func(path []int, rhs *bitset.Set)) {
	if !n.rhs.IsEmpty() {
		f(path, n.rhs)
	}
	for e, c := range n.children {
		if c != nil {
			t.walk(c, append(path, e), f)
		}
	}
}
