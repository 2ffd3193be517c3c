// Package scoring implements the constraint-selection features of
// Section 7 of the paper: quality scores that rank key candidates
// (Section 7.1) and violating FDs (Section 7.2) by their likelihood of
// being semantically meaningful constraints rather than coincidences of
// the instance. All scores are in (0, 1]; the final score of a
// candidate is the mean of its feature scores, so a "perfect" candidate
// scores 1.
//
// The paper estimates the duplication feature's distinct-value counts
// with a Bloom filter, because exact counting looked too expensive
// inside the ranking loop. Here FD scores are computed from exact
// facts instead (FDScoreFromFacts): the pipeline's score index measures
// every distinct count it needs from position list indices, and the
// delta plane maintains them incrementally.
//
// All attribute sets passed to this package are in the local index
// space of the given relation instance (position i = i-th column).
package scoring

import (
	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

// KeyScore rates a key candidate, combining the length, value, and
// position features of Section 7.1. A single leading attribute with
// values of at most 8 characters scores 1.
func KeyScore(rel *relation.Relation, key *bitset.Set) float64 {
	return (keyLengthScore(key) +
		valueScore(rel, key) +
		keyPositionScore(rel, key)) / 3
}

// keyLengthScore: 1/|X| — schema designers prefer short keys.
func keyLengthScore(key *bitset.Set) float64 {
	c := key.Cardinality()
	if c == 0 {
		return 1
	}
	return 1 / float64(c)
}

// valueScore: 1/max(1, |max(X)|-7) — primary-key values are typically
// short; max(X) concatenates the values of multi-attribute candidates.
func valueScore(rel *relation.Relation, attrs *bitset.Set) float64 {
	return valueScoreLen(rel.MaxValueLen(attrs))
}

// valueScoreLen is valueScore on a precomputed max concatenated length.
func valueScoreLen(longest int) float64 {
	d := longest - 7
	if d < 1 {
		d = 1
	}
	return 1 / float64(d)
}

// keyPositionScore: ½(1/(|left(X)|+1) + 1/(|between(X)|+1)) — key
// attributes tend to be leftmost and adjacent.
func keyPositionScore(rel *relation.Relation, key *bitset.Set) float64 {
	if key.IsEmpty() {
		return 1
	}
	left := key.First()
	return 0.5 * (1/float64(left+1) + 1/float64(between(key)+1))
}

// between counts the non-member attributes between the first and last
// member of the set.
func between(s *bitset.Set) int {
	first := s.First()
	if first < 0 {
		return 0
	}
	last := first
	for e := first; e >= 0; e = s.NextAfter(e) {
		last = e
	}
	return (last - first + 1) - s.Cardinality()
}

// fdLengthScore: ½(1/|X| + |Y|/(|R|-2)) — short LHS (it becomes a key)
// and long RHS (large split-off relations raise confidence and remove
// more redundancy). The RHS can be at most |R|-2 attributes long, which
// normalizes its weight.
func fdLengthScore(numAttrs int, f *fd.FD) float64 {
	lhsPart := 1.0
	if c := f.Lhs.Cardinality(); c > 0 {
		lhsPart = 1 / float64(c)
	}
	maxRhs := numAttrs - 2
	rhsPart := 1.0
	if maxRhs > 0 {
		rhsPart = float64(f.Rhs.Cardinality()) / float64(maxRhs)
		if rhsPart > 1 {
			rhsPart = 1
		}
	}
	return 0.5 * (lhsPart + rhsPart)
}

// fdPositionScore: ½(1/(|between(X)|+1) + 1/(|between(Y)|+1)) —
// attributes of a semantically coherent FD sit close together; the gap
// between LHS and RHS is deliberately ignored (a weak signal, per the
// paper).
func fdPositionScore(f *fd.FD) float64 {
	return 0.5 * (1/float64(between(f.Lhs)+1) + 1/float64(between(f.Rhs)+1))
}

// FDFacts carries the data-dependent inputs of an FD's score as plain
// numbers, so callers that already know them — the core pipeline's
// exact score index computes distinct counts from position list indices
// and the delta plane maintains them incrementally — can score an FD
// without a single pass over the rows. Every field is a property of the
// relation instance the FD violates:
//
//	Rows        — row count of the instance,
//	NumAttrs    — attribute count of the instance,
//	LhsMaxLen   — max over rows of the summed LHS value lengths
//	              (relation.MaxValueLen semantics; 0 for an empty LHS),
//	LhsDistinct — exact distinct LHS-value combinations (ignored for an
//	              empty LHS),
//	RhsDistinct — exact distinct RHS-value combinations.
type FDFacts struct {
	Rows        int
	NumAttrs    int
	LhsMaxLen   int
	LhsDistinct int
	RhsDistinct int
}

// FDScoreFromFacts rates a violating FD f (local index space) as a
// foreign-key constraint, combining the length, value, position, and
// duplication features of Section 7.2. The data-dependent inputs — max
// value length and distinct counts — are taken from facts instead of
// being measured on the rows.
func FDScoreFromFacts(f *fd.FD, facts FDFacts) float64 {
	return (fdLengthScore(facts.NumAttrs, f) +
		valueScoreLen(facts.LhsMaxLen) +
		fdPositionScore(f) +
		duplicationScoreFacts(f, facts)) / 4
}

// duplicationScoreFacts: ½(2 - uniques(X)/values(X) - uniques(Y)/values(Y))
// — the more duplication on both sides, the more redundancy the split
// removes, and the likelier the FD is semantically true.
func duplicationScoreFacts(f *fd.FD, facts FDFacts) float64 {
	rows := float64(facts.Rows)
	if rows == 0 {
		return 0
	}
	ratio := func(attrs *bitset.Set, distinct int) float64 {
		if attrs.IsEmpty() {
			return 1 / rows // a single (empty) combination
		}
		r := float64(distinct) / rows
		if r > 1 {
			r = 1
		}
		return r
	}
	return 0.5 * (2 - ratio(f.Lhs, facts.LhsDistinct) - ratio(f.Rhs, facts.RhsDistinct))
}
