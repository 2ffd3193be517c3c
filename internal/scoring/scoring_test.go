package scoring

import (
	"fmt"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

func address() *relation.Relation {
	return relation.MustNew("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
}

// measuredFacts measures f's score facts on rel's rows, the oracle the
// pipeline's score index is held to.
func measuredFacts(rel *relation.Relation, f *fd.FD) FDFacts {
	return FDFacts{
		Rows:        rel.NumRows(),
		NumAttrs:    rel.NumAttrs(),
		LhsMaxLen:   rel.MaxValueLen(f.Lhs),
		LhsDistinct: rel.DistinctCount(f.Lhs),
		RhsDistinct: rel.DistinctCount(f.Rhs),
	}
}

func TestPerfectKeyScoresOne(t *testing.T) {
	// One attribute, position 0, values ≤ 8 chars.
	rel := relation.MustNew("r", []string{"id", "data"},
		[][]string{{"1", "xxxxxxxxxxxxxxx"}, {"2", "yyyyyyyyyyyyyyy"}})
	if got := KeyScore(rel, bitset.Of(2, 0)); got != 1 {
		t.Errorf("perfect key score = %v, want 1", got)
	}
}

func TestKeyLengthPreference(t *testing.T) {
	rel := address()
	short := KeyScore(rel, bitset.Of(5, 0))
	long := KeyScore(rel, bitset.Of(5, 0, 1, 2))
	if short <= long {
		t.Errorf("short key %v must outscore long key %v", short, long)
	}
}

func TestKeyPositionPreference(t *testing.T) {
	// Same length and values, different positions.
	rel := relation.MustNew("r", []string{"a", "b", "c", "d"}, [][]string{
		{"1", "1", "1", "1"}, {"2", "2", "2", "2"},
	})
	left := KeyScore(rel, bitset.Of(4, 0))
	right := KeyScore(rel, bitset.Of(4, 3))
	if left <= right {
		t.Errorf("left key %v must outscore right key %v", left, right)
	}
	adjacent := KeyScore(rel, bitset.Of(4, 0, 1))
	spread := KeyScore(rel, bitset.Of(4, 0, 3))
	if adjacent <= spread {
		t.Errorf("adjacent key %v must outscore spread key %v", adjacent, spread)
	}
}

func TestValueLengthPenalty(t *testing.T) {
	rel := relation.MustNew("r", []string{"short", "long"}, [][]string{
		{"12345678", "this value is much longer than eight"},
	})
	s := KeyScore(rel, bitset.Of(2, 0))
	l := KeyScore(rel, bitset.Of(2, 1))
	if s <= l {
		t.Errorf("8-char key %v must outscore long-valued key %v", s, l)
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		set  *bitset.Set
		want int
	}{
		{bitset.Of(10, 3), 0},
		{bitset.Of(10, 3, 4), 0},
		{bitset.Of(10, 3, 5), 1},
		{bitset.Of(10, 0, 9), 8},
		{bitset.New(10), 0},
	}
	for _, c := range cases {
		if got := between(c.set); got != c.want {
			t.Errorf("between(%v) = %d, want %d", c.set, got, c.want)
		}
	}
}

func TestFDScorePostcodeBeatsCoincidence(t *testing.T) {
	rel := address()
	// Postcode → City,Mayor: short lhs, 2-attribute rhs, much
	// duplication — the semantically right split.
	good := &fd.FD{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)}
	// First → Mayor-like coincidence: long values, single rhs.
	poor := &fd.FD{Lhs: bitset.Of(5, 0), Rhs: bitset.Of(5, 4)}
	g := FDScoreFromFacts(good, measuredFacts(rel, good))
	p := FDScoreFromFacts(poor, measuredFacts(rel, poor))
	if g <= p {
		t.Errorf("good FD %.3f must outscore poor FD %.3f", g, p)
	}
}

func TestMoreDuplicatesScoreHigher(t *testing.T) {
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), fmt.Sprint(i % 5), fmt.Sprint(i % 5 * 2)}
	}
	rel := relation.MustNew("r", []string{"id", "grp", "dep"}, rows)
	dupFD := &fd.FD{Lhs: bitset.Of(3, 1), Rhs: bitset.Of(3, 2)}
	uniqFD := &fd.FD{Lhs: bitset.Of(3, 0), Rhs: bitset.Of(3, 2)}
	dup := duplicationScoreFacts(dupFD, measuredFacts(rel, dupFD))
	uniq := duplicationScoreFacts(uniqFD, measuredFacts(rel, uniqFD))
	if dup <= uniq {
		t.Errorf("duplicate-heavy FD %.3f must outscore unique FD %.3f", dup, uniq)
	}
}

func TestScoresInUnitInterval(t *testing.T) {
	rel := address()
	keys := []*bitset.Set{
		bitset.Of(5, 0), bitset.Of(5, 0, 1), bitset.Of(5, 2, 4), bitset.Full(5),
	}
	for _, k := range keys {
		if s := KeyScore(rel, k); s <= 0 || s > 1 {
			t.Errorf("KeyScore(%v) = %v outside (0,1]", k, s)
		}
	}
	fds := []*fd.FD{
		{Lhs: bitset.Of(5, 2), Rhs: bitset.Of(5, 3, 4)},
		{Lhs: bitset.Of(5, 0, 1), Rhs: bitset.Of(5, 2)},
		{Lhs: bitset.New(5), Rhs: bitset.Of(5, 1)},
	}
	for _, f := range fds {
		if s := FDScoreFromFacts(f, measuredFacts(rel, f)); s <= 0 || s > 1 {
			t.Errorf("FDScoreFromFacts(%v) = %v outside (0,1]", f, s)
		}
	}
}

func TestEmptyRelationScores(t *testing.T) {
	rel := relation.MustNew("r", []string{"a", "b"}, nil)
	f := &fd.FD{Lhs: bitset.Of(2, 0), Rhs: bitset.Of(2, 1)}
	facts := measuredFacts(rel, f)
	if s := duplicationScoreFacts(f, facts); s != 0 {
		t.Errorf("empty relation duplication = %v", s)
	}
	// Must not panic.
	KeyScore(rel, bitset.Of(2, 0))
	FDScoreFromFacts(f, facts)
}
