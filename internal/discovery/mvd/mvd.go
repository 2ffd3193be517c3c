// Package mvd implements multivalued-dependency (MVD) discovery for
// small relations. Section 6 of the paper notes that constructing 4NF
// "requires all multi-valued dependencies and, hence, an algorithm that
// discovers MVDs — the normalization algorithm, then, would work in the
// same manner"; this package provides that discovery and internal/core
// provides the matching 4NF decomposition.
//
// An MVD X ↠ Y (with Z = R \ X \ Y) holds iff within every group of
// rows agreeing on X, the projected (Y, Z) combinations form the full
// cross product of the group's Y-values and Z-values. Functional
// dependencies are the degenerate case with exactly one Y-value per
// group.
//
// Discovery enumerates the lattice exhaustively and is exponential in
// the attribute count — appropriate for the small, already
// FD-normalized relations 4NF refinement runs on, and guarded by
// Options.MaxAttrs.
package mvd

import (
	"context"
	"fmt"
	"strings"

	"normalize/internal/bitset"
	"normalize/internal/budget"
	"normalize/internal/relation"
)

// MVD is a multivalued dependency Lhs ↠ Rhs | Complement over a
// relation; Rhs and Complement partition the attributes outside Lhs.
type MVD struct {
	Lhs        *bitset.Set
	Rhs        *bitset.Set
	Complement *bitset.Set
}

// Format renders the MVD with attribute names.
func (m *MVD) Format(attrs []string) string {
	names := func(s *bitset.Set) string {
		parts := make([]string, 0, s.Cardinality())
		s.ForEach(func(e int) bool {
			parts = append(parts, attrs[e])
			return true
		})
		if len(parts) == 0 {
			return "∅"
		}
		return strings.Join(parts, ",")
	}
	return fmt.Sprintf("%s ->> %s | %s", names(m.Lhs), names(m.Rhs), names(m.Complement))
}

// Holds reports whether X ↠ Y holds in the encoded relation, with
// Z = R \ X \ Y. Y is implicitly reduced by X (reflexive parts do not
// affect validity).
func Holds(enc *relation.Encoded, n int, x, y *bitset.Set) bool {
	yEff := y.Difference(x)
	z := bitset.Full(n).DifferenceWith(x).DifferenceWith(yEff)
	groups := groupRows(enc, x)
	yCols, zCols := yEff.Elements(), z.Elements()
	for _, rows := range groups {
		ys := map[string]bool{}
		zs := map[string]bool{}
		pairs := map[string]bool{}
		for _, r := range rows {
			yk := rowKey(enc, r, yCols)
			zk := rowKey(enc, r, zCols)
			ys[yk] = true
			zs[zk] = true
			pairs[yk+"\x01"+zk] = true
		}
		if len(pairs) != len(ys)*len(zs) {
			return false
		}
	}
	return true
}

func groupRows(enc *relation.Encoded, x *bitset.Set) map[string][]int {
	cols := x.Elements()
	groups := make(map[string][]int)
	for r := 0; r < enc.NumRows; r++ {
		k := rowKey(enc, r, cols)
		groups[k] = append(groups[k], r)
	}
	return groups
}

func rowKey(enc *relation.Encoded, row int, cols []int) string {
	var b strings.Builder
	for _, c := range cols {
		v := enc.Columns[c][row]
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// Options configures discovery.
type Options struct {
	// MaxLhs bounds the LHS size (0 = unbounded).
	MaxLhs int
	// MaxAttrs guards against exponential blow-up; relations wider than
	// this are rejected (default 16).
	MaxAttrs int
	// Budget, when non-nil, charges discovered MVDs and per-LHS group
	// indexes against run-wide ceilings; a trip aborts discovery with a
	// *budget.Exceeded error.
	Budget *budget.Tracker
}

// Discover returns all non-trivial MVDs X ↠ Y | Z of the relation with
// |X| ≤ MaxLhs, where both Y and Z are non-empty and each {Y, Z}
// partition is reported once (Y holds the smallest attribute outside
// X), in ascending LHS-size order.
func Discover(rel *relation.Relation, opts Options) ([]*MVD, error) {
	return DiscoverContext(context.Background(), rel, opts)
}

// DiscoverContext is Discover with cancellation: the exhaustive lattice
// enumeration polls ctx per LHS and per bipartition batch and returns
// ctx.Err() promptly when the context ends.
func DiscoverContext(ctx context.Context, rel *relation.Relation, opts Options) ([]*MVD, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := rel.NumAttrs()
	maxAttrs := opts.MaxAttrs
	if maxAttrs == 0 {
		maxAttrs = 16
	}
	if n > maxAttrs {
		return nil, fmt.Errorf("mvd: relation %s has %d attributes, limit %d (exponential discovery)",
			rel.Name, n, maxAttrs)
	}
	maxLhs := opts.MaxLhs
	if maxLhs <= 0 || maxLhs > n {
		maxLhs = n
	}
	enc := rel.Encode()
	done := ctx.Done()
	var out []*MVD
	var tripped error
	forEachLhs(n, maxLhs, func(x *bitset.Set) bool {
		if canceled(done) {
			return false
		}
		// Each LHS materializes a row-group index of about one int per
		// row plus the bipartition sweep's scratch keys.
		if err := opts.Budget.Grow(8 * int64(enc.NumRows)); err != nil {
			tripped = err
			return false
		}
		mvds, ok := validPartitions(done, enc, n, x)
		if !ok {
			return false
		}
		if err := opts.Budget.AddFDs(int64(len(mvds))); err != nil {
			tripped = err
			return false
		}
		out = append(out, mvds...)
		return true
	})
	if tripped != nil {
		return nil, tripped
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// validPartitions enumerates the {Y, Z} bipartitions of R \ X and
// returns those forming valid MVDs; ok is false when the enumeration
// was abandoned because done fired.
func validPartitions(done <-chan struct{}, enc *relation.Encoded, n int, x *bitset.Set) (out []*MVD, ok bool) {
	rest := bitset.Full(n).DifferenceWith(x)
	restAttrs := rest.Elements()
	if len(restAttrs) < 2 {
		return nil, true // no non-trivial bipartition
	}
	anchor := restAttrs[0] // Y always holds the smallest outside attr
	free := restAttrs[1:]
	for mask := 0; mask < 1<<uint(len(free)); mask++ {
		// Each Holds check scans every row group; poll per bipartition
		// batch to keep cancellation within the latency contract.
		if mask&15 == 0 && canceled(done) {
			return nil, false
		}
		y := bitset.Of(n, anchor)
		for i, a := range free {
			if mask&(1<<uint(i)) != 0 {
				y.Add(a)
			}
		}
		z := rest.Difference(y)
		if z.IsEmpty() {
			continue
		}
		if Holds(enc, n, x, y) {
			out = append(out, &MVD{Lhs: x.Clone(), Rhs: y, Complement: z})
		}
	}
	return out, true
}

// forEachLhs enumerates attribute sets in ascending size order; the
// callback returns false to abort the enumeration.
func forEachLhs(n, maxSize int, f func(*bitset.Set) bool) {
	var rec func(start int, cur []int, want int) bool
	rec = func(start int, cur []int, want int) bool {
		if len(cur) == want {
			return f(bitset.Of(n, cur...))
		}
		for e := start; e < n; e++ {
			if !rec(e+1, append(cur, e), want) {
				return false
			}
		}
		return true
	}
	for size := 0; size <= maxSize; size++ {
		if !rec(0, make([]int, 0, size), size) {
			return
		}
	}
}

// canceled is the non-blocking poll of a context's done channel (a nil
// channel — context.Background — never reports cancellation).
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
