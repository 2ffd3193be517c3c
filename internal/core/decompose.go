package core

import (
	"context"
	"fmt"

	"normalize/internal/bitset"
	"normalize/internal/fd"
)

// Decompose splits table t by the violating FD X → Y (universal space)
// into R1 = R \ Y (which keeps X and receives the foreign key X) and
// R2 = X ∪ Y (which receives the primary key X). R2 is materialized
// from t.Data with set semantics. R1 is the plain projection, which
// shares t.Data's code columns: t.Data has no duplicate rows, and R1
// keeps X, which determines Y, so two rows equal on R1 are equal on all
// of R and the projection has no duplicates to drop. This relies on
// X → Y holding on t.Data (see Options.Discover). The FD cover is
// projected onto both parts per Lemma 3. The parent's primary key, if
// any, stays valid in R1 because violation detection removed its
// attributes from every violating RHS.
func Decompose(t *Table, v *fd.FD, usedNames map[string]bool) (r1, r2 *Table) {
	r1, r2, _ = DecomposeContext(context.Background(), t, v, usedNames)
	return r1, r2
}

// DecomposeContext is Decompose with cancellation: it checks ctx before
// materializing each projection (the expensive halves of a split) and
// returns ctx.Err() when the context has ended.
func DecomposeContext(ctx context.Context, t *Table, v *fd.FD, usedNames map[string]bool) (r1, r2 *Table, err error) {
	r1Attrs := t.Attrs.Difference(v.Rhs)
	r2Attrs := v.Lhs.Union(v.Rhs)

	r2Name := uniqueName(tableName(t.Name, t.AttrNames(v.Lhs)), usedNames)

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r2 = &Table{
		Name:        r2Name,
		Attrs:       r2Attrs,
		Data:        t.Data.ProjectDedupSet(r2Name, t.localSet(r2Attrs)),
		FDs:         projectFDs(t.FDs, r2Attrs),
		PrimaryKey:  v.Lhs.Clone(),
		NullAttrs:   t.NullAttrs,
		universe:    t.universe,
		sourceAttrs: t.sourceAttrs,
	}

	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r1 = &Table{
		Name:        t.Name,
		Attrs:       r1Attrs,
		Data:        t.Data.ProjectSet(t.Name, t.localSet(r1Attrs)),
		FDs:         projectFDs(t.FDs, r1Attrs),
		PrimaryKey:  clonePK(t.PrimaryKey),
		NullAttrs:   t.NullAttrs,
		universe:    t.universe,
		sourceAttrs: t.sourceAttrs,
	}

	// Distribute the parent's foreign keys: an FK intersecting the
	// removed attributes Y must live in R2 (violation detection
	// guaranteed it fits); all others stay in R1.
	for _, fk := range t.ForeignKeys {
		if fk.Attrs.Intersects(v.Rhs) {
			r2.ForeignKeys = append(r2.ForeignKeys, fk)
		} else {
			r1.ForeignKeys = append(r1.ForeignKeys, fk)
		}
	}
	// R1 references R2 via the new foreign key X.
	r1.ForeignKeys = append(r1.ForeignKeys, ForeignKey{Attrs: v.Lhs.Clone(), RefTable: r2Name})

	return r1, r2, nil
}

func clonePK(pk *bitset.Set) *bitset.Set {
	if pk == nil {
		return nil
	}
	return pk.Clone()
}

// uniqueName disambiguates table names across the whole schema.
func uniqueName(base string, used map[string]bool) string {
	name := base
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	used[name] = true
	return name
}
