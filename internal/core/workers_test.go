package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"normalize/internal/relation"
)

func workersRandomRelation(r *rand.Rand, attrs, rows, card int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			row[j] = fmt.Sprintf("v%d", r.Intn(card))
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

// schemaSignature renders a result order-sensitively — table names,
// attribute sets, keys, foreign keys, and full instances — so two runs
// can be compared byte for byte.
func schemaSignature(res *Result) string {
	var b strings.Builder
	for _, t := range res.Tables {
		fmt.Fprintf(&b, "table %s attrs=%s pk=%v keys=%v\n", t.Name, t.Attrs, t.PrimaryKey, t.Keys)
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(&b, "  fk %s -> %s\n", fk.Attrs, fk.RefTable)
		}
		for _, row := range t.Data.Rows() {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}
	return b.String()
}

// TestNormalizeWorkersDifferential is the pipeline determinism
// contract: every worker count must produce the byte-identical
// normalized schema — same tables in the same order, same keys, same
// materialized rows. Run under -race this also exercises the
// validation worker pools.
func TestNormalizeWorkersDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	inputs := []*relation.Relation{address()}
	for trial := 0; trial < 4; trial++ {
		inputs = append(inputs, workersRandomRelation(r, 5+r.Intn(3), 30+r.Intn(80), 2+r.Intn(3)))
	}
	for i, rel := range inputs {
		serial, err := NormalizeRelationContext(context.Background(), rel, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base := schemaSignature(serial)
		for _, w := range []int{2, 4} {
			res, err := NormalizeRelationContext(context.Background(), rel, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := schemaSignature(res); got != base {
				t.Fatalf("input %d: workers=%d schema differs from workers=1:\n%s\nvs\n%s",
					i, w, got, base)
			}
		}
	}
}
