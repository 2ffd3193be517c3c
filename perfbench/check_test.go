package main

import (
	"bytes"
	"context"
	"testing"

	"normalize"
	"normalize/internal/discovery/tane"
	"normalize/internal/fd"
)

// smallOrders normalizes a small orders input, far quicker to check
// than a workload's, and returns it with its input relation.
func smallOrders(t *testing.T, opts normalize.Options) (*normalize.Relation, *normalize.Result, error) {
	t.Helper()
	rel, _, err := normalize.IngestCSV(context.Background(), "orders", bytes.NewReader(ordersCSV(7, 3000)), normalize.IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxLhs = maxLHS
	res, err := normalize.Normalize(rel, opts)
	return rel, res, err
}

// taneCover is the reference cover the check compares against.
func taneCover(rel *normalize.Relation) *fd.Set {
	return tane.Discover(rel, tane.Options{MaxLhs: maxLHS})
}

// corrupt returns a copy of res whose table name has its rows replaced.
func corrupt(t *testing.T, res *normalize.Result, name string, rows func([][]string) [][]string) *normalize.Result {
	t.Helper()
	out := *res
	out.Tables = make([]*normalize.Table, len(res.Tables))
	found := false
	for i, tb := range res.Tables {
		out.Tables[i] = tb
		if tb.Name != name {
			continue
		}
		data, err := normalize.NewRelation(tb.Data.Name, tb.Data.Attrs, rows(tb.Data.Rows()))
		if err != nil {
			t.Fatal(err)
		}
		c := *tb
		c.Data = data
		out.Tables[i] = &c
		found = true
	}
	if !found {
		t.Fatalf("no table %s", name)
	}
	return &out
}

// dimension returns a table another table references.
func dimension(t *testing.T, res *normalize.Result) string {
	t.Helper()
	for _, tb := range res.Tables {
		if len(tb.ForeignKeys) > 0 {
			return tb.ForeignKeys[0].RefTable
		}
	}
	t.Fatal("schema has no foreign key")
	return ""
}

func TestCheckAcceptsCorrectResult(t *testing.T) {
	rel, res, err := smallOrders(t, normalize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) < 2 {
		t.Fatalf("small orders input gave %d tables; the corruption tests need a decomposition", len(res.Tables))
	}
	if err := checkResult(rel, res, taneCover(rel), maxLHS); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRejectsDroppedDimensionRow(t *testing.T) {
	rel, res, err := smallOrders(t, normalize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := corrupt(t, res, dimension(t, res), func(rows [][]string) [][]string { return rows[1:] })
	if err := checkResult(rel, bad, taneCover(rel), maxLHS); err == nil {
		t.Fatal("check accepted a result missing a referenced dimension row")
	} else {
		t.Log(err)
	}
}

func TestCheckRejectsMissingFD(t *testing.T) {
	rel, res, err := smallOrders(t, normalize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *res
	bad.Cover = res.Cover.Clone()
	bad.Cover.FDs = bad.Cover.FDs[1:]
	if err := checkResult(rel, &bad, taneCover(rel), maxLHS); err == nil {
		t.Fatal("check accepted a cover missing an FD")
	} else {
		t.Log(err)
	}
}

func TestCheckRejectsDuplicatePrimaryKey(t *testing.T) {
	rel, res, err := smallOrders(t, normalize.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A repeated row keeps the rebuilt row set intact, so only the key
	// check can catch it.
	bad := corrupt(t, res, dimension(t, res), func(rows [][]string) [][]string {
		return append(append([][]string(nil), rows...), rows[0])
	})
	if err := checkKeys(bad.Tables); err == nil {
		t.Fatal("key check accepted a duplicated primary-key value")
	} else {
		t.Log(err)
	}
	if err := checkResult(rel, bad, taneCover(rel), maxLHS); err == nil {
		t.Fatal("check accepted a duplicated primary-key value")
	}
}

func TestCheckRejectsDegradedGovernedResult(t *testing.T) {
	// A ceiling far below the input's footprint: the run degrades (or
	// stops early) and still hands back a lossless result.
	rel, res, err := smallOrders(t, normalize.Options{
		Budget:   normalize.Budget{MaxMemoryBytes: 256 << 10},
		SpillDir: t.TempDir(),
	})
	if res == nil {
		t.Fatalf("governed run returned no result: %v", err)
	}
	if len(res.Degradations) == 0 {
		t.Fatalf("governed run did not degrade (err %v); lower the test ceiling", err)
	}
	if err := checkResult(rel, res, taneCover(rel), maxLHS); err == nil {
		t.Fatal("check accepted a degraded result")
	} else {
		t.Log(err)
	}
}

// TestCheckRejectsMangledIngest hands the pipeline a relation in which
// one value was merged into another's, as a faulty ingest could, and
// checks the result against the CSV the operation was given. The merged
// value sits in a column no FD depends on, so schema and cover are
// unchanged: a check that trusted the ingested relation would pass.
func TestCheckRejectsMangledIngest(t *testing.T) {
	data := ordersCSV(7, 3000)
	rel, err := normalize.ReadCSV("orders", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	rows := rel.Rows()
	c := rel.AttrIndex("quantity")
	j := 1
	for rows[j][c] == rows[0][c] {
		j++
	}
	rows[j][c] = rows[0][c]
	mangled, err := normalize.NewRelation(rel.Name, rel.Attrs, rows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := normalize.Normalize(mangled, normalize.Options{MaxLhs: maxLHS})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(mangled, res, taneCover(mangled), maxLHS); err != nil {
		t.Fatalf("the mangled relation's own result fails the check (%v); the test needs a corruption only the input shows", err)
	}
	in := &instance{w: &workload{name: "orders"}}
	x := &input{name: rel.Name, csv: data}
	out := &opResult{res: res, ddl: normalize.DDL(res.Tables)}
	if err := in.checkWorkload(context.Background(), x, out); err == nil {
		t.Fatal("check accepted a result built from a mangled ingest")
	} else {
		t.Log(err)
	}
}
