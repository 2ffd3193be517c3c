package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"normalize"
	"normalize/internal/core"
	"normalize/internal/discovery/tane"
	"normalize/internal/fd"
)

// checkResult verifies one operation's result against a reference
// relation, read from the operation's input apart from the ingest path
// the operation takes, and the FD cover a separate discovery found on
// it. Nothing in it depends on the seed: it checks the properties
// every correct schema has; of the pipeline it calls only the final
// normal-form test.
func checkResult(input *normalize.Relation, res *normalize.Result, cover *fd.Set, maxLhs int) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if len(res.Degradations) > 0 {
		return fmt.Errorf("result degraded: %s", normalize.FormatDegradations(res.Degradations))
	}
	if err := checkKeys(res.Tables); err != nil {
		return err
	}
	if err := checkLossless(input, res.Tables); err != nil {
		return err
	}
	if res.Cover == nil || !res.Cover.Equal(cover) {
		return fmt.Errorf("result's FD cover differs from the reference cover")
	}
	return checkNormalForm(res.Tables, maxLhs)
}

// checkKeys holds every table to its primary key — present, non-null
// and unique — and every foreign-key value to a row of the referenced
// table.
func checkKeys(tables []*normalize.Table) error {
	byName := make(map[string]*normalize.Table, len(tables))
	for _, t := range tables {
		byName[t.Name] = t
	}
	for _, t := range tables {
		if t.PrimaryKey == nil || t.PrimaryKey.IsEmpty() {
			return fmt.Errorf("table %s has no primary key", t.Name)
		}
		pk, err := columns(t.Data, t.AttrNames(t.PrimaryKey))
		if err != nil {
			return fmt.Errorf("table %s primary key: %w", t.Name, err)
		}
		seen := make(map[string]bool, t.Data.NumRows())
		for i := 0; i < t.Data.NumRows(); i++ {
			for _, c := range pk {
				if t.Data.Value(i, c) == "" {
					return fmt.Errorf("table %s row %d: null in primary key %v", t.Name, i, t.AttrNames(t.PrimaryKey))
				}
			}
			k := rowKey(t.Data, i, pk)
			if seen[k] {
				return fmt.Errorf("table %s row %d: duplicate primary key %v", t.Name, i, t.AttrNames(t.PrimaryKey))
			}
			seen[k] = true
		}
		for _, fk := range t.ForeignKeys {
			l, err := resolve(t, fk, byName)
			if err != nil {
				return err
			}
			for i := 0; i < t.Data.NumRows(); i++ {
				if _, ok := l.idx[rowKey(t.Data, i, l.local)]; !ok {
					return fmt.Errorf("table %s row %d: foreign key %v has no row in %s", t.Name, i, t.AttrNames(fk.Attrs), l.ref.Name)
				}
			}
		}
	}
	return nil
}

// checkLossless rebuilds the input along the foreign keys: from each
// row of the one unreferenced (root) table it follows every foreign key
// by a many-to-one hash lookup, recursively, and demands that the
// rebuilt rows are exactly the input's distinct rows. Unlike a natural
// join of all tables its cost is linear in the rows.
func checkLossless(input *normalize.Relation, tables []*normalize.Table) error {
	byName := make(map[string]*normalize.Table, len(tables))
	referenced := make(map[string]bool)
	for _, t := range tables {
		byName[t.Name] = t
		for _, fk := range t.ForeignKeys {
			referenced[fk.RefTable] = true
		}
	}
	var roots []*normalize.Table
	for _, t := range tables {
		if !referenced[t.Name] {
			roots = append(roots, t)
		}
	}
	if len(roots) != 1 {
		return fmt.Errorf("schema has %d unreferenced tables, want one root", len(roots))
	}

	// Per table: where each of its columns goes in an input row, and a
	// lookup per foreign key.
	pos := make(map[*normalize.Table][]int, len(tables))
	links := make(map[*normalize.Table][]link, len(tables))
	covered := make([]bool, input.NumAttrs())
	for _, t := range tables {
		p, err := columns(input, t.Data.Attrs)
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		pos[t] = p
		for _, c := range p {
			covered[c] = true
		}
		for _, fk := range t.ForeignKeys {
			l, err := resolve(t, fk, byName)
			if err != nil {
				return err
			}
			links[t] = append(links[t], l)
		}
	}
	for c, ok := range covered {
		if !ok {
			return fmt.Errorf("attribute %s is in no table", input.Attrs[c])
		}
	}

	want := make(map[string]bool, input.NumRows())
	all := make([]int, input.NumAttrs())
	for c := range all {
		all[c] = c
	}
	for i := 0; i < input.NumRows(); i++ {
		want[rowKey(input, i, all)] = true
	}

	row := make([]string, input.NumAttrs())
	filled := make([]bool, input.NumAttrs())
	var fill func(t *normalize.Table, r, depth int) error
	fill = func(t *normalize.Table, r, depth int) error {
		if depth > len(tables) {
			return fmt.Errorf("foreign keys form a cycle through %s", t.Name)
		}
		for c, to := range pos[t] {
			v := t.Data.Value(r, c)
			if filled[to] && row[to] != v {
				return fmt.Errorf("table %s row %d disagrees on %s", t.Name, r, input.Attrs[to])
			}
			row[to], filled[to] = v, true
		}
		for _, l := range links[t] {
			j, ok := l.idx[rowKey(t.Data, r, l.local)]
			if !ok {
				return fmt.Errorf("table %s row %d: dangling reference into %s", t.Name, r, l.ref.Name)
			}
			if err := fill(l.ref, j, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	got := make(map[string]bool, input.NumRows())
	root := roots[0]
	for r := 0; r < root.Data.NumRows(); r++ {
		clear(filled)
		if err := fill(root, r, 0); err != nil {
			return err
		}
		k := keyOf(row)
		if !want[k] {
			return fmt.Errorf("rebuilt row %v from %s row %d is not an input row", row, root.Name, r)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("rebuilt %d distinct rows, input has %d", len(got), len(want))
	}
	return nil
}

// checkNormalForm re-discovers each table's FDs, bounded like the run
// by maxLhs, and demands no BCNF violation remains.
func checkNormalForm(tables []*normalize.Table, maxLhs int) error {
	for _, t := range tables {
		if err := core.VerifyNormalFormMax(t, maxLhs); err != nil {
			return err
		}
	}
	return nil
}

// checkWorkload checks the workload's sample result. The reference
// relation is read with ReadCSV (encoding/csv), not with the IngestCSV
// path the operation times, so a value ingest corrupts or merges shows
// as a row the rebuild cannot match. The reference cover is TANE's, an
// engine independent of the pipeline's HyFD, on the same input at the
// same max-LHS. On delta-append, where TANE's lattice outgrows memory,
// it is the cover of a serial run from scratch over base plus delta,
// which must also give the same DDL. Under a ceiling the DDL must
// equal a serial run's without one.
func (in *instance) checkWorkload(ctx context.Context, x *input, out *opResult) error {
	full := x.csv
	if x.deltaCSV != nil {
		full = append(append([]byte(nil), x.csv...), x.deltaCSV[bytes.IndexByte(x.deltaCSV, '\n')+1:]...)
	}
	input, err := normalize.ReadCSV(x.name, bytes.NewReader(full))
	if err != nil {
		return fmt.Errorf("check: read input: %w", err)
	}
	var ref *normalize.Result
	if in.ceiling > 0 || x.deltaCSV != nil {
		if ref, err = normalize.NormalizeContext(ctx, input, normalize.Options{MaxLhs: maxLHS, Workers: 1}); err != nil {
			return fmt.Errorf("check: reference run: %w", err)
		}
	}
	var cover *fd.Set
	if x.deltaCSV == nil {
		cover = tane.Discover(input, tane.Options{MaxLhs: maxLHS})
	} else {
		cover = ref.Cover
	}
	if err := checkResult(input, out.res, cover, maxLHS); err != nil {
		return err
	}
	if ref != nil && normalize.DDL(ref.Tables) != out.ddl {
		return fmt.Errorf("DDL differs from the reference run's")
	}
	return nil
}

// link is a resolved foreign key: the referenced table, the key's
// columns in the referencing table, and the referenced rows by value.
type link struct {
	ref   *normalize.Table
	local []int
	idx   map[string]int
}

func resolve(t *normalize.Table, fk normalize.ForeignKey, byName map[string]*normalize.Table) (link, error) {
	ref := byName[fk.RefTable]
	if ref == nil {
		return link{}, fmt.Errorf("table %s references missing table %s", t.Name, fk.RefTable)
	}
	names := t.AttrNames(fk.Attrs)
	idx, err := index(ref.Data, names)
	if err != nil {
		return link{}, fmt.Errorf("table %s foreign key into %s: %w", t.Name, ref.Name, err)
	}
	local, err := columns(t.Data, names)
	if err != nil {
		return link{}, fmt.Errorf("table %s foreign key: %w", t.Name, err)
	}
	return link{ref: ref, local: local, idx: idx}, nil
}

// columns maps attribute names to their column positions in rel.
func columns(rel *normalize.Relation, names []string) ([]int, error) {
	cols := make([]int, len(names))
	for i, n := range names {
		if cols[i] = rel.AttrIndex(n); cols[i] < 0 {
			return nil, fmt.Errorf("attribute %s missing from %s", n, rel.Name)
		}
	}
	return cols, nil
}

// index maps the values of the named columns to the one row holding
// them, failing when two rows share them: a reference must be
// many-to-one.
func index(rel *normalize.Relation, names []string) (map[string]int, error) {
	cols, err := columns(rel, names)
	if err != nil {
		return nil, err
	}
	idx := make(map[string]int, rel.NumRows())
	for i := 0; i < rel.NumRows(); i++ {
		k := rowKey(rel, i, cols)
		if _, dup := idx[k]; dup {
			return nil, fmt.Errorf("%v is not unique in %s", names, rel.Name)
		}
		idx[k] = i
	}
	return idx, nil
}

// rowKey encodes row i's values in cols unambiguously.
func rowKey(rel *normalize.Relation, i int, cols []int) string {
	vals := make([]string, len(cols))
	for j, c := range cols {
		vals[j] = rel.Value(i, c)
	}
	return keyOf(vals)
}

func keyOf(vals []string) string {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return string(b)
}
