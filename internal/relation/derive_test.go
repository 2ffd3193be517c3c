package relation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// derivation is one row of the equivalence table: an operation on a
// relation (and, for joins, a second operand) next to the attributes
// and rows it means, computed from the operands' Rows() alone.
type derivation struct {
	name string
	got  func(r, o *Relation, p params) (*Relation, error)
	want func(r, o *Relation, p params) ([]string, [][]string)
}

// params are one trial's random arguments: a column list (any order),
// an ascending row selection, and a row to append.
type params struct {
	cols []int
	keep []int
	row  []string
}

var derivations = []derivation{
	{"New",
		func(r, _ *Relation, _ params) (*Relation, error) { return New("r", r.Attrs, r.Rows()) },
		func(r, _ *Relation, _ params) ([]string, [][]string) { return r.Attrs, r.Rows() }},
	{"Project",
		func(r, _ *Relation, p params) (*Relation, error) { return r.Project("p", p.cols), nil },
		func(r, _ *Relation, p params) ([]string, [][]string) { return project(r, p.cols) }},
	{"ProjectDedup",
		func(r, _ *Relation, p params) (*Relation, error) { return r.ProjectDedup("p", p.cols), nil },
		func(r, _ *Relation, p params) ([]string, [][]string) {
			attrs, rows := project(r, p.cols)
			return attrs, dedup(rows)
		}},
	{"DedupCopy",
		func(r, _ *Relation, _ params) (*Relation, error) { return r.DedupCopy("p"), nil },
		func(r, _ *Relation, _ params) ([]string, [][]string) { return r.Attrs, dedup(r.Rows()) }},
	{"Dedup",
		func(r, _ *Relation, _ params) (*Relation, error) { return r.Dedup(), nil },
		func(r, _ *Relation, _ params) ([]string, [][]string) { return r.Attrs, dedup(r.Rows()) }},
	{"SelectRows",
		func(r, _ *Relation, p params) (*Relation, error) { return r.SelectRows("p", p.keep), nil },
		func(r, _ *Relation, p params) ([]string, [][]string) {
			var rows [][]string
			for _, i := range p.keep {
				rows = append(rows, r.Rows()[i])
			}
			return r.Attrs, rows
		}},
	{"NaturalJoin",
		func(r, o *Relation, _ params) (*Relation, error) { return r.NaturalJoin("j", o) },
		func(r, o *Relation, _ params) ([]string, [][]string) { return nestedLoopJoin(r, o) }},
	{"AppendRow",
		func(r, _ *Relation, p params) (*Relation, error) { return r, r.AppendRow(p.row) },
		func(r, _ *Relation, p params) ([]string, [][]string) {
			return r.Attrs, append(append([][]string(nil), r.Rows()...), p.row)
		}},
}

// TestDerivationsMatchFreshEncode is the oracle of every columnar
// derivation. With one backing there is no second representation to
// compare against, so each result must equal New over the rows the
// operation means — the same codes, cardinalities, null flags,
// dictionaries and materialized rows — and New itself must assign the
// codes of a first-appearance encoding written out here.
func TestDerivationsMatchFreshEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		attrs, rows := randomInstance(rng, "a", 1+rng.Intn(5), rng.Intn(40))
		oAttrs, oRows := joinOperand(rng, attrs)
		p := randomParams(rng, len(attrs), len(rows))
		for _, d := range derivations {
			// Fresh operands per row of the table: Dedup and AppendRow
			// change their receiver.
			r, o := MustNew("r", attrs, rows), MustNew("o", oAttrs, oRows)
			wantAttrs, wantRows := d.want(r, o, p)
			got, err := d.got(r, o, p)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, d.name, err)
			}
			fresh := MustNew("fresh", wantAttrs, wantRows)
			if err := firstAppearance(fresh, wantRows); err != nil {
				t.Fatalf("trial %d %s: New: %v", trial, d.name, err)
			}
			if err := sameInstance(got, fresh); err != nil {
				t.Fatalf("trial %d %s (cols %v keep %v): %v", trial, d.name, p.cols, p.keep, err)
			}
		}
	}
}

// TestNewDoesNotAliasRows pins that New copies what it needs: mutating
// the caller's rows afterwards leaves the relation unchanged.
func TestNewDoesNotAliasRows(t *testing.T) {
	rows := [][]string{{"x", "1"}, {"y", ""}}
	r := MustNew("r", []string{"a", "b"}, rows)
	rows[0][0] = "mutated"
	rows[1] = []string{"z", "3"}
	if r.Value(0, 0) != "x" || r.Value(1, 0) != "y" || r.Value(1, 1) != "" {
		t.Fatalf("relation follows the caller's rows: %q", r.Rows())
	}
	if !r.HasNull(1) || r.NumRows() != 2 {
		t.Fatalf("HasNull/NumRows changed: %v/%d", r.HasNull(1), r.NumRows())
	}
}

// randomInstance returns n attributes named prefix0… and rows over a
// small alphabet with nulls, so dedup, joins and null flags all bite.
func randomInstance(rng *rand.Rand, prefix string, n, rows int) ([]string, [][]string) {
	attrs := make([]string, n)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	data := make([][]string, rows)
	for i := range data {
		data[i] = make([]string, n)
		for j := range data[i] {
			data[i][j] = randomValue(rng)
		}
	}
	return attrs, data
}

func randomValue(rng *rand.Rand) string {
	if v := rng.Intn(5); v > 0 {
		return fmt.Sprintf("v%d", v)
	}
	return "" // null
}

// joinOperand returns a relation sharing a non-empty subset of attrs,
// plus up to two attributes of its own, in shuffled order.
func joinOperand(rng *rand.Rand, attrs []string) ([]string, [][]string) {
	var out []string
	for _, a := range attrs {
		if rng.Intn(2) == 0 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = append(out, attrs[rng.Intn(len(attrs))])
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		out = append(out, fmt.Sprintf("b%d", i))
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	_, rows := randomInstance(rng, "", len(out), rng.Intn(30))
	return out, rows
}

func randomParams(rng *rand.Rand, nAttrs, nRows int) params {
	var p params
	for _, c := range rng.Perm(nAttrs) {
		if len(p.cols) == 0 || rng.Intn(2) == 0 {
			p.cols = append(p.cols, c)
		}
	}
	for i := 0; i < nRows; i++ {
		if rng.Intn(2) == 0 {
			p.keep = append(p.keep, i)
		}
	}
	p.row = make([]string, nAttrs)
	for i := range p.row {
		p.row[i] = randomValue(rng)
		if rng.Intn(4) == 0 {
			p.row[i] = "new" // a value no dictionary holds yet
		}
	}
	return p
}

func project(r *Relation, cols []int) ([]string, [][]string) {
	attrs := make([]string, len(cols))
	for j, c := range cols {
		attrs[j] = r.Attrs[c]
	}
	var rows [][]string
	for _, row := range r.Rows() {
		out := make([]string, len(cols))
		for j, c := range cols {
			out[j] = row[c]
		}
		rows = append(rows, out)
	}
	return attrs, rows
}

// dedup keeps the first occurrence of every distinct row.
func dedup(rows [][]string) [][]string {
	var out [][]string
	for i, row := range rows {
		first := true
		for _, prev := range rows[:i] {
			if reflect.DeepEqual(prev, row) {
				first = false
				break
			}
		}
		if first {
			out = append(out, row)
		}
	}
	return out
}

// nestedLoopJoin is the natural join by definition: r's attributes then
// o's own, for each r row in order every o row agreeing on the shared
// attributes, in o's order.
func nestedLoopJoin(r, o *Relation) ([]string, [][]string) {
	attrs := append([]string(nil), r.Attrs...)
	var own []int
	for j, a := range o.Attrs {
		if r.AttrIndex(a) < 0 {
			own = append(own, j)
			attrs = append(attrs, a)
		}
	}
	var rows [][]string
	for _, rr := range r.Rows() {
	match:
		for _, or := range o.Rows() {
			for j, a := range o.Attrs {
				if i := r.AttrIndex(a); i >= 0 && rr[i] != or[j] {
					continue match
				}
			}
			row := append([]string(nil), rr...)
			for _, j := range own {
				row = append(row, or[j])
			}
			rows = append(rows, row)
		}
	}
	return attrs, rows
}

// firstAppearance checks r's encoding of rows against the definition:
// per column, codes dense in first-appearance order, the dictionary
// listing values in that order, and a null flag iff a null occurs.
func firstAppearance(r *Relation, rows [][]string) error {
	c := r.Columnar()
	for col := range r.Attrs {
		var dict []string
		codes := make(map[string]int)
		hasNull := false
		for i, row := range rows {
			v := row[col]
			code, ok := codes[v]
			if !ok {
				code = len(dict)
				codes[v] = code
				dict = append(dict, v)
			}
			hasNull = hasNull || IsNull(v)
			if c.Enc.Columns[col][i] != code {
				return fmt.Errorf("column %d row %d: code %d, want %d", col, i, c.Enc.Columns[col][i], code)
			}
		}
		if fmt.Sprintf("%q", c.Dicts[col]) != fmt.Sprintf("%q", dict) || c.Enc.Cardinality[col] != len(dict) || c.Enc.HasNull[col] != hasNull {
			return fmt.Errorf("column %d: dictionary %q card %d null %v, want %q %d %v",
				col, c.Dicts[col], c.Enc.Cardinality[col], c.Enc.HasNull[col], dict, len(dict), hasNull)
		}
	}
	if c.Enc.NumRows != len(rows) {
		return fmt.Errorf("NumRows %d, want %d", c.Enc.NumRows, len(rows))
	}
	return nil
}

// sameInstance compares two relations field for field: header, the
// encoding, the dictionaries and the materialized rows. Empty and nil
// slices compare equal.
func sameInstance(got, want *Relation) error {
	g, w := got.Columnar(), want.Columnar()
	for _, f := range []struct {
		what, verb string
		got, want  any
	}{
		{"attrs", "%q", got.Attrs, want.Attrs},
		{"row counts", "%v", got.NumRows(), want.NumRows()},
		{"codes", "%v", g.Enc.Columns, w.Enc.Columns},
		{"cardinalities", "%v", g.Enc.Cardinality, w.Enc.Cardinality},
		{"null flags", "%v", g.Enc.HasNull, w.Enc.HasNull},
		{"dictionaries", "%q", g.Dicts, w.Dicts},
		{"materialized rows", "%q", got.Rows(), want.Rows()},
	} {
		if a, b := fmt.Sprintf(f.verb, f.got), fmt.Sprintf(f.verb, f.want); a != b {
			return fmt.Errorf("%s differ:\n got  %s\n want %s", f.what, a, b)
		}
	}
	return nil
}
