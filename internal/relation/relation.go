// Package relation provides the relational substrate of the
// normalization system: named relations over string-typed attributes,
// dictionary encoding for the profiling algorithms, projections,
// deduplication, and natural joins (used both to denormalize evaluation
// datasets and to verify lossless decompositions).
//
// A relation is backed by a dictionary-encoded Columnar: New encodes
// its rows at construction, streaming ingest builds the backing
// directly, and every derivation — projection, dedup, row selection,
// natural join, append — remaps integer codes instead of re-hashing
// strings. No per-row string slices are stored, so the pipeline can
// hold instances whose materialized rows would not fit in memory.
// Rows() materializes the string view lazily and caches it; it is an
// export-boundary operation, not a data-plane one.
//
// The empty string represents the SQL null value ⊥. Two nulls compare
// equal for functional-dependency semantics, which matches the default
// null handling of the Metanome profiling platform the paper builds on.
package relation

import (
	"fmt"
	"strings"
	"sync"

	"normalize/internal/bitset"
)

// IsNull reports whether a value represents SQL null (⊥).
func IsNull(v string) bool { return v == "" }

// Relation is a named relation instance: a header of attribute names
// and a bag of rows. Rows all have exactly len(Attrs) fields.
type Relation struct {
	Name  string
	Attrs []string

	mu   sync.Mutex
	cols *Columnar  // dictionary-encoded backing
	rows [][]string // cached materialization of cols, built by Rows
}

// New creates a relation over the given rows, validating its shape and
// dictionary-encoding the rows. The relation does not retain rows.
func New(name string, attrs []string, rows [][]string) (*Relation, error) {
	if err := checkAttrs(name, attrs); err != nil {
		return nil, err
	}
	cols, err := emptyColumnar(len(attrs)).Append(rows)
	if err != nil {
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	return &Relation{Name: name, Attrs: attrs, cols: cols}, nil
}

func checkAttrs(name string, attrs []string) error {
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return fmt.Errorf("relation %s: empty attribute name", name)
		}
		if seen[a] {
			return fmt.Errorf("relation %s: duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	return nil
}

// MustNew is New but panics on error; for literals in tests and
// generators where shape is statically correct.
func MustNew(name string, attrs []string, rows [][]string) *Relation {
	r, err := New(name, attrs, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// NewColumnar creates a relation over a validated backing. The
// Columnar must be treated as immutable afterwards.
func NewColumnar(name string, attrs []string, c *Columnar) (*Relation, error) {
	if err := checkAttrs(name, attrs); err != nil {
		return nil, err
	}
	if len(attrs) != len(c.Enc.Columns) {
		return nil, fmt.Errorf("relation %s: %d attributes for %d encoded columns", name, len(attrs), len(c.Enc.Columns))
	}
	return &Relation{Name: name, Attrs: attrs, cols: c}, nil
}

// Columnar returns the dictionary-encoded backing. The returned value
// is shared and immutable.
func (r *Relation) Columnar() *Columnar { return r.cols }

// Rows materializes the relation's rows as string slices, rebuilding
// them from the dictionaries on first call and caching them. Callers
// must not mutate the result (use AppendRow to grow a relation). This
// is an export-boundary operation — pipeline-internal code reads
// values via Value or the encoded backing instead.
func (r *Relation) Rows() [][]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rows == nil {
		r.rows = r.cols.materializeRows()
	}
	return r.rows
}

// Value returns the value at (row, col) without materializing rows.
func (r *Relation) Value(row, col int) string { return r.cols.Value(row, col) }

// AppendRow appends one row, encoding it against the dictionaries like
// Columnar.Append; any cached materialization is dropped.
func (r *Relation) AppendRow(row []string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cols, err := r.cols.Append([][]string{row})
	if err != nil {
		return fmt.Errorf("relation %s: %w", r.Name, err)
	}
	r.cols, r.rows = cols, nil
	return nil
}

// NumAttrs returns the number of attributes.
func (r *Relation) NumAttrs() int { return len(r.Attrs) }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.cols.Enc.NumRows }

// AttrIndex returns the position of the named attribute, or -1.
func (r *Relation) AttrIndex(name string) int {
	for i, a := range r.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// AttrNames maps an attribute set over this relation's universe to the
// corresponding names, in attribute order.
func (r *Relation) AttrNames(s *bitset.Set) []string {
	out := make([]string, 0, s.Cardinality())
	s.ForEach(func(e int) bool {
		out = append(out, r.Attrs[e])
		return true
	})
	return out
}

// Column returns the values of column c as a fresh slice.
func (r *Relation) Column(c int) []string {
	dict, codes := r.cols.Dicts[c], r.cols.Enc.Columns[c]
	out := make([]string, len(codes))
	for i, code := range codes {
		out[i] = dict[code]
	}
	return out
}

// HasNull reports whether column c contains at least one null.
func (r *Relation) HasNull(c int) bool { return r.cols.Enc.HasNull[c] }

// MaxValueLen returns the length in bytes of the longest value in the
// given attribute combination; values of multiple attributes are
// concatenated per row, as prescribed for the paper's value score.
// Per-code lengths come from the dictionaries; no strings are touched.
func (r *Relation) MaxValueLen(attrs *bitset.Set) int {
	max := 0
	cols := attrs.Elements()
	for i, n := 0, r.cols.Enc.NumRows; i < n; i++ {
		sum := 0
		for _, c := range cols {
			sum += len(r.cols.Dicts[c][r.cols.Enc.Columns[c][i]])
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// DistinctCount returns the exact number of distinct value combinations
// of the given attribute set (nulls compare equal).
func (r *Relation) DistinctCount(attrs *bitset.Set) int {
	return len(r.cols.Enc.dedupKeep(attrs.Elements()))
}

// Project returns a new relation with the given columns (by index, in
// the given order). Duplicates are retained; use Dedup afterwards for
// set semantics (or ProjectDedup, which fuses the two). The projection
// shares the parent's code arrays and dictionaries — no rows are
// dropped, so per-column codes stay dense and in first-appearance order.
func (r *Relation) Project(name string, cols []int) *Relation {
	attrs := make([]string, len(cols))
	child := &Columnar{
		Enc: &Encoded{
			NumRows:     r.cols.Enc.NumRows,
			Columns:     make([][]int, len(cols)),
			Cardinality: make([]int, len(cols)),
			HasNull:     make([]bool, len(cols)),
		},
		Dicts: make([][]string, len(cols)),
	}
	for j, c := range cols {
		attrs[j] = r.Attrs[c]
		child.Enc.Columns[j] = r.cols.Enc.Columns[c]
		child.Enc.Cardinality[j] = r.cols.Enc.Cardinality[c]
		child.Enc.HasNull[j] = r.cols.Enc.HasNull[c]
		child.Dicts[j] = r.cols.Dicts[c]
	}
	return &Relation{Name: name, Attrs: attrs, cols: child}
}

// ProjectSet is Project with columns given as a bitset (ascending
// attribute order).
func (r *Relation) ProjectSet(name string, attrs *bitset.Set) *Relation {
	return r.Project(name, attrs.Elements())
}

// ProjectDedup projects onto the given columns with set semantics in
// one pass, never touching strings: the child encoding is derived by
// code remapping, keeping the first occurrence of every distinct tuple,
// exactly as Project followed by Dedup would.
func (r *Relation) ProjectDedup(name string, cols []int) *Relation {
	attrs := make([]string, len(cols))
	for i, c := range cols {
		attrs[i] = r.Attrs[c]
	}
	keep := r.cols.Enc.dedupKeep(cols)
	return &Relation{Name: name, Attrs: attrs, cols: r.cols.derive(cols, keep)}
}

// ProjectDedupSet is ProjectDedup with columns given as a bitset.
func (r *Relation) ProjectDedupSet(name string, attrs *bitset.Set) *Relation {
	return r.ProjectDedup(name, attrs.Elements())
}

// DedupCopy returns a deduplicated copy under a new name, leaving the
// receiver untouched (Dedup replaces the receiver's backing).
func (r *Relation) DedupCopy(name string) *Relation {
	return r.ProjectDedup(name, identityCols(len(r.Attrs)))
}

// SelectRows returns a new relation holding exactly the rows listed in
// keep (ascending), under the given name. Codes are densified in
// first-appearance order over the surviving rows, so the result equals
// a fresh encode of the materialized sample.
func (r *Relation) SelectRows(name string, keep []int) *Relation {
	return &Relation{Name: name, Attrs: r.Attrs, cols: r.cols.derive(identityCols(len(r.Attrs)), keep)}
}

// Dedup removes duplicate rows in place, keeping first occurrences, and
// returns the receiver: a derived backing replaces the old one and any
// cached materialization is dropped.
func (r *Relation) Dedup() *Relation {
	keep := r.cols.Enc.dedupKeep(identityCols(len(r.Attrs)))
	if len(keep) != r.cols.Enc.NumRows {
		r.mu.Lock()
		r.cols = r.cols.derive(identityCols(len(r.Attrs)), keep)
		r.rows = nil
		r.mu.Unlock()
	}
	return r
}

// RowSet returns the set of rows as encoded strings, for set-semantics
// comparison of instances.
func (r *Relation) RowSet() map[string]struct{} {
	n, m := r.NumRows(), len(r.Attrs)
	set := make(map[string]struct{}, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		for c := 0; c < m; c++ {
			b.WriteString(r.Value(i, c))
			b.WriteByte(0)
		}
		set[b.String()] = struct{}{}
	}
	return set
}

// SameRowSet reports whether two relations with identical headers hold
// the same set of rows (duplicates ignored).
func (r *Relation) SameRowSet(o *Relation) bool {
	if len(r.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range r.Attrs {
		if r.Attrs[i] != o.Attrs[i] {
			return false
		}
	}
	a, b := r.RowSet(), o.RowSet()
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// NaturalJoin joins r with o on all attributes sharing the same name.
// The result header is r's attributes followed by o's non-shared
// attributes. Nulls join with nulls (values compare by equality). It is
// an error if the relations share no attribute. The join runs on codes:
// o's shared-attribute codes are translated into r's dictionaries, and
// the output is derived from both operands' backings over the matched
// row lists, so it equals a fresh encode of the joined rows.
func (r *Relation) NaturalJoin(name string, o *Relation) (*Relation, error) {
	var shared [][2]int // (col in r, col in o)
	oOnly := make([]int, 0, len(o.Attrs))
	for j, a := range o.Attrs {
		if i := r.AttrIndex(a); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			oOnly = append(oOnly, j)
		}
	}
	if len(shared) == 0 {
		return nil, fmt.Errorf("natural join %s ⋈ %s: no shared attributes", r.Name, o.Name)
	}

	attrs := make([]string, 0, len(r.Attrs)+len(oOnly))
	attrs = append(attrs, r.Attrs...)
	for _, j := range oOnly {
		attrs = append(attrs, o.Attrs[j])
	}

	// toR[k][code] is r's code for o's value code in the k-th shared
	// attribute, or -1 when r never holds that value.
	toR := make([][]int, len(shared))
	for k, p := range shared {
		index := make(map[string]int, len(r.cols.Dicts[p[0]]))
		for code, v := range r.cols.Dicts[p[0]] {
			index[v] = code
		}
		t := make([]int, len(o.cols.Dicts[p[1]]))
		for code, v := range o.cols.Dicts[p[1]] {
			if rc, ok := index[v]; ok {
				t[code] = rc
			} else {
				t[code] = -1
			}
		}
		toR[k] = t
	}

	// Hash join: index o by its shared-attribute key in r's codes.
	index := make(map[string][]int, o.NumRows())
	key := make([]byte, 0, 4*len(shared))
rows:
	for i, n := 0, o.NumRows(); i < n; i++ {
		key = key[:0]
		for k, p := range shared {
			code := toR[k][o.cols.Enc.Columns[p[1]][i]]
			if code < 0 {
				continue rows
			}
			key = appendCode(key, code)
		}
		index[string(key)] = append(index[string(key)], i)
	}
	var left, right []int
	for i, n := 0, r.NumRows(); i < n; i++ {
		key = key[:0]
		for _, p := range shared {
			key = appendCode(key, r.cols.Enc.Columns[p[0]][i])
		}
		for _, oi := range index[string(key)] {
			left = append(left, i)
			right = append(right, oi)
		}
	}

	lc := r.cols.derive(identityCols(len(r.Attrs)), left)
	rc := o.cols.derive(oOnly, right)
	lc.Enc.Columns = append(lc.Enc.Columns, rc.Enc.Columns...)
	lc.Enc.Cardinality = append(lc.Enc.Cardinality, rc.Enc.Cardinality...)
	lc.Enc.HasNull = append(lc.Enc.HasNull, rc.Enc.HasNull...)
	lc.Dicts = append(lc.Dicts, rc.Dicts...)
	return &Relation{Name: name, Attrs: attrs, cols: lc}, nil
}

// Encoded is the dictionary-encoded, column-major form of a relation,
// the input format of the profiling algorithms (PLI construction, FD
// validation). Values are encoded per column into dense integer codes;
// nulls share one code per column (null = null semantics).
type Encoded struct {
	NumRows int
	// Columns[c][row] is the code of the value at (row, c).
	Columns [][]int
	// Cardinality[c] is the number of distinct codes in column c.
	Cardinality []int
	// HasNull[c] reports whether column c contains nulls.
	HasNull []bool
}

// Encode returns the relation's dictionary encoding: the backing
// itself, shared and immutable, so callers must not modify it.
func (r *Relation) Encode() *Encoded { return r.cols.Enc }
