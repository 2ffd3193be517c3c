package relation

import "fmt"

// Columnar is the dictionary-encoded, column-major backing of a
// relation: the integer codes of every value plus the per-column
// dictionaries that map codes back to strings. It is the interchange
// format of the pipeline's data plane — streaming ingest produces it,
// the profiling substrate (internal/plicache) wraps its Encoded half
// directly, and decomposition derives child instances from it at
// integer-remap cost. String rows exist only as lazily-materialized
// views at export boundaries.
//
// Invariants: Dicts[c][code] is the value encoded as code in column c,
// codes are dense and assigned in first appearance order over the rows
// (exactly the order Encode would assign), and Enc.Cardinality[c] ==
// len(Dicts[c]). A Columnar is immutable once built; every deriving
// operation returns a new value.
type Columnar struct {
	Enc   *Encoded
	Dicts [][]string
}

// NewColumnarData validates the invariant surface of a columnar
// backing: one dictionary per column, code ranges inside the
// dictionary, and cardinalities matching dictionary sizes.
func NewColumnarData(enc *Encoded, dicts [][]string) (*Columnar, error) {
	if len(dicts) != len(enc.Columns) {
		return nil, fmt.Errorf("columnar: %d dictionaries for %d columns", len(dicts), len(enc.Columns))
	}
	for c, col := range enc.Columns {
		if len(col) != enc.NumRows {
			return nil, fmt.Errorf("columnar: column %d has %d codes, want %d", c, len(col), enc.NumRows)
		}
		if enc.Cardinality[c] != len(dicts[c]) {
			return nil, fmt.Errorf("columnar: column %d cardinality %d, dictionary holds %d", c, enc.Cardinality[c], len(dicts[c]))
		}
	}
	return &Columnar{Enc: enc, Dicts: dicts}, nil
}

// Value returns the string value at (row, col) via the dictionary.
func (c *Columnar) Value(row, col int) string {
	return c.Dicts[col][c.Enc.Columns[col][row]]
}

// materializeRows rebuilds the string rows — the export-boundary
// operation the columnar backing otherwise avoids.
func (c *Columnar) materializeRows() [][]string {
	rows := make([][]string, c.Enc.NumRows)
	cells := make([]string, c.Enc.NumRows*len(c.Dicts))
	for i := range rows {
		row := cells[i*len(c.Dicts) : (i+1)*len(c.Dicts) : (i+1)*len(c.Dicts)]
		for col := range c.Dicts {
			row[col] = c.Value(i, col)
		}
		rows[i] = row
	}
	return rows
}

// derive builds the columnar backing of the relation obtained by
// projecting onto cols (in the given order) and taking the rows listed
// in keep, in list order; a row may be listed more than once (a join
// repeats matched rows). Codes are densified in first appearance order
// over the listed rows and the dictionaries are remapped accordingly,
// so the result is indistinguishable from encoding the materialized
// child rows. Null flags are exact: a column loses its flag when no
// listed row holds a null.
func (c *Columnar) derive(cols, keep []int) *Columnar {
	child := &Columnar{
		Enc: &Encoded{
			NumRows:     len(keep),
			Columns:     make([][]int, len(cols)),
			Cardinality: make([]int, len(cols)),
			HasNull:     make([]bool, len(cols)),
		},
		Dicts: make([][]string, len(cols)),
	}
	for j, pc := range cols {
		src, parent := c.Enc.Columns[pc], c.Dicts[pc]
		remap := make([]int, len(parent)) // parent code → child code + 1
		var dict []string
		out := make([]int, len(keep))
		hasNull := false
		for i, row := range keep {
			code := src[row]
			if remap[code] == 0 {
				dict = append(dict, parent[code])
				remap[code] = len(dict)
				hasNull = hasNull || IsNull(parent[code])
			}
			out[i] = remap[code] - 1
		}
		child.Enc.Columns[j] = out
		child.Enc.Cardinality[j] = len(dict)
		child.Enc.HasNull[j] = hasNull
		child.Dicts[j] = dict
	}
	return child
}

// emptyColumnar returns the backing of a relation with n columns and
// no rows, the base New appends to.
func emptyColumnar(n int) *Columnar {
	return &Columnar{
		Enc: &Encoded{
			Columns:     make([][]int, n),
			Cardinality: make([]int, n),
			HasNull:     make([]bool, n),
		},
		Dicts: make([][]string, n),
	}
}

// Append derives the columnar backing of the relation extended by the
// given string rows. New values are dictionary-encoded against the
// parent's dictionaries in first-appearance order — exactly the codes a
// fresh encode of the concatenated rows would assign — so the appended
// substrate is byte-identical to a from-scratch ingest of base + delta.
// Existing codes never change, which lets position list indices be
// extended instead of rebuilt (pli.Extend). Per the Columnar contract
// the receiver is left untouched: untouched dictionaries are shared,
// extended ones are copied.
func (c *Columnar) Append(rows [][]string) (*Columnar, error) {
	nCols := len(c.Dicts)
	for i, row := range rows {
		if len(row) != nCols {
			return nil, fmt.Errorf("row %d has %d fields, want %d", i, len(row), nCols)
		}
	}
	total := c.Enc.NumRows + len(rows)
	enc := &Encoded{
		NumRows:     total,
		Columns:     make([][]int, nCols),
		Cardinality: make([]int, nCols),
		HasNull:     make([]bool, nCols),
	}
	dicts := make([][]string, nCols)
	for col := 0; col < nCols; col++ {
		codes := make([]int, total)
		copy(codes, c.Enc.Columns[col])
		parent := c.Dicts[col]
		index := make(map[string]int, len(parent))
		for code, v := range parent {
			index[v] = code
		}
		// Capped at its length, the first new value copies the parent
		// dictionary instead of writing into its spare capacity.
		dict := parent[:len(parent):len(parent)]
		hasNull := c.Enc.HasNull[col]
		for i, row := range rows {
			v := row[col]
			code, ok := index[v]
			if !ok {
				code = len(dict)
				dict = append(dict, v)
				index[v] = code
			}
			if IsNull(v) {
				hasNull = true
			}
			codes[c.Enc.NumRows+i] = code
		}
		enc.Columns[col] = codes
		enc.Cardinality[col] = len(dict)
		enc.HasNull[col] = hasNull
		dicts[col] = dict
	}
	return &Columnar{Enc: enc, Dicts: dicts}, nil
}

// appendCode appends the 4-byte little-endian form of a code, the
// building block of the code-tuple keys of dedup and join.
func appendCode(key []byte, v int) []byte {
	return append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// dedupKeep returns the row indices (ascending) of the first
// occurrences of the distinct code tuples over the given columns — the
// keep-list of a projection with set semantics.
func (e *Encoded) dedupKeep(cols []int) []int {
	seen := make(map[string]struct{}, e.NumRows)
	keep := make([]int, 0, e.NumRows)
	key := make([]byte, 0, len(cols)*4)
	for row := 0; row < e.NumRows; row++ {
		key = key[:0]
		for _, c := range cols {
			key = appendCode(key, e.Columns[c][row])
		}
		k := string(key)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keep = append(keep, row)
	}
	return keep
}

// identityCols returns [0, 1, …, n-1].
func identityCols(n int) []int {
	cols := make([]int, n)
	for i := range cols {
		cols[i] = i
	}
	return cols
}
