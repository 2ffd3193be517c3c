package core

// Round-trippable serialization of normalization results: the server's
// job store, replication stream and result cache and the CLI's
// -save-result files carry results in this form, and a decoded Result
// serves DDL, schema JSON, row payloads and delta runs exactly like
// the original.
//
// EncodeResult writes version 2, a binary columnar payload. Each
// table's instance is stored as one dictionary per column followed by
// that column's codes, so DecodeResult rebuilds the relation's
// Columnar backing directly: no JSON, no re-encoding, and no hashing
// beyond one check that each dictionary's values are distinct.
// DecodeResult also reads version 1, the JSON form earlier releases
// wrote and job stores and saved results may still hold; nothing
// writes version 1 any more.
//
// Version 2 layout. Integers are varints (encoding/binary): counts,
// lengths and set words unsigned, Stats' integers and memo values
// signed. A string is its length and bytes. A set over a universe of n
// attributes is its ⌈n/64⌉ words (bitset.Words), and a flag is one
// byte, 0 or 1. A section is its length and bytes; the decoder checks
// every length and count against the bytes left before it allocates,
// and requires each section to be consumed exactly.
//
//	payload = magic 2 section(header) count section(table)... section(cover) section(memo)
//	header  = attrs records numFDs numFDKeys avgRhsBefore avgRhsAfter decompositions
//	          count (stage budget action detail)...
//	          (the two averages as 8-byte little-endian IEEE 754 bits)
//	table   = name count sourceAttr... attrs dataName count dataAttr...
//	          fdSet count key... flag [primaryKey] count (attrs refTable)... nullAttrs
//	          rows column...   (one column per data attribute)
//	column  = count length... bytes codes
//	          (the dictionary: value lengths, then the values back to back;
//	          then one code per row, little-endian, 1, 2 or 4 bytes wide
//	          by dictionary size)
//	cover   = fdSet
//	fdSet   = 0 | 1 numAttrs count (lhs rhs)...
//	memo    = 0 | 1 pairs(Distinct) pairs(MaxLen)
//	pairs   = count (key value)...   (in ascending key order)
//
// A table's sets are over its source relation's attributes, and every
// FD set, the cover included, is over that same universe.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/relation"
)

// resultMagic begins every version-2 payload. Its first byte cannot
// begin a JSON document, so the first byte of a payload tells the
// versions apart: version 1 always begins with '{'.
const resultMagic = "\x89NRM"

const resultVersion = 2

// EncodeResult serializes a Result for persistence. The encoding is
// self-contained: DecodeResult on another process rebuilds a Result
// whose tables render identical DDL, schema JSON, and instances. It is
// also reproducible: Stats' wall-clock durations are not written and
// the score memo is written in key order, so runs of one input encode
// byte-identically at every worker count. Table instances are read
// from their columnar backing; no rows are materialized.
func EncodeResult(res *Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("core: cannot encode nil result")
	}
	e := &encoder{buf: append([]byte(resultMagic), resultVersion)}
	e.section(func(e *encoder) {
		s := res.Stats
		for _, v := range []int{s.Attrs, s.Records, s.NumFDs, s.NumFDKeys} {
			e.int(v)
		}
		e.float(s.AvgRhsBefore)
		e.float(s.AvgRhsAfter)
		e.int(s.Decompositions)
		e.count(len(res.Degradations))
		for _, d := range res.Degradations {
			e.strings(string(d.Stage), d.Budget, d.Action, d.Detail)
		}
	})
	e.count(len(res.Tables))
	for _, t := range res.Tables {
		e.section(func(e *encoder) { e.table(t) })
	}
	e.section(func(e *encoder) { e.fdSet(res.Cover, coverUniverse(res.Tables)) })
	e.section(func(e *encoder) {
		e.flag(res.ScoreMemo != nil)
		if res.ScoreMemo != nil {
			e.pairs(res.ScoreMemo.Distinct)
			e.pairs(res.ScoreMemo.MaxLen)
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// encoder appends the version-2 encoding to buf; the first error stops
// nothing but is the one EncodeResult reports.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("core: encode result: "+format, args...)
	}
}

func (e *encoder) count(n int) { e.buf = binary.AppendUvarint(e.buf, uint64(n)) }
func (e *encoder) int(v int)   { e.buf = binary.AppendVarint(e.buf, int64(v)) }

func (e *encoder) float(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) flag(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) strings(ss ...string) {
	for _, s := range ss {
		e.count(len(s))
		e.buf = append(e.buf, s...)
	}
}

// section writes what write appends, behind its length: the body is
// appended first, then shifted up to make room for the length.
func (e *encoder) section(write func(*encoder)) {
	start := len(e.buf)
	write(e)
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(len(e.buf)-start))
	e.buf = append(e.buf, prefix[:k]...)
	copy(e.buf[start+k:], e.buf[start:len(e.buf)-k])
	copy(e.buf[start:], prefix[:k])
}

// set writes s as the words of a set over [0, n); a nil set is empty.
func (e *encoder) set(s *bitset.Set, n int) {
	if s == nil {
		s = bitset.New(n)
	}
	if s.Size() != n {
		e.fail("set %v over %d attributes in a universe of %d", s, s.Size(), n)
		return
	}
	for _, w := range s.Words() {
		e.buf = binary.AppendUvarint(e.buf, w)
	}
}

func (e *encoder) fdSet(s *fd.Set, universe int) {
	e.flag(s != nil)
	if s == nil {
		return
	}
	if s.NumAttrs != universe {
		e.fail("FD set over %d attributes in a universe of %d", s.NumAttrs, universe)
		return
	}
	e.count(s.NumAttrs)
	e.count(len(s.FDs))
	for _, f := range s.FDs {
		e.set(f.Lhs, universe)
		e.set(f.Rhs, universe)
	}
}

func (e *encoder) pairs(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.count(len(keys))
	for _, k := range keys {
		e.strings(k)
		e.int(m[k])
	}
}

func (e *encoder) table(t *Table) {
	if t.Attrs == nil || t.Data == nil {
		e.fail("table %q incomplete", t.Name)
		return
	}
	n := t.universe
	e.strings(t.Name)
	e.count(len(t.sourceAttrs))
	e.strings(t.sourceAttrs...)
	e.set(t.Attrs, n)
	e.strings(t.Data.Name)
	e.count(len(t.Data.Attrs))
	e.strings(t.Data.Attrs...)
	e.fdSet(t.FDs, n)
	e.count(len(t.Keys))
	for _, k := range t.Keys {
		e.set(k, n)
	}
	e.flag(t.PrimaryKey != nil)
	if t.PrimaryKey != nil {
		e.set(t.PrimaryKey, n)
	}
	e.count(len(t.ForeignKeys))
	for _, fk := range t.ForeignKeys {
		e.set(fk.Attrs, n)
		e.strings(fk.RefTable)
	}
	e.set(t.NullAttrs, n)

	col := t.Data.Columnar()
	e.count(col.Enc.NumRows)
	for c, dict := range col.Dicts {
		e.count(len(dict))
		for _, v := range dict {
			e.count(len(v))
		}
		for _, v := range dict {
			e.buf = append(e.buf, v...)
		}
		codes := col.Enc.Columns[c]
		switch codeWidth(len(dict)) {
		case 1:
			for _, code := range codes {
				e.buf = append(e.buf, byte(code))
			}
		case 2:
			for _, code := range codes {
				e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(code))
			}
		default:
			for _, code := range codes {
				e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(code))
			}
		}
	}
}

// codeWidth is the byte width of a column's codes on the wire: the
// fewest of 1, 2 and 4 bytes that hold every code of a dictionary of
// the given size.
func codeWidth(dictSize int) int {
	switch {
	case dictSize <= 1<<8:
		return 1
	case dictSize <= 1<<16:
		return 2
	}
	return 4
}

// DecodeResult rebuilds a Result from EncodeResult's output, of
// either version. Every attribute index is checked against its
// universe and every table instance against the invariants of its
// encoding, so a payload that decodes renders without panicking.
func DecodeResult(data []byte) (*Result, error) {
	switch {
	case len(data) > 0 && data[0] == '{':
		return decodeResultV1(data)
	case bytes.HasPrefix(data, []byte(resultMagic)):
		return decodeResultV2(data[len(resultMagic):])
	}
	return nil, fmt.Errorf("core: decode result: not a result payload")
}

func decodeResultV2(data []byte) (*Result, error) {
	d := &decoder{buf: data}
	if v := d.uvarint(); d.err == nil && v != resultVersion {
		return nil, fmt.Errorf("core: result payload version %d unsupported", v)
	}
	res := &Result{}
	d.section(func(d *decoder) {
		s := &res.Stats
		for _, p := range []*int{&s.Attrs, &s.Records, &s.NumFDs, &s.NumFDKeys} {
			*p = d.int()
		}
		s.AvgRhsBefore, s.AvgRhsAfter = d.float(), d.float()
		s.Decompositions = d.int()
		n := d.count(4)
		for i := 0; i < n && d.err == nil; i++ {
			res.Degradations = append(res.Degradations, Degradation{
				Stage: observe.Stage(d.string()), Budget: d.string(), Action: d.string(), Detail: d.string(),
			})
		}
	})
	n := d.count(1)
	res.Tables = make([]*Table, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		d.section(func(d *decoder) {
			if t := d.table(); t != nil {
				res.Tables = append(res.Tables, t)
			}
		})
	}
	d.section(func(d *decoder) { res.Cover = d.fdSet(coverUniverse(res.Tables)) })
	d.section(func(d *decoder) {
		if d.flag() {
			res.ScoreMemo = &ScoreMemo{Distinct: d.pairs(), MaxLen: d.pairs()}
		}
	})
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d bytes after the last section", len(d.buf))
	}
	if d.err != nil {
		return nil, d.err
	}
	return res, nil
}

// coverUniverse is the universe a result's cover must be over: its
// tables', which all share the one source relation a cover describes.
// It is -1 when there is no table, so no cover fits.
func coverUniverse(tables []*Table) int {
	if len(tables) == 0 {
		return -1
	}
	return tables[0].universe
}

// decoder reads a version-2 payload from buf. The first failure
// records err and empties buf, so every later read fails too and the
// caller checks err once.
type decoder struct {
	buf   []byte
	err   error
	words []uint64 // scratch for set
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode result: "+format, args...)
	}
	d.buf = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.buf = d.buf[n:]
	return int(v)
}

// count reads a count of items that take at least itemBytes bytes
// each and checks it against the bytes left, so no allocation sized by
// a count can exceed what the payload holds.
func (d *decoder) count(itemBytes int) int {
	v := d.uvarint()
	if v > uint64(len(d.buf)/max(itemBytes, 1)) {
		d.fail("count %d overruns the %d bytes left", v, len(d.buf))
		return 0
	}
	return int(v)
}

func (d *decoder) bytes(n int) []byte {
	if n > len(d.buf) {
		d.fail("%d bytes overrun the %d left", n, len(d.buf))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) string() string { return string(d.bytes(d.count(1))) }

func (d *decoder) strings(n int) []string {
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.string()
	}
	return ss
}

func (d *decoder) float() float64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (d *decoder) flag() bool {
	b := d.bytes(1)
	if b != nil && b[0] > 1 {
		d.fail("flag byte %d", b[0])
	}
	return b != nil && b[0] == 1
}

// section runs read over the next section, which it must consume
// exactly.
func (d *decoder) section(read func(*decoder)) {
	s := &decoder{buf: d.bytes(d.count(1))}
	if d.err != nil {
		return
	}
	read(s)
	if s.err == nil && len(s.buf) > 0 {
		s.fail("%d unread bytes in a section", len(s.buf))
	}
	if s.err != nil {
		d.err, d.buf = s.err, nil
	}
}

// set reads a set over [0, n) from its words, rejecting any element at
// or past n.
func (d *decoder) set(n int) *bitset.Set {
	w := (n + 63) / 64
	if w > len(d.buf) {
		d.fail("set over %d attributes overruns the %d bytes left", n, len(d.buf))
		return nil
	}
	d.words = d.words[:0]
	for i := 0; i < w; i++ {
		d.words = append(d.words, d.uvarint())
	}
	if rem := n % 64; rem != 0 && d.words[w-1]>>rem != 0 {
		d.fail("set holds an attribute outside its universe of %d", n)
	}
	return bitset.FromWords(n, d.words)
}

func (d *decoder) fdSet(universe int) *fd.Set {
	if !d.flag() {
		return nil
	}
	if n := d.uvarint(); universe < 0 || n != uint64(universe) {
		d.fail("FD set over %d attributes in a universe of %d", n, universe)
		return nil
	}
	s := fd.NewSet(universe)
	n := d.count(2 * ((universe + 63) / 64))
	s.FDs = make([]*fd.FD, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		s.FDs = append(s.FDs, &fd.FD{Lhs: d.set(universe), Rhs: d.set(universe)})
	}
	return s
}

func (d *decoder) pairs() map[string]int {
	n := d.count(2)
	m := make(map[string]int, n)
	for i := 0; i < n && d.err == nil; i++ {
		k := d.string()
		m[k] = d.int()
	}
	if d.err == nil && len(m) != n {
		d.fail("repeated score memo key")
	}
	return m
}

func (d *decoder) table() *Table {
	t := &Table{Name: d.string()}
	t.sourceAttrs = d.strings(d.count(1))
	t.universe = len(t.sourceAttrs)
	if d.err != nil {
		return nil
	}
	t.Attrs = d.set(t.universe)
	dataName := d.string()
	dataAttrs := d.strings(d.count(1))
	if d.err != nil {
		return nil
	}
	if err := checkTableAttrs(t.Name, t.Attrs, dataAttrs); err != nil {
		d.err, d.buf = err, nil
		return nil
	}
	t.FDs = d.fdSet(t.universe)
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		t.Keys = append(t.Keys, d.set(t.universe))
	}
	if d.flag() {
		t.PrimaryKey = d.set(t.universe)
	}
	n = d.count(2)
	for i := 0; i < n && d.err == nil; i++ {
		t.ForeignKeys = append(t.ForeignKeys, ForeignKey{Attrs: d.set(t.universe), RefTable: d.string()})
	}
	t.NullAttrs = d.set(t.universe)
	t.Data = d.instance(dataName, dataAttrs)
	if d.err != nil {
		return nil
	}
	return t
}

// instance reads a table's rows as one dictionary and one code block
// per column and builds the relation on them as they stand. It checks
// what encoding the rows would guarantee: every dictionary's values
// are distinct, and every column's codes are dense, assigned in first
// appearance order and inside their dictionary. HasNull follows from
// the dictionary.
func (d *decoder) instance(name string, attrs []string) *relation.Relation {
	rows := d.count(len(attrs)) // every column spends a byte per row at least
	enc := &relation.Encoded{
		NumRows:     rows,
		Columns:     make([][]int, len(attrs)),
		Cardinality: make([]int, len(attrs)),
		HasNull:     make([]bool, len(attrs)),
	}
	dicts := make([][]string, len(attrs))
	codes := make([]int, rows*len(attrs))
	seen := make(map[string]struct{})
	for c := 0; c < len(attrs) && d.err == nil; c++ {
		dicts[c], enc.HasNull[c] = d.dict(seen)
		enc.Cardinality[c] = len(dicts[c])
		enc.Columns[c] = codes[c*rows : (c+1)*rows : (c+1)*rows]
		d.codes(enc.Columns[c], len(dicts[c]))
	}
	if d.err != nil {
		return nil
	}
	col, err := relation.NewColumnarData(enc, dicts)
	if err == nil {
		var rel *relation.Relation
		if rel, err = relation.NewColumnar(name, attrs, col); err == nil {
			return rel
		}
	}
	d.fail("table %q: %v", name, err)
	return nil
}

// dict reads one column's dictionary: the value lengths, then the
// values back to back, sliced out of a single string. seen is scratch
// for the distinctness check.
func (d *decoder) dict(seen map[string]struct{}) (dict []string, hasNull bool) {
	n := d.count(1)
	lengths := d.buf
	size := 0
	for i := 0; i < n && d.err == nil; i++ {
		size += d.count(1)
	}
	blob := string(d.bytes(size))
	if d.err != nil {
		return nil, false
	}
	dict = make([]string, n)
	clear(seen)
	for i := range dict {
		l, k := binary.Uvarint(lengths)
		lengths = lengths[k:]
		dict[i], blob = blob[:l], blob[l:]
		if _, dup := seen[dict[i]]; dup {
			d.fail("dictionary repeats value %q", dict[i])
			return nil, false
		}
		seen[dict[i]] = struct{}{}
		hasNull = hasNull || relation.IsNull(dict[i])
	}
	return dict, hasNull
}

// codes reads one column's code block into col.
func (d *decoder) codes(col []int, dictSize int) {
	w := codeWidth(dictSize)
	b := d.bytes(len(col) * w)
	if d.err != nil {
		return
	}
	next := 0 // codes 0..next-1 have appeared
	for i := range col {
		var code int
		switch w {
		case 1:
			code = int(b[i])
		case 2:
			code = int(binary.LittleEndian.Uint16(b[2*i:]))
		default:
			code = int(binary.LittleEndian.Uint32(b[4*i:]))
		}
		if code > next || code >= dictSize {
			d.fail("code %d at row %d is not in first-appearance order over %d values", code, i, dictSize)
			return
		}
		if code == next {
			next++
		}
		col[i] = code
	}
	if next != dictSize {
		d.fail("codes use %d of %d dictionary values", next, dictSize)
	}
}

// checkTableAttrs checks that a table has attributes and one data
// column per attribute.
func checkTableAttrs(name string, attrs *bitset.Set, dataAttrs []string) error {
	if n := attrs.Cardinality(); n == 0 || n != len(dataAttrs) {
		return fmt.Errorf("core: decode table %q: %d attributes for %d data columns", name, n, len(dataAttrs))
	}
	return nil
}

// Version 1, read only: the JSON form. Cover and ScoreMemo are absent
// from payloads of runs that predate the delta plane; they decode to
// nil fields, and delta normalization refuses such parents.
type resultWire struct {
	Version      int               `json:"version"`
	Tables       []tableWire       `json:"tables"`
	Stats        statsWire         `json:"stats"`
	Degradations []degradationWire `json:"degradations,omitempty"`
	Cover        []fdWire          `json:"cover,omitempty"`
	CoverAttrs   int               `json:"cover_attrs,omitempty"`
	ScoreMemo    *ScoreMemo        `json:"score_memo,omitempty"`
}

// tableWire flattens one Table, including the unexported universal
// attribute space it needs to render names and translate sets.
type tableWire struct {
	Name        string           `json:"name"`
	SourceAttrs []string         `json:"source_attrs"`
	Attrs       []int            `json:"attrs"`
	DataName    string           `json:"data_name"`
	DataAttrs   []string         `json:"data_attrs"`
	Rows        [][]string       `json:"rows"`
	FDs         []fdWire         `json:"fds,omitempty"`
	FDNumAttrs  int              `json:"fd_num_attrs,omitempty"`
	Keys        [][]int          `json:"keys,omitempty"`
	PrimaryKey  *[]int           `json:"primary_key,omitempty"`
	ForeignKeys []foreignKeyWire `json:"foreign_keys,omitempty"`
	NullAttrs   []int            `json:"null_attrs,omitempty"`
}

type fdWire struct {
	Lhs []int `json:"lhs"`
	Rhs []int `json:"rhs"`
}

type foreignKeyWire struct {
	Attrs    []int  `json:"attrs"`
	RefTable string `json:"ref_table"`
}

// statsWire is Stats without its wall-clock durations. Payloads
// written before the durations were dropped carry them as
// discovery_ns, closure_ns, key_derivation_ns and violation_ns; the
// decoder ignores those fields, so a decoded result reports zero
// durations.
type statsWire struct {
	Attrs          int     `json:"attrs"`
	Records        int     `json:"records"`
	NumFDs         int     `json:"num_fds"`
	NumFDKeys      int     `json:"num_fd_keys"`
	AvgRhsBefore   float64 `json:"avg_rhs_before"`
	AvgRhsAfter    float64 `json:"avg_rhs_after"`
	Decompositions int     `json:"decompositions"`
}

type degradationWire struct {
	Stage  string `json:"stage"`
	Budget string `json:"budget"`
	Action string `json:"action"`
	Detail string `json:"detail"`
}

func decodeResultV1(data []byte) (*Result, error) {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if w.Version != 1 {
		return nil, fmt.Errorf("core: result wire version %d unsupported", w.Version)
	}
	res := &Result{
		Stats: Stats{
			Attrs:          w.Stats.Attrs,
			Records:        w.Stats.Records,
			NumFDs:         w.Stats.NumFDs,
			NumFDKeys:      w.Stats.NumFDKeys,
			AvgRhsBefore:   w.Stats.AvgRhsBefore,
			AvgRhsAfter:    w.Stats.AvgRhsAfter,
			Decompositions: w.Stats.Decompositions,
		},
	}
	for _, d := range w.Degradations {
		res.Degradations = append(res.Degradations, Degradation{
			Stage: observe.Stage(d.Stage), Budget: d.Budget, Action: d.Action, Detail: d.Detail,
		})
	}
	for i := range w.Tables {
		t, err := decodeTableV1(&w.Tables[i])
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, t)
	}
	if w.CoverAttrs > 0 {
		var err error
		if res.Cover, err = fdSetV1(w.CoverAttrs, coverUniverse(res.Tables), w.Cover); err != nil {
			return nil, fmt.Errorf("core: decode result cover: %w", err)
		}
	}
	res.ScoreMemo = w.ScoreMemo
	return res, nil
}

func decodeTableV1(tw *tableWire) (*Table, error) {
	universe := len(tw.SourceAttrs)
	attrs, err := setV1(universe, tw.Attrs)
	if err != nil {
		return nil, fmt.Errorf("core: decode table %q attrs: %w", tw.Name, err)
	}
	if err := checkTableAttrs(tw.Name, attrs, tw.DataAttrs); err != nil {
		return nil, err
	}
	data, err := relation.New(tw.DataName, tw.DataAttrs, tw.Rows)
	if err != nil {
		return nil, fmt.Errorf("core: decode table %q: %w", tw.Name, err)
	}
	t := &Table{
		Name:        tw.Name,
		Attrs:       attrs,
		Data:        data,
		universe:    universe,
		sourceAttrs: tw.SourceAttrs,
	}
	if tw.FDNumAttrs > 0 || len(tw.FDs) > 0 {
		if t.FDs, err = fdSetV1(tw.FDNumAttrs, universe, tw.FDs); err != nil {
			return nil, fmt.Errorf("core: decode table %q FDs: %w", tw.Name, err)
		}
	}
	var bad error // the first out-of-universe index among the sets below
	set := func(elems []int) *bitset.Set {
		s, err := setV1(universe, elems)
		if bad == nil {
			bad = err
		}
		return s
	}
	for _, k := range tw.Keys {
		t.Keys = append(t.Keys, set(k))
	}
	if tw.PrimaryKey != nil {
		t.PrimaryKey = set(*tw.PrimaryKey)
	}
	for _, fk := range tw.ForeignKeys {
		t.ForeignKeys = append(t.ForeignKeys, ForeignKey{Attrs: set(fk.Attrs), RefTable: fk.RefTable})
	}
	// NullAttrs is always non-nil on pipeline-built tables (Insert and
	// CheckInsert dereference it), so restore it even when empty.
	t.NullAttrs = set(tw.NullAttrs)
	if bad != nil {
		return nil, fmt.Errorf("core: decode table %q: %w", tw.Name, bad)
	}
	return t, nil
}

// setV1 builds a set over [0, n) from its elements, each of which must
// lie in that range.
func setV1(n int, elems []int) (*bitset.Set, error) {
	for _, e := range elems {
		if e < 0 || e >= n {
			return nil, fmt.Errorf("attribute %d outside the universe of %d", e, n)
		}
	}
	return bitset.Of(n, elems...), nil
}

// fdSetV1 builds an FD set over numAttrs attributes, which must be the
// universe of the source relation the set describes.
func fdSetV1(numAttrs, universe int, fds []fdWire) (*fd.Set, error) {
	if numAttrs != universe {
		return nil, fmt.Errorf("FD set over %d attributes in a universe of %d", numAttrs, universe)
	}
	s := fd.NewSet(numAttrs)
	for _, f := range fds {
		lhs, err := setV1(numAttrs, f.Lhs)
		if err != nil {
			return nil, err
		}
		rhs, err := setV1(numAttrs, f.Rhs)
		if err != nil {
			return nil, err
		}
		s.FDs = append(s.FDs, &fd.FD{Lhs: lhs, Rhs: rhs})
	}
	return s, nil
}
