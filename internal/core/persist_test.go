package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/fd"
	"normalize/internal/relation"
)

// figure2Relation is the paper's address example: Postcode → City,
// Mayor forces a BCNF split, giving a result with two tables, keys,
// and a foreign key to round-trip.
func figure2Relation(t *testing.T) *relation.Relation {
	t.Helper()
	rel, err := relation.New("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", ""},
		})
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// figure2Result is the figure-2 result with one degradation appended,
// the result testdata/figure2.v1.json and
// testdata/figure2-durations.v1.json hold in version 1.
func figure2Result(t *testing.T) *Result {
	t.Helper()
	res, err := NormalizeRelation(figure2Relation(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Degradations = append(res.Degradations, Degradation{
		Stage: "fd-discovery", Budget: "max-rows", Action: "sampled rows", Detail: "5 of 10",
	})
	return res
}

// tpchResult is the result testdata/tpch.v1.json holds in version 1,
// as `normalize -maxlhs 2 -save-result` wrote it: testdata/tpch.csv, a
// projection of generated TPC-H data, normalized with max-LHS 2.
func tpchResult(t *testing.T) *Result {
	t.Helper()
	rel, err := relation.ReadCSVFile(filepath.Join("testdata", "tpch.csv"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NormalizeRelationsContext(context.Background(), []*relation.Relation{rel}, Options{MaxLhs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tpchSingleResult is tpchResult's run through NormalizeRelationContext.
func tpchSingleResult(t *testing.T) *Result {
	t.Helper()
	rel, err := relation.ReadCSVFile(filepath.Join("testdata", "tpch.csv"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NormalizeRelationContext(context.Background(), rel, Options{MaxLhs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	res := figure2Result(t)
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}

	if len(back.Tables) != len(res.Tables) {
		t.Fatalf("tables = %d, want %d", len(back.Tables), len(res.Tables))
	}
	for i, want := range res.Tables {
		got := back.Tables[i]
		// String renders name, attribute names, and primary-key marks —
		// it covers Name, Attrs, PrimaryKey, and sourceAttrs at once.
		if got.String() != want.String() {
			t.Errorf("table %d: %s != %s", i, got, want)
		}
		if !got.Data.SameRowSet(want.Data) {
			t.Errorf("table %d: instance differs", i)
		}
		if len(got.Keys) != len(want.Keys) || len(got.ForeignKeys) != len(want.ForeignKeys) {
			t.Errorf("table %d: keys %d/%d fks %d/%d", i,
				len(got.Keys), len(want.Keys), len(got.ForeignKeys), len(want.ForeignKeys))
		}
		if (got.FDs == nil) != (want.FDs == nil) {
			t.Errorf("table %d: FDs nil-ness differs", i)
		} else if got.FDs != nil && !got.FDs.Equal(want.FDs) {
			t.Errorf("table %d: FD sets differ", i)
		}
		if !got.NullAttrs.Equal(want.NullAttrs) {
			t.Errorf("table %d: null attrs differ", i)
		}
	}
	// Wall-clock durations are not encoded; everything else round-trips.
	wantStats := res.Stats
	wantStats.Discovery, wantStats.Closure, wantStats.KeyDerivation, wantStats.Violation = 0, 0, 0, 0
	if back.Stats != wantStats {
		t.Errorf("stats: %+v != %+v", back.Stats, wantStats)
	}
	if len(back.Degradations) != len(res.Degradations) ||
		back.Degradations[0] != res.Degradations[0] {
		t.Errorf("degradations: %+v != %+v", back.Degradations, res.Degradations)
	}

	// A second encode of the decoded result must be byte-identical —
	// the strongest cheap proof that nothing was lost.
	data2, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("encode(decode(encode(res))) differs from encode(res)")
	}

	// The encoding is reproducible: runs of one input at workers 1 and
	// 2 encode to the same bytes.
	ds, err := datagen.TPCH(0.0001, 1)
	if err != nil {
		t.Fatal(err)
	}
	var encs [2][]byte
	for i, workers := range []int{1, 2} {
		r, err := NormalizeRelation(ds.Denormalized, Options{MaxLhs: 3, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if encs[i], err = EncodeResult(r); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encs[0], encs[1]) {
		t.Errorf("encodings of one input differ between workers 1 (%d bytes) and 2 (%d bytes)", len(encs[0]), len(encs[1]))
	}
}

// TestDecodeResultIgnoresEncodedDurations: a version-1 payload from
// before the durations were dropped still carries them; it decodes,
// reports them as zero, and re-encodes to the bytes of the current
// encoding.
func TestDecodeResultIgnoresEncodedDurations(t *testing.T) {
	older := readFixture(t, "figure2-durations.v1.json")
	var w struct {
		Stats map[string]any `json:"stats"`
	}
	if err := json.Unmarshal(older, &w); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"discovery_ns", "closure_ns", "key_derivation_ns", "violation_ns"} {
		if _, ok := w.Stats[f]; !ok {
			t.Fatalf("fixture lacks %s", f)
		}
	}
	back, err := DecodeResult(older)
	if err != nil {
		t.Fatal(err)
	}
	if s := back.Stats; s.Discovery != 0 || s.Closure != 0 || s.KeyDerivation != 0 || s.Violation != 0 {
		t.Errorf("decoded durations %v %v %v %v, want zero", s.Discovery, s.Closure, s.KeyDerivation, s.Violation)
	}
	again, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(figure2Result(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("re-encoding the older payload differs from the current encoding")
	}
}

// TestDecodedResultServesDownstreamConsumers drives the decoded result
// through the same consumers the server's result endpoint uses.
func TestDecodedResultServesDownstreamConsumers(t *testing.T) {
	res, err := NormalizeRelation(figure2Relation(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	// Referential integrity works on the decoded schema (it resolves
	// tables by name and attribute sets by the universal space).
	if err := CheckReferentialIntegrity(back.Tables); err != nil {
		t.Errorf("referential integrity on decoded result: %v", err)
	}
	// AttrNames round-trips the unexported source attribute names.
	for i, want := range res.Tables {
		got := back.Tables[i]
		w, g := want.AttrNames(want.Attrs), got.AttrNames(got.Attrs)
		if len(w) != len(g) {
			t.Fatalf("table %d attr names: %v vs %v", i, g, w)
		}
		for j := range w {
			if w[j] != g[j] {
				t.Fatalf("table %d attr names: %v vs %v", i, g, w)
			}
		}
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	if _, err := DecodeResult([]byte("not json")); err == nil {
		t.Error("garbage decoded")
	}
	bad, _ := json.Marshal(map[string]any{"version": 99})
	if _, err := DecodeResult(bad); err == nil {
		t.Error("future version decoded")
	}
	if _, err := EncodeResult(nil); err == nil {
		t.Error("nil result encoded")
	}
	data, err := EncodeResult(figure2Result(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]byte{
		"truncated":      data[:len(data)-1],
		"trailing byte":  append(data[:len(data):len(data)], 0),
		"future version": append([]byte(resultMagic), resultVersion+1),
		"bare magic":     []byte(resultMagic),
	} {
		if _, err := DecodeResult(bad); err == nil {
			t.Errorf("version 2, %s: decoded", name)
		}
	}
}

// TestDecodeResultV1MatchesV2: a version-1 payload on disk and the
// version-2 encoding of the same result decode to equal results.
func TestDecodeResultV1MatchesV2(t *testing.T) {
	for _, c := range []struct {
		fixture string
		result  func(*testing.T) *Result
	}{
		{"figure2.v1.json", figure2Result},
		{"tpch.v1.json", tpchResult},
	} {
		t.Run(c.fixture, func(t *testing.T) {
			v1, err := DecodeResult(readFixture(t, c.fixture))
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeResult(c.result(t))
			if err != nil {
				t.Fatal(err)
			}
			v2, err := DecodeResult(data)
			if err != nil {
				t.Fatal(err)
			}
			if c.fixture == "tpch.v1.json" {
				// The CLI that wrote this fixture reported no RHS averages
				// for its one input; the fresh result carries the
				// single-relation path's.
				if v1.Stats.AvgRhsBefore != 0 || v1.Stats.AvgRhsAfter != 0 {
					t.Errorf("fixture averages %v/%v, want 0/0", v1.Stats.AvgRhsBefore, v1.Stats.AvgRhsAfter)
				}
				one := tpchSingleResult(t)
				if v2.Stats.AvgRhsBefore != one.Stats.AvgRhsBefore || v2.Stats.AvgRhsAfter != one.Stats.AvgRhsAfter {
					t.Errorf("averages %v/%v, want %v/%v", v2.Stats.AvgRhsBefore, v2.Stats.AvgRhsAfter,
						one.Stats.AvgRhsBefore, one.Stats.AvgRhsAfter)
				}
				v2.Stats.AvgRhsBefore, v2.Stats.AvgRhsAfter = 0, 0
			}
			if err := sameResult(v1, v2); err != nil {
				t.Error(err)
			}
		})
	}
}

// sameResult reports the first difference between two results in
// anything an encoding carries: every table's name, attribute space,
// rows, encoding, FDs, keys and null attributes, and the cover, score
// memo, degradations and Stats without durations.
func sameResult(a, b *Result) error {
	if len(a.Tables) != len(b.Tables) {
		return fmt.Errorf("%d tables, want %d", len(b.Tables), len(a.Tables))
	}
	for i, ta := range a.Tables {
		tb := b.Tables[i]
		switch {
		case ta.String() != tb.String() || ta.universe != tb.universe ||
			!reflect.DeepEqual(ta.sourceAttrs, tb.sourceAttrs) || !ta.Attrs.Equal(tb.Attrs):
			return fmt.Errorf("table %d: %s, want %s", i, tb, ta)
		case ta.Data.Name != tb.Data.Name || !reflect.DeepEqual(ta.Data.Attrs, tb.Data.Attrs):
			return fmt.Errorf("table %d: data %s%v, want %s%v", i, tb.Data.Name, tb.Data.Attrs, ta.Data.Name, ta.Data.Attrs)
		case !reflect.DeepEqual(ta.Data.Rows(), tb.Data.Rows()):
			return fmt.Errorf("table %d: rows differ", i)
		case !reflect.DeepEqual(ta.Data.Encode(), tb.Data.Encode()):
			return fmt.Errorf("table %d: encodings differ", i)
		case !sameFDs(ta.FDs, tb.FDs):
			return fmt.Errorf("table %d: FDs differ", i)
		case !sameSets(ta.Keys, tb.Keys):
			return fmt.Errorf("table %d: keys %v, want %v", i, tb.Keys, ta.Keys)
		case (ta.PrimaryKey == nil) != (tb.PrimaryKey == nil) ||
			ta.PrimaryKey != nil && !ta.PrimaryKey.Equal(tb.PrimaryKey):
			return fmt.Errorf("table %d: primary key %v, want %v", i, tb.PrimaryKey, ta.PrimaryKey)
		case len(ta.ForeignKeys) != len(tb.ForeignKeys):
			return fmt.Errorf("table %d: %d foreign keys, want %d", i, len(tb.ForeignKeys), len(ta.ForeignKeys))
		case !ta.NullAttrs.Equal(tb.NullAttrs):
			return fmt.Errorf("table %d: null attrs %v, want %v", i, tb.NullAttrs, ta.NullAttrs)
		}
		for j, fk := range ta.ForeignKeys {
			if fk.RefTable != tb.ForeignKeys[j].RefTable || !fk.Attrs.Equal(tb.ForeignKeys[j].Attrs) {
				return fmt.Errorf("table %d: foreign key %d differs", i, j)
			}
		}
	}
	if !sameFDs(a.Cover, b.Cover) {
		return fmt.Errorf("covers differ")
	}
	if (a.ScoreMemo == nil) != (b.ScoreMemo == nil) ||
		a.ScoreMemo != nil && (!sameMemo(a.ScoreMemo.Distinct, b.ScoreMemo.Distinct) || !sameMemo(a.ScoreMemo.MaxLen, b.ScoreMemo.MaxLen)) {
		return fmt.Errorf("score memos differ")
	}
	if len(a.Degradations) != len(b.Degradations) || len(a.Degradations) > 0 && !reflect.DeepEqual(a.Degradations, b.Degradations) {
		return fmt.Errorf("degradations %v, want %v", b.Degradations, a.Degradations)
	}
	sa, sb := a.Stats, b.Stats
	sa.Discovery, sa.Closure, sa.KeyDerivation, sa.Violation = 0, 0, 0, 0
	sb.Discovery, sb.Closure, sb.KeyDerivation, sb.Violation = 0, 0, 0, 0
	if sa != sb {
		return fmt.Errorf("stats %+v, want %+v", sb, sa)
	}
	return nil
}

// sameFDs compares FD sets FD by FD, in order.
func sameFDs(a, b *fd.Set) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.NumAttrs != b.NumAttrs || len(a.FDs) != len(b.FDs) {
		return false
	}
	for i, f := range a.FDs {
		if !f.Lhs.Equal(b.FDs[i].Lhs) || !f.Rhs.Equal(b.FDs[i].Rhs) {
			return false
		}
	}
	return true
}

func sameSets(a, b []*bitset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// sameMemo compares memo maps, a nil map equal to an empty one.
func sameMemo(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestDecodeResultRejectsOutOfUniverse: both versions reject a payload
// whose attribute indices leave their universe or whose attributes do
// not match its data columns, instead of decoding a result that panics
// when rendered.
func TestDecodeResultRejectsOutOfUniverse(t *testing.T) {
	// One table over source attributes a, b; each case edits one field.
	v1 := func(table, rest string) []byte {
		return []byte(`{"version":1,"tables":[{"name":"t","source_attrs":["a","b"],"data_name":"t",` +
			table + `}],"stats":{}` + rest + `}`)
	}
	const valid = `"attrs":[0,1],"data_attrs":["a","b"],"rows":[["x","y"]]`
	if _, err := DecodeResult(v1(valid, `,"cover":[{"lhs":[0],"rhs":[1]}],"cover_attrs":2`)); err != nil {
		t.Fatalf("valid version-1 payload: %v", err)
	}
	for name, data := range map[string][]byte{
		"attrs":            v1(`"attrs":[0,5],"data_attrs":["a","b"],"rows":[["x","y"]]`, ""),
		"negative attr":    v1(`"attrs":[-1,0],"data_attrs":["a","b"],"rows":[["x","y"]]`, ""),
		"attrs vs columns": v1(`"attrs":[0,1],"data_attrs":["a"],"rows":[["x"]]`, ""),
		"no attrs":         v1(`"attrs":[],"data_attrs":[],"rows":[]`, ""),
		"primary key":      v1(valid+`,"primary_key":[3]`, ""),
		"key":              v1(valid+`,"keys":[[0],[2]]`, ""),
		"foreign key":      v1(valid+`,"foreign_keys":[{"attrs":[4],"ref_table":"t"}]`, ""),
		"null attrs":       v1(valid+`,"null_attrs":[2]`, ""),
		"FD":               v1(valid+`,"fds":[{"lhs":[0],"rhs":[2]}],"fd_num_attrs":2`, ""),
		"FD universe":      v1(valid+`,"fds":[{"lhs":[0],"rhs":[1]}],"fd_num_attrs":3`, ""),
		"FD without size":  v1(valid+`,"fds":[{"lhs":[0],"rhs":[1]}]`, ""),
		"cover":            v1(valid, `,"cover":[{"lhs":[7],"rhs":[1]}],"cover_attrs":2`),
		"cover universe":   v1(valid, `,"cover":[{"lhs":[0],"rhs":[1]}],"cover_attrs":4000000000`),
		"cover, no table":  []byte(`{"version":1,"tables":[],"stats":{},"cover":[],"cover_attrs":2}`),
	} {
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("version 1, %s: decoded %s", name, data)
		}
	}

	// Version 2 cannot carry these through EncodeResult, which only
	// writes what it reads off a well-formed result, so the payloads
	// are written here field by field; v2 builds the same table as
	// valid above, with the given set words.
	v2 := func(attrs uint64, dataAttrs []string, pk, coverLhs uint64) []byte {
		e := &encoder{buf: append([]byte(resultMagic), resultVersion)}
		e.section(func(e *encoder) {
			for i := 0; i < 4; i++ {
				e.int(0)
			}
			e.float(0)
			e.float(0)
			e.int(0)
			e.count(0)
		})
		e.count(1)
		e.section(func(e *encoder) {
			e.strings("t")
			e.count(2)
			e.strings("a", "b")
			e.buf = binary.AppendUvarint(e.buf, attrs)
			e.strings("t")
			e.count(len(dataAttrs))
			e.strings(dataAttrs...)
			e.flag(false) // FDs
			e.count(0)    // keys
			e.flag(true)
			e.buf = binary.AppendUvarint(e.buf, pk)
			e.count(0)               // foreign keys
			e.buf = append(e.buf, 0) // null attrs
			e.count(1)               // rows
			for range dataAttrs {
				e.count(1) // dictionary ["x"]
				e.count(1)
				e.buf = append(e.buf, 'x', 0) // and code 0
			}
		})
		e.section(func(e *encoder) {
			e.flag(true)
			e.count(2)
			e.count(1)
			e.buf = binary.AppendUvarint(e.buf, coverLhs)
			e.buf = binary.AppendUvarint(e.buf, 0b10)
		})
		e.section(func(e *encoder) { e.flag(false) })
		return e.buf
	}
	ab := []string{"a", "b"}
	if _, err := DecodeResult(v2(0b11, ab, 0b01, 0b01)); err != nil {
		t.Fatalf("valid version-2 payload: %v", err)
	}
	for name, data := range map[string][]byte{
		"attrs":            v2(0b100001, ab, 0b01, 0b01),
		"attrs vs columns": v2(0b11, []string{"a"}, 0b01, 0b01),
		"primary key":      v2(0b11, ab, 0b1000, 0b01),
		"cover":            v2(0b11, ab, 0b01, 1<<7),
	} {
		if _, err := DecodeResult(data); err == nil {
			t.Errorf("version 2, %s: decoded", name)
		}
	}
}

// TestDecodeResultRejectsMalformedInstance: a version-2 table instance
// must be what encoding its rows would give.
func TestDecodeResultRejectsMalformedInstance(t *testing.T) {
	res := figure2Result(t)
	for name, edit := range map[string]func(tab *Table){
		"repeated dictionary value": func(tab *Table) {
			col := tab.Data.Columnar()
			col.Dicts[0][1] = col.Dicts[0][0]
		},
		"dictionary out of first-appearance order": func(tab *Table) {
			// The same rows, with Postcode's first two values relabeled.
			col := tab.Data.Columnar()
			dict, codes := col.Dicts[2], col.Enc.Columns[2]
			dict[0], dict[1] = dict[1], dict[0]
			for i, c := range codes {
				switch c {
				case 0:
					codes[i] = 1
				case 1:
					codes[i] = 0
				}
			}
		},
		"unused dictionary value": func(tab *Table) {
			col := tab.Data.Columnar()
			col.Dicts[0] = append(col.Dicts[0], "unused")
		},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := EncodeResult(res)
			if err != nil {
				t.Fatal(err)
			}
			good, err := DecodeResult(data)
			if err != nil {
				t.Fatal(err)
			}
			edit(good.Tables[2]) // address: five rows, all First values distinct
			data, err = EncodeResult(good)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := DecodeResult(data); err == nil || !strings.Contains(err.Error(), "decode result") {
				t.Errorf("decoded, err = %v", err)
			}
		})
	}
}
