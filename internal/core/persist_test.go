package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"normalize/internal/datagen"
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

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	res, err := NormalizeRelation(figure2Relation(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res.Degradations = append(res.Degradations, Degradation{
		Stage: "fd-discovery", Budget: "max-rows", Action: "sampled rows", Detail: "5 of 10",
	})

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

// TestDecodeResultIgnoresEncodedDurations: an encoding that still
// carries the four wall-clock durations decodes, reports them as zero,
// and re-encodes to the bytes of the current encoding.
func TestDecodeResultIgnoresEncodedDurations(t *testing.T) {
	res, err := NormalizeRelation(figure2Relation(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var w map[string]any
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	stats := w["stats"].(map[string]any)
	for _, f := range []string{"discovery_ns", "closure_ns", "key_derivation_ns", "violation_ns"} {
		if _, ok := stats[f]; ok {
			t.Fatalf("encoding carries %s", f)
		}
		stats[f] = int64(123 * time.Millisecond)
	}
	older, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
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
}
