package core

// Round-trippable serialization of normalization results, used by the
// server's persistent job store to carry terminal results across
// process restarts. The wire form is JSON with bitsets flattened to
// element slices and each table's universal attribute space made
// explicit, so a decoded Result serves DDL, schema JSON, and row
// payloads exactly like the original.

import (
	"encoding/json"
	"fmt"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/relation"
)

// resultWire is the serialized form of a Result. Cover and ScoreMemo
// ride along for the delta plane (absent on results of older runs —
// both fields are optional and delta-normalization simply refuses
// parents without them); the version stays 1 because decoders ignore
// unknown fields and old payloads decode into nil fields.
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

// statsWire mirrors Stats without its wall-clock durations, so two
// runs of one input encode to the same bytes at any worker count.
// Encodings from before the durations were dropped carry them as
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

const resultWireVersion = 1

// EncodeResult serializes a Result for persistence. The encoding is
// self-contained: DecodeResult on another process rebuilds a Result
// whose tables render identical DDL, schema JSON, and instances. It is
// also reproducible: Stats' wall-clock durations are not written, so
// runs of one input encode byte-identically at every worker count.
func EncodeResult(res *Result) ([]byte, error) {
	if res == nil {
		return nil, fmt.Errorf("core: cannot encode nil result")
	}
	w := resultWire{
		Version: resultWireVersion,
		Stats: statsWire{
			Attrs:          res.Stats.Attrs,
			Records:        res.Stats.Records,
			NumFDs:         res.Stats.NumFDs,
			NumFDKeys:      res.Stats.NumFDKeys,
			AvgRhsBefore:   res.Stats.AvgRhsBefore,
			AvgRhsAfter:    res.Stats.AvgRhsAfter,
			Decompositions: res.Stats.Decompositions,
		},
	}
	for _, d := range res.Degradations {
		w.Degradations = append(w.Degradations, degradationWire{
			Stage: string(d.Stage), Budget: d.Budget, Action: d.Action, Detail: d.Detail,
		})
	}
	if res.Cover != nil {
		w.CoverAttrs = res.Cover.NumAttrs
		for _, f := range res.Cover.FDs {
			w.Cover = append(w.Cover, fdWire{Lhs: f.Lhs.Elements(), Rhs: f.Rhs.Elements()})
		}
	}
	w.ScoreMemo = res.ScoreMemo
	for _, t := range res.Tables {
		tw, err := encodeTable(t)
		if err != nil {
			return nil, err
		}
		w.Tables = append(w.Tables, tw)
	}
	return json.Marshal(w)
}

func encodeTable(t *Table) (tableWire, error) {
	if t.Attrs == nil || t.Data == nil {
		return tableWire{}, fmt.Errorf("core: table %q incomplete, cannot encode", t.Name)
	}
	tw := tableWire{
		Name:        t.Name,
		SourceAttrs: t.sourceAttrs,
		Attrs:       t.Attrs.Elements(),
		DataName:    t.Data.Name,
		DataAttrs:   t.Data.Attrs,
		Rows:        t.Data.Rows(),
	}
	if t.FDs != nil {
		tw.FDNumAttrs = t.FDs.NumAttrs
		for _, f := range t.FDs.FDs {
			tw.FDs = append(tw.FDs, fdWire{Lhs: f.Lhs.Elements(), Rhs: f.Rhs.Elements()})
		}
	}
	for _, k := range t.Keys {
		tw.Keys = append(tw.Keys, k.Elements())
	}
	if t.PrimaryKey != nil {
		pk := t.PrimaryKey.Elements()
		tw.PrimaryKey = &pk
	}
	for _, fk := range t.ForeignKeys {
		tw.ForeignKeys = append(tw.ForeignKeys, foreignKeyWire{
			Attrs: fk.Attrs.Elements(), RefTable: fk.RefTable,
		})
	}
	if t.NullAttrs != nil {
		tw.NullAttrs = t.NullAttrs.Elements()
	}
	return tw, nil
}

// DecodeResult rebuilds a Result from EncodeResult's output.
func DecodeResult(data []byte) (*Result, error) {
	var w resultWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("core: decode result: %w", err)
	}
	if w.Version != resultWireVersion {
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
		t, err := decodeTable(&w.Tables[i])
		if err != nil {
			return nil, err
		}
		res.Tables = append(res.Tables, t)
	}
	if w.CoverAttrs > 0 {
		res.Cover = fd.NewSet(w.CoverAttrs)
		for _, f := range w.Cover {
			res.Cover.FDs = append(res.Cover.FDs, &fd.FD{
				Lhs: bitset.Of(w.CoverAttrs, f.Lhs...),
				Rhs: bitset.Of(w.CoverAttrs, f.Rhs...),
			})
		}
	}
	res.ScoreMemo = w.ScoreMemo
	return res, nil
}

func decodeTable(tw *tableWire) (*Table, error) {
	universe := len(tw.SourceAttrs)
	data, err := relation.New(tw.DataName, tw.DataAttrs, tw.Rows)
	if err != nil {
		return nil, fmt.Errorf("core: decode table %q: %w", tw.Name, err)
	}
	t := &Table{
		Name:        tw.Name,
		Attrs:       bitset.Of(universe, tw.Attrs...),
		Data:        data,
		universe:    universe,
		sourceAttrs: tw.SourceAttrs,
	}
	if tw.FDNumAttrs > 0 || len(tw.FDs) > 0 {
		t.FDs = fd.NewSet(tw.FDNumAttrs)
		for _, f := range tw.FDs {
			t.FDs.FDs = append(t.FDs.FDs, &fd.FD{
				Lhs: bitset.Of(tw.FDNumAttrs, f.Lhs...),
				Rhs: bitset.Of(tw.FDNumAttrs, f.Rhs...),
			})
		}
	}
	for _, k := range tw.Keys {
		t.Keys = append(t.Keys, bitset.Of(universe, k...))
	}
	if tw.PrimaryKey != nil {
		t.PrimaryKey = bitset.Of(universe, (*tw.PrimaryKey)...)
	}
	for _, fk := range tw.ForeignKeys {
		t.ForeignKeys = append(t.ForeignKeys, ForeignKey{
			Attrs: bitset.Of(universe, fk.Attrs...), RefTable: fk.RefTable,
		})
	}
	// NullAttrs is always non-nil on pipeline-built tables (Insert and
	// CheckInsert dereference it), so restore it even when empty.
	t.NullAttrs = bitset.Of(universe, tw.NullAttrs...)
	return t, nil
}
