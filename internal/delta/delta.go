// Package delta implements incremental re-normalization of a relation
// that grew by appended rows. Instead of re-profiling the whole
// instance, it re-validates the parent run's minimal FD cover against
// only the tuple pairs the new rows can have created, demotes and
// locally re-specializes what the delta refuted, and reuses every
// untouched region of the lattice verbatim — HyFD's own validation
// loop in its revalidation mode (hyfd.Revalidate). The parent's exact
// scoring facts (core.ScoreMemo) are maintained in O(delta) per
// attribute set, so the downstream pipeline — closure, decomposition,
// candidate selection, primary keys — reruns on the combined instance
// with every expensive measurement already known.
//
// Correctness rests on two monotonicity facts. First, appending rows
// only removes FDs: a violating pair of the base instance persists in
// the combined one, so every FD that holds on base+delta holds on the
// base — the parent cover is a complete starting hypothesis. Second,
// every candidate the re-specialization tree ever holds has an
// ancestor in the parent cover and therefore holds on the base rows,
// so a violation can only involve an appended row — which is why
// checking only delta-touched partition clusters is authoritative, not
// an approximation. The result is pinned differentially: delta
// normalization of base+delta produces DDL byte-identical to a
// from-scratch run on the concatenated input, at every worker count.
package delta

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"normalize/internal/core"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/relation"
)

// Config tunes one delta normalization.
type Config struct {
	// FallbackFraction is the demotion budget: when the delta refutes
	// more than this fraction of the parent cover's single-RHS FDs, the
	// incremental path abandons its tree and re-runs ordinary discovery
	// on the combined instance (still on the extended substrate). 0
	// means the default of 0.3; negative disables the fallback.
	FallbackFraction float64
	// Options configures the downstream pipeline run exactly like a
	// from-scratch core.NormalizeRelationContext call. Mode, MaxLhs,
	// Workers and Closure must match the parent run for the differential
	// guarantee to hold. Discover/DiscoverContext must be nil and
	// Budget must be zero — degradation ladders re-sample the input,
	// which would silently void the parent cover's validity.
	Options core.Options
}

// DefaultFallbackFraction is the demotion budget used when
// Config.FallbackFraction is zero.
const DefaultFallbackFraction = 0.3

// Stats reports the incremental work of one delta normalization.
type Stats struct {
	// DeltaRows is the number of appended rows.
	DeltaRows int
	// Checked counts candidate validations actually performed — FDs
	// whose LHS partition had at least one cluster touched by an
	// appended row. Untouched candidates are accepted without work.
	Checked int64
	// Demoted counts parent-cover single-RHS FDs the delta refuted.
	Demoted int64
	// Reused counts parent-cover single-RHS FDs carried into the new
	// cover without re-validation of the base rows.
	Reused int64
	// FellBack reports that demotions exceeded the fallback fraction
	// and discovery re-ran from scratch on the combined instance.
	FellBack bool
}

// AppendRelation derives the combined relation base+rows with a
// columnar backing that extends the base's encoding: appended values
// are coded against the base dictionaries in first-appearance order, so
// the result is byte-identical to a fresh ingest of the concatenation
// and its PLIs can be extended instead of rebuilt. The base relation is
// left untouched.
func AppendRelation(base *relation.Relation, rows [][]string) (*relation.Relation, error) {
	grown, err := base.Columnar().Append(rows)
	if err != nil {
		return nil, fmt.Errorf("delta: append to %s: %w", base.Name, err)
	}
	return relation.NewColumnar(base.Name, base.Attrs, grown)
}

// Normalize incrementally normalizes base plus the appended rows
// against the parent run's result. The returned Result is
// byte-equivalent (DDL, schema JSON, per-table instances) to a
// from-scratch core.NormalizeRelationContext run on the concatenated
// input with the same options. The parent must carry the delta facts —
// Cover and ScoreMemo, present on every completed undegraded run — and
// must not have degraded, since a degraded run profiled a sample
// rather than the instance the delta extends.
func Normalize(ctx context.Context, base *relation.Relation, rows [][]string, parent *core.Result, cfg Config) (*core.Result, *Stats, error) {
	if parent == nil || parent.Cover == nil || parent.ScoreMemo == nil {
		return nil, nil, fmt.Errorf("delta: parent result lacks cover/score facts (degraded or pre-delta run); re-run from scratch")
	}
	if len(parent.Degradations) > 0 {
		return nil, nil, fmt.Errorf("delta: parent run degraded (%d degradations); its cover describes a sample, not the base", len(parent.Degradations))
	}
	if cfg.Options.Discover != nil || cfg.Options.DiscoverContext != nil {
		return nil, nil, fmt.Errorf("delta: custom discovery cannot compose with incremental re-validation")
	}
	if !cfg.Options.Budget.IsZero() {
		return nil, nil, fmt.Errorf("delta: budget degradation cannot compose with incremental re-validation")
	}
	if n := base.NumAttrs(); n != parent.Cover.NumAttrs {
		return nil, nil, fmt.Errorf("delta: base has %d attributes, parent cover %d", n, parent.Cover.NumAttrs)
	}

	combined, err := AppendRelation(base, rows)
	if err != nil {
		return nil, nil, err
	}
	baseRows := base.NumRows()
	sub := plicache.Extend(plicache.New(base.Encode()), combined.Encode())

	stats := &Stats{DeltaRows: len(rows)}
	frac := cfg.FallbackFraction
	if frac == 0 {
		frac = DefaultFallbackFraction
	}
	maxDemoted := -1
	if frac >= 0 {
		maxDemoted = int(frac * float64(parent.Cover.CountSingle()))
	}

	opts := cfg.Options
	if opts.ScoreSeed, err = maintainMemo(parent.ScoreMemo, combined.Columnar(), sub, baseRows); err != nil {
		return nil, nil, err
	}
	obs := observe.Or(opts.Observer)
	opts.DiscoverContext = func(dctx context.Context, rel *relation.Relation) (*fd.Set, error) {
		hopts := hyfd.Options{MaxLhs: opts.MaxLhs, Workers: opts.Workers, Observer: opts.Observer}
		if rel != combined {
			// The pipeline re-sampled the input (only possible under a
			// budget, which the guards reject) or was handed a different
			// relation: the parent cover says nothing about it, so run
			// ordinary discovery for correctness.
			return hyfd.DiscoverContext(dctx, rel, hopts)
		}
		hopts.Substrate = sub
		fds, rv, err := hyfd.Revalidate(dctx, combined, parent.Cover, baseRows, maxDemoted, hopts)
		if errors.Is(err, hyfd.ErrTooManyDemoted) {
			stats.FellBack = true
			return hyfd.DiscoverContext(dctx, combined, hopts)
		}
		if err != nil {
			return nil, err
		}
		stats.Checked += rv.Checked
		stats.Demoted += rv.Demoted
		stats.Reused += rv.Reused
		obs.Counter(observe.Discovery, observe.CounterDeltaFDsChecked, stats.Checked)
		obs.Counter(observe.Discovery, observe.CounterDeltaFDsDemoted, stats.Demoted)
		obs.Counter(observe.Discovery, observe.CounterDeltaLatticeReused, stats.Reused)
		return fds, nil
	}

	res, err := core.NormalizeRelationContext(ctx, combined, opts)
	return res, stats, err
}

// maintainMemo advances the parent's exact scoring facts to the
// combined instance in O(delta) work per attribute set. Distinct
// counts grow by the number of appended rows whose value combination
// over the set is genuinely new — decided by probing the combined
// inverted indexes: an appended row whose code is a singleton in any
// member attribute can match no earlier row, and otherwise only the
// members of its (most selective) pivot cluster that precede it need
// comparing. Max value lengths grow by at most the appended rows' own
// lengths. Sets the parent never measured are simply absent; the
// child run computes them fresh, which is equally exact.
func maintainMemo(parent *core.ScoreMemo, col *relation.Columnar, sub *plicache.Substrate, baseRows int) (*core.ScoreMemo, error) {
	memo := &core.ScoreMemo{
		Distinct: make(map[string]int, len(parent.Distinct)),
		MaxLen:   make(map[string]int, len(parent.MaxLen)),
	}
	enc := sub.Encoded()
	total := enc.NumRows
	// A column partition is acquired when a set first needs it and held
	// until every set is counted. The rest are left for revalidation,
	// which builds them on the worker pool.
	parts := make([]*pli.PLI, len(enc.Columns))
	for key, d := range parent.Distinct {
		attrs := parseMemoKey(key, len(enc.Columns))
		if attrs == nil {
			continue
		}
		if len(attrs) == 1 {
			// The dictionary already deduplicates single attributes.
			memo.Distinct[key] = enc.Cardinality[attrs[0]]
			continue
		}
		for _, a := range attrs {
			if parts[a] != nil {
				continue
			}
			h, err := sub.Handle(a)
			if err != nil {
				return nil, err
			}
			if parts[a], err = h.Acquire(); err != nil {
				return nil, err
			}
			defer h.Release() // at most once per attribute
		}
		memo.Distinct[key] = d + countNewCombos(enc, parts, attrs, baseRows)
	}
	for key, l := range parent.MaxLen {
		attrs := parseMemoKey(key, len(enc.Columns))
		if attrs == nil {
			continue
		}
		maxLen := l
		for r := baseRows; r < total; r++ {
			n := 0
			for _, a := range attrs {
				n += len(col.Dicts[a][enc.Columns[a][r]])
			}
			if n > maxLen {
				maxLen = n
			}
		}
		memo.MaxLen[key] = maxLen
	}
	return memo, nil
}

// countNewCombos counts appended rows introducing a value combination
// over attrs that no earlier row (base or prior appended) holds; parts
// holds the partition of every attribute in attrs.
func countNewCombos(enc *relation.Encoded, parts []*pli.PLI, attrs []int, baseRows int) int {
	total := enc.NumRows
	// Pivot on the most selective member: its clusters are the shortest
	// candidate lists an appended row has to be compared against.
	pivot := attrs[0]
	for _, a := range attrs[1:] {
		if enc.Cardinality[a] > enc.Cardinality[pivot] {
			pivot = a
		}
	}
	pivotClusters := parts[pivot].Clusters()
	pivotInv := parts[pivot].Inverted()
	inv := make([][]int, len(attrs))
	for i, a := range attrs {
		inv[i] = parts[a].Inverted()
	}
	count := 0
rows:
	for r := baseRows; r < total; r++ {
		for _, iv := range inv {
			if iv[r] < 0 {
				// r is the only row with this value in that attribute, so
				// no other row can agree on the whole set: a new combo.
				count++
				continue rows
			}
		}
		// Compare against earlier members of r's pivot cluster (cluster
		// rows ascend, so the scan stops at r itself).
		for _, m := range pivotClusters[pivotInv[r]] {
			if m >= r {
				break
			}
			match := true
			for _, a := range attrs {
				if enc.Columns[a][m] != enc.Columns[a][r] {
					match = false
					break
				}
			}
			if match {
				continue rows
			}
		}
		count++
	}
	return count
}

// parseMemoKey decodes a canonical "1,2,5" memo key into ascending
// attribute indexes, rejecting anything out of range (a memo from a
// foreign instance cannot poison the run — unparseable keys are
// dropped and their sets recomputed exactly).
func parseMemoKey(key string, numAttrs int) []int {
	if key == "" {
		return nil
	}
	parts := strings.Split(key, ",")
	attrs := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v >= numAttrs {
			return nil
		}
		attrs[i] = v
	}
	return attrs
}
