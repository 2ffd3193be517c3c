// Package normalize is a data-driven schema normalization library: it
// turns relation instances into Boyce-Codd Normal Form (BCNF) using
// functional dependencies discovered from the data itself, implementing
// the Normalize system of Papenbrock & Naumann, "Data-driven Schema
// Normalization" (EDBT 2017).
//
// The pipeline mirrors Figure 1 of the paper:
//
//	(1) FD discovery        — a HyFD-style hybrid (or TANE) finds all
//	                          minimal functional dependencies.
//	(2) Closure calculation — right-hand sides are transitively
//	                          maximized (three algorithms, Section 4).
//	(3) Key derivation      — keys fall out of the extended FDs.
//	(4) Violation detection — FDs whose LHS is no (super)key.
//	(5) Violating-FD selection — candidates are scored and ranked;
//	                          a Decider (you, or the automatic default)
//	                          picks the split.
//	(6) Decomposition       — R splits into R\Y∪X and X∪Y with key and
//	                          foreign-key constraints.
//	(7) Primary key selection — key-less tables get a ranked choice of
//	                          discovered unique column combinations.
//
// Quick start:
//
//	rel, err := normalize.ReadCSVFile("addresses.csv")
//	if err != nil { ... }
//	res, err := normalize.Normalize(rel, normalize.Options{})
//	if err != nil { ... }
//	for _, t := range res.Tables {
//	    fmt.Println(t)
//	}
//	fmt.Println(normalize.DDL(res.Tables))
//
// The normalization runs entirely data-driven: every proposed
// decomposition is backed by functional dependencies with evidence in
// the instance, all redundancy observable in the data is removed, and
// the natural join of the resulting tables reproduces the original
// relation exactly (lossless decomposition).
package normalize

import (
	"context"
	"fmt"
	"io"
	"strings"

	"normalize/internal/core"
	"normalize/internal/delta"
	"normalize/internal/discovery/ind"
	"normalize/internal/export"
	"normalize/internal/relation"
	"normalize/internal/sqlgen"
	"normalize/internal/violation"
)

// Relation is a named relation instance over string-typed attributes.
// The empty string represents SQL null.
type Relation = relation.Relation

// NewRelation creates a relation from a header and rows, validating
// shape (no duplicate or empty attribute names, rectangular rows) and
// dictionary-encoding the rows; the relation keeps no reference to them.
func NewRelation(name string, attrs []string, rows [][]string) (*Relation, error) {
	return relation.New(name, attrs, rows)
}

// ReadCSV parses a relation from CSV; the first record is the header
// and empty fields are nulls.
func ReadCSV(name string, r io.Reader) (*Relation, error) {
	return relation.ReadCSV(name, r)
}

// ReadCSVFile reads a relation from a CSV file, named after the file.
func ReadCSVFile(path string) (*Relation, error) {
	return relation.ReadCSVFile(path)
}

// RowError records one malformed CSV row that ReadCSVLenient skipped:
// the 1-based line number and the reason (ragged field count, oversized
// field, or a quoting error).
type RowError = relation.RowError

// ReadCSVLenient parses like ReadCSV but records-and-skips malformed
// rows instead of aborting: ragged records, fields over the 1 MiB cap,
// and quoting errors each produce a RowError while the remaining rows
// load normally. Only an unreadable header is fatal.
func ReadCSVLenient(name string, r io.Reader) (*Relation, []RowError, error) {
	return relation.ReadCSVLenient(name, r)
}

// ReadCSVFileLenient is ReadCSVLenient over a file, named after the
// file.
func ReadCSVFileLenient(path string) (*Relation, []RowError, error) {
	return relation.ReadCSVFileLenient(path)
}

// Table is one relation of a normalized schema, with its materialized
// instance, keys, primary key, and foreign keys.
type Table = core.Table

// ForeignKey is a foreign-key constraint of a Table.
type ForeignKey = core.ForeignKey

// Options configures normalization; the zero value requests fully
// automatic BCNF normalization with HyFD discovery and the optimized
// closure.
type Options = core.Options

// Result is the outcome of a normalization run: the schema tables, the
// per-component statistics of the paper's evaluation, and — when the
// run had to degrade to stay inside Options.Budget or to survive a
// stage crash — the Degradations report.
type Result = core.Result

// Stats carries the per-component runtimes and FD-set characteristics
// reported in the paper's Table 3.
type Stats = core.Stats

// Budget bounds the resources one normalization run may consume (rows
// operated on, FD candidates retained, approximate memory). The zero
// value is unlimited. When a ceiling trips, the pipeline degrades
// deterministically — sampling rows, tightening the discovery LHS
// bound, accepting a partially extended closure, stopping further
// decomposition — and records each step in Result.Degradations rather
// than failing. Set it via Options.Budget.
type Budget = core.Budget

// Degradation records one deliberate quality reduction a run applied to
// stay inside its Budget or to survive a stage crash.
type Degradation = core.Degradation

// FormatDegradations renders a degradation report one line per entry,
// ready for a terminal.
func FormatDegradations(ds []Degradation) string {
	return core.FormatDegradations(ds)
}

// PartialError reports that a run stopped early — timeout,
// cancellation, budget exhaustion past the degradation ladder, or a
// stage crash — but still produced a usable result: the *Result
// returned alongside a *PartialError is non-nil and its tables are a
// lossless decomposition of the data the run operated on. Unwrap
// exposes the cause, so errors.Is(err, context.DeadlineExceeded) and
// errors.As with *StageError both see through it.
type PartialError = core.PartialError

// StageError attributes a stage-internal failure — typically a
// recovered panic, with the panic value and stack in its error chain —
// to the pipeline stage it occurred in.
type StageError = core.StageError

// Decider is the user-in-the-loop hook: it chooses the violating FD for
// each decomposition and the primary key for key-less tables.
type Decider = core.Decider

// AutoDecider always takes the top-ranked candidate (automatic mode).
type AutoDecider = core.AutoDecider

// FuncDecider adapts plain functions to the Decider interface.
type FuncDecider = core.FuncDecider

// RankedFD is a scored violating-FD candidate presented to a Decider.
type RankedFD = core.RankedFD

// RankedKey is a scored primary-key candidate presented to a Decider.
type RankedKey = core.RankedKey

// Mode selects the target normal form.
type Mode = violation.Mode

// Target normal forms.
const (
	// BCNF removes all FD-related redundancy (the default).
	BCNF = violation.BCNF
	// ThirdNF is slightly less strict but dependency-preserving.
	ThirdNF = violation.ThirdNF
	// SecondNF eliminates only partial dependencies on candidate keys.
	SecondNF = violation.SecondNF
)

// ParseMode maps the conventional normal-form names — "bcnf", "3nf",
// "2nf" (case-insensitive) — to a Mode. It is the single parser behind
// the CLI -mode flag and the server's JSON job options.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "bcnf":
		return BCNF, nil
	case "3nf":
		return ThirdNF, nil
	case "2nf":
		return SecondNF, nil
	}
	return BCNF, fmt.Errorf("unknown normal form %q (want bcnf, 3nf, or 2nf)", s)
}

// Closure algorithm selectors (Section 4 of the paper).
const (
	// ClosureOptimized is Algorithm 3, requiring the complete minimal
	// covers that FD discovery produces (the default).
	ClosureOptimized = core.ClosureOptimized
	// ClosureImproved is Algorithm 2 for arbitrary FD sets.
	ClosureImproved = core.ClosureImproved
	// ClosureNaive is Algorithm 1, the baseline.
	ClosureNaive = core.ClosureNaive
)

// ParseClosure maps the algorithm names "optimized", "improved", and
// "naive" (case-insensitive; empty selects the default) to a closure
// selector, mirroring ParseMode for Options.Closure.
func ParseClosure(s string) (core.ClosureAlgorithm, error) {
	switch strings.ToLower(s) {
	case "", "optimized":
		return ClosureOptimized, nil
	case "improved":
		return ClosureImproved, nil
	case "naive":
		return ClosureNaive, nil
	}
	return ClosureOptimized, fmt.Errorf("unknown closure algorithm %q (want optimized, improved, or naive)", s)
}

// Normalize runs the full pipeline on one relation instance. It is a
// thin wrapper over NormalizeContext with context.Background().
func Normalize(rel *Relation, opts Options) (*Result, error) {
	return core.NormalizeRelation(rel, opts)
}

// NormalizeContext is Normalize with cancellation and instrumentation:
// every pipeline stage polls ctx — a cancelled run returns ctx.Err()
// promptly (within ~100ms even mid-discovery) — and reports stage
// spans plus work counters to Options.Observer. A recording observer
// captures partial telemetry even for cancelled runs; see Observer.
//
// Runs that stop early — Options.Timeout expiring, ctx ending,
// Options.Budget exhausted past the degradation ladder, or a stage
// crash — return a non-nil *Result alongside a *PartialError: the
// tables produced so far plus the unprocessed remainder undecomposed,
// always a lossless decomposition, with Result.Degradations explaining
// what was given up. Only a ctx that is already dead on entry yields a
// nil result.
func NormalizeContext(ctx context.Context, rel *Relation, opts Options) (*Result, error) {
	return core.NormalizeRelationContext(ctx, rel, opts)
}

// NormalizeAll normalizes each relation of a dataset independently and
// concatenates the resulting tables.
func NormalizeAll(rels []*Relation, opts Options) (*Result, error) {
	return core.NormalizeRelations(rels, opts)
}

// NormalizeAllContext is NormalizeAll with cancellation and
// instrumentation; see NormalizeContext.
func NormalizeAllContext(ctx context.Context, rels []*Relation, opts Options) (*Result, error) {
	return core.NormalizeRelationsContext(ctx, rels, opts)
}

// VerifyNormalForm re-discovers the FDs of a table instance and checks
// the BCNF condition; it returns nil when the table conforms.
func VerifyNormalForm(t *Table) error {
	return core.VerifyNormalForm(t)
}

// DeltaConfig tunes one incremental delta normalization; see
// NormalizeDelta.
type DeltaConfig = delta.Config

// DeltaStats reports the incremental work of one delta normalization:
// candidates actually re-validated against the appended rows, parent
// cover FDs demoted versus reused, and whether the fallback to full
// re-discovery fired.
type DeltaStats = delta.Stats

// AppendRelation derives the combined relation base+rows with a
// columnar backing that extends the base's dictionary encoding, so the
// result is byte-identical to a fresh ingest of the concatenation and
// its profiling structures can be extended instead of rebuilt.
func AppendRelation(base *Relation, rows [][]string) (*Relation, error) {
	return delta.AppendRelation(base, rows)
}

// NormalizeDelta incrementally normalizes base plus the appended rows
// against a prior run's result instead of starting from scratch: the
// parent's minimal FD cover is re-validated only against the tuple
// pairs the new rows can have created, and its exact scoring facts are
// advanced in O(delta). The returned Result is byte-equivalent — DDL,
// schema JSON, per-table instances — to a from-scratch run on the
// concatenated input with the same options, at every worker count.
//
// The parent result must come from a completed, undegraded run of this
// library version (its Cover and ScoreMemo fields populated — true for
// every fresh Normalize result, preserved by EncodeResult/DecodeResult)
// and cfg.Options must match the parent run's for the differential
// guarantee to hold. Custom discovery and budgets do not compose with
// the incremental path and are rejected.
func NormalizeDelta(ctx context.Context, base *Relation, rows [][]string, parent *Result, cfg DeltaConfig) (*Result, *DeltaStats, error) {
	return delta.Normalize(ctx, base, rows, parent, cfg)
}

// EncodeResult serializes a Result — including the FD cover and exact
// scoring facts NormalizeDelta needs — into a self-contained, versioned
// binary payload that DecodeResult restores in another process. The
// payload leaves out Stats' wall-clock durations, so it is the same
// bytes for every run of one input; a decoded Result reports them as
// zero.
func EncodeResult(res *Result) ([]byte, error) {
	return core.EncodeResult(res)
}

// DecodeResult rebuilds a Result from EncodeResult's output, or from
// the JSON payload earlier releases wrote. It rejects a payload whose
// attribute indices or table instances are inconsistent instead of
// returning a Result that fails when rendered.
func DecodeResult(data []byte) (*Result, error) {
	return core.DecodeResult(data)
}

// DDL renders a normalized schema as SQL CREATE TABLE statements with
// primary- and foreign-key constraints, referenced tables first.
func DDL(tables []*Table) string {
	return sqlgen.Schema(tables)
}

// FourNFOptions configures Normalize4NF.
type FourNFOptions = core.FourNFOptions

// Normalize4NF decomposes a relation into Fourth Normal Form using
// discovered multivalued dependencies — the extension Section 6 of the
// paper sketches. MVD discovery is exponential in the attribute count,
// so this is meant as a refinement pass over small relations (e.g. the
// output tables of Normalize); relations wider than
// FourNFOptions.MaxAttrs (default 16) are rejected.
func Normalize4NF(rel *Relation, opts FourNFOptions) ([]*Relation, error) {
	return core.Normalize4NF(rel, opts)
}

// Normalize4NFContext is Normalize4NF with cancellation: the
// exponential MVD discovery polls ctx and the call returns ctx.Err()
// promptly when the context ends.
func Normalize4NFContext(ctx context.Context, rel *Relation, opts FourNFOptions) ([]*Relation, error) {
	return core.Normalize4NFContext(ctx, rel, opts)
}

// Verify4NF reports nil iff the relation contains no non-trivial
// multivalued dependency whose left-hand side is not a superkey.
func Verify4NF(rel *Relation, opts FourNFOptions) error {
	return core.Verify4NF(rel, opts)
}

// Verify4NFContext is Verify4NF with cancellation.
func Verify4NFContext(ctx context.Context, rel *Relation, opts FourNFOptions) error {
	return core.Verify4NFContext(ctx, rel, opts)
}

// IND is a unary inclusion dependency between attributes of (usually
// different) relations.
type IND = ind.IND

// FKSuggestion is a scored cross-relation foreign-key candidate.
type FKSuggestion = ind.FKCandidate

// DiscoverINDs finds all unary inclusion dependencies between the
// given relations (nulls ignored on the dependent side).
func DiscoverINDs(rels []*Relation) []IND {
	return ind.Discover(rels, ind.Options{})
}

// DiscoverINDsContext is DiscoverINDs with cancellation: the quadratic
// candidate sweep polls ctx and returns ctx.Err() promptly when the
// context ends.
func DiscoverINDsContext(ctx context.Context, rels []*Relation) ([]IND, error) {
	return ind.DiscoverContext(ctx, rels, ind.Options{})
}

// SuggestForeignKeys proposes foreign keys between the tables of a
// normalized schema (or any set of tables): unary inclusion
// dependencies into single-attribute primary keys, scored by coverage
// and attribute-name similarity. Within one relation Normalize derives
// foreign keys from functional dependencies; across independently
// normalized relations they come from inclusion dependencies — this is
// the cross-relation half, inspired by the foreign-key discovery work
// the paper's Section 7.2 credits.
func SuggestForeignKeys(tables []*Table) []FKSuggestion {
	rels := make([]*Relation, len(tables))
	var keyed []ind.KeyedAttr
	for i, t := range tables {
		rels[i] = t.Data
		if t.PrimaryKey != nil && t.PrimaryKey.Cardinality() == 1 {
			keyed = append(keyed, ind.KeyedAttr{
				Relation:  t.Name,
				Attribute: t.AttrNames(t.PrimaryKey)[0],
			})
		}
	}
	return ind.SuggestForeignKeys(ind.Discover(rels, ind.Options{}), keyed)
}

// CompositeFKSuggestion is a scored n-ary foreign-key candidate.
type CompositeFKSuggestion = ind.CompositeFK

// SuggestCompositeForeignKeys proposes n-ary foreign keys between the
// tables of a normalized schema: combinations of dependent columns that
// are included (as tuples) in another table's multi-attribute primary
// key — the references SuggestForeignKeys cannot express, e.g. a line
// item's (partkey, suppkey) into partsupp.
func SuggestCompositeForeignKeys(tables []*Table) []CompositeFKSuggestion {
	rels := make([]*Relation, len(tables))
	var keys []ind.CompositeKey
	for i, t := range tables {
		rels[i] = t.Data
		if t.PrimaryKey != nil && t.PrimaryKey.Cardinality() >= 2 {
			keys = append(keys, ind.CompositeKey{
				Relation: t.Name,
				Cols:     t.AttrNames(t.PrimaryKey),
			})
		}
	}
	return ind.SuggestCompositeForeignKeys(rels, keys)
}

// SchemaJSON serializes a normalization result as indented JSON
// (tables, keys, foreign keys, statistics) for downstream tooling.
func SchemaJSON(res *Result) ([]byte, error) {
	return export.Schema(res)
}

// FDSetJSON serializes a discovered FD set with attribute names.
func FDSetJSON(rel *Relation, fds *FDSet) ([]byte, error) {
	return export.FDSet(rel.Name, rel.Attrs, fds)
}

// Dot renders a normalized schema as a Graphviz digraph (one record
// node per table, one edge per foreign key) for visual inspection —
// pipe through `dot -Tsvg`.
func Dot(tables []*Table) string {
	return sqlgen.Dot(tables)
}

// CheckReferentialIntegrity verifies every foreign key of a normalized
// schema: each value combination of a referencing table must exist in
// the referenced table. The decomposition guarantees this by
// construction; the check catches drift after manual edits. Constraint
// enforcement for new rows is available as (*Table).CheckInsert and
// (*Table).Insert.
func CheckReferentialIntegrity(tables []*Table) error {
	return core.CheckReferentialIntegrity(tables)
}
