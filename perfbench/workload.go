package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"normalize"
)

// Workload parameters. They are the benchmark's contract: later
// changes are measured against these exact inputs.
const (
	maxLHS = 3
	// committedSeed is the seed the workloads and the governed ceiling
	// were tuned on; the seed sweep covers it and twenty others.
	committedSeed = 1
	tpchScale     = 0.0002
	deltaScale    = 0.001
	// The last 1/deltaShare of delta-append's rows are the delta.
	deltaShare = 100
	ordersRows = 60000
	// ordersCeiling is orders-governed's fixed memory ceiling. Over the
	// sweep's seeds every run stays exact from 16.25 MiB up and still
	// spills PLIs up to 21 MiB, against a PLI footprint of ~46 MiB
	// (TestGovernedMargins; provenance.json), so at 19 MiB every seed
	// runs exactly and exercises the store's spill path.
	ordersCeiling = 19 << 20
)

// workload is one named input family and the operation timed on it.
type workload struct {
	name string
	why  string
	// inputs is how many inputs a run makes from its seed. Operations
	// take them in turn, so a run's medians average over the inputs'
	// differing shapes instead of hanging on one draw.
	inputs int
	// governed runs ingest and normalization under ordersCeiling.
	governed bool
	// load builds one input from a seed. It is the benchmark's own
	// work and counts towards no metric.
	load func(seed int64) (*input, error)
}

var workloads = []workload{
	{
		name:   "tpch",
		why:    "Figure 3's wide, high-cardinality TPC-H universal relation: FD induction and violating-FD selection dominate",
		inputs: 4,
		load: func(seed int64) (*input, error) {
			ds, err := normalize.GenerateTPCH(tpchScale, seed)
			if err != nil {
				return nil, err
			}
			rel := ds.Denormalized
			return &input{name: rel.Name, csv: csvRows(rel, 0, rel.NumRows())}, nil
		},
	},
	{
		name:     "orders-governed",
		why:      "many rows, few attributes, under a memory ceiling below the PLI footprint: the PLI store, budget, ingest and UCC layers run",
		inputs:   2,
		governed: true,
		load: func(seed int64) (*input, error) {
			return &input{name: "orders", csv: ordersCSV(seed, ordersRows)}, nil
		},
	},
	{
		name:   "delta-append",
		why:    "an incremental 1% append to TPC-H: result decoding and delta revalidation replace sampling and induction",
		inputs: 3,
		load: func(seed int64) (*input, error) {
			ds, err := normalize.GenerateTPCH(deltaScale, seed)
			if err != nil {
				return nil, err
			}
			rel := ds.Denormalized
			n := rel.NumRows()
			cut := n - n/deltaShare
			return &input{name: rel.Name, csv: csvRows(rel, 0, cut), deltaCSV: csvRows(rel, cut, n)}, nil
		},
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// inputSeed is the seed of a run's j-th input: the run's own seed for
// the first, so seed s always includes the workload's input for s.
func inputSeed(seed int64, j int) int64 { return seed + int64(j)<<32 }

// newInstance makes a run's inputs from its seed.
func (w *workload) newInstance(seed int64) (*instance, error) {
	in := &instance{w: w}
	if w.governed {
		in.ceiling = ordersCeiling
	}
	for j := 0; j < w.inputs; j++ {
		x, err := w.load(inputSeed(seed, j))
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", j, err)
		}
		in.inputs = append(in.inputs, x)
	}
	return in, nil
}

// instance is one run's inputs and settings.
type instance struct {
	w      *workload
	inputs []*input
	// ceiling is the memory ceiling ingest and normalization run
	// under, 0 for none.
	ceiling int64
	// spillDir receives the spill files of a run under a ceiling.
	spillDir string
}

// input is one input of a run plus the state its set-up made.
type input struct {
	name string // relation name, which the DDL's table names derive from
	csv  []byte // the input; the base on delta-append
	// deltaCSV holds the appended rows, header included (delta-append).
	deltaCSV []byte
	// parent is the encoded result of normalizing the base, made in
	// set-up (delta-append).
	parent []byte
	// want is the DDL of the input's checked operation.
	want string
}

// shape counts the input's rows, base and delta together, and its
// attributes.
func (x *input) shape() (rows, attrs int) {
	for _, b := range [][]byte{x.csv, x.deltaCSV} {
		if n := bytes.Count(b, []byte{'\n'}); n > 0 {
			rows += n - 1 // each CSV has a header line
		}
	}
	return rows, bytes.Count(x.csv[:bytes.IndexByte(x.csv, '\n')], []byte{','}) + 1
}

// csvRows renders rows [from, to) of rel as CSV with a header.
func csvRows(rel *normalize.Relation, from, to int) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.Write(rel.Attrs)
	row := make([]string, rel.NumAttrs())
	for i := from; i < to; i++ {
		for c := range row {
			row[c] = rel.Value(i, c)
		}
		w.Write(row)
	}
	w.Flush() // writing to a bytes.Buffer cannot fail
	return b.Bytes()
}

// ordersCSV generates orders-governed's input: a denormalized
// order-line star with a unique line id, three dimensions
// (customer→{region, segment}, product→{category, price},
// warehouse→city) and independent low-cardinality measures. The pools
// keep every three-attribute combination of non-key columns far from
// unique at this row count, so no accidental FD survives on any seed.
func ordersCSV(seed int64, rows int) []byte {
	r := rand.New(rand.NewSource(seed))
	type customer struct{ region, segment string }
	type product struct{ category, price string }
	customers := make([]customer, 1500)
	for i := range customers {
		customers[i] = customer{fmt.Sprintf("region-%d", r.Intn(6)), fmt.Sprintf("segment-%d", r.Intn(5))}
	}
	products := make([]product, 800)
	for i := range products {
		products[i] = product{fmt.Sprintf("category-%02d", r.Intn(40)), fmt.Sprintf("%d.%02d", 1+r.Intn(300), 5*r.Intn(20))}
	}
	cities := make([]string, 40)
	for i := range cities {
		cities[i] = fmt.Sprintf("city-%02d", r.Intn(15))
	}
	modes := []string{"air", "mail", "ship", "rail", "truck", "courier", "pickup"}
	statuses := []string{"open", "packed", "shipped", "delivered"}

	var b bytes.Buffer
	b.WriteString("line_id,customer,region,segment,product,category,price,warehouse,city,quantity,discount,ship_mode,status\n")
	for i := 0; i < rows; i++ {
		c, p, w := r.Intn(len(customers)), r.Intn(len(products)), r.Intn(len(cities))
		fmt.Fprintf(&b, "L%07d,customer-%04d,%s,%s,product-%03d,%s,%s,warehouse-%02d,%s,%d,0.%02d,%s,%s\n",
			i, c, customers[c].region, customers[c].segment,
			p, products[p].category, products[p].price,
			w, cities[w], 1+r.Intn(50), r.Intn(11), modes[r.Intn(len(modes))], statuses[r.Intn(len(statuses))])
	}
	return b.Bytes()
}

// options are the normalization options of every run: max-LHS 3 and
// one validation worker per CPU, under the instance's ceiling if any.
func (in *instance) options(obs normalize.Observer) normalize.Options {
	o := normalize.Options{MaxLhs: maxLHS, Workers: runtime.NumCPU(), Observer: obs}
	if in.ceiling > 0 {
		o.Budget.MaxMemoryBytes = in.ceiling
		o.SpillDir = in.spillDir
	}
	return o
}

func (in *instance) ingestOptions(obs normalize.Observer) normalize.IngestOptions {
	o := normalize.IngestOptions{Workers: runtime.NumCPU(), Observer: obs}
	if in.ceiling > 0 {
		o.MaxMemoryBytes = in.ceiling
		o.SpillDir = in.spillDir
	}
	return o
}

// setUp does the program work the timed operations on x depend on: on
// delta-append, the parent run over the base and its encoding.
func (in *instance) setUp(ctx context.Context, x *input) error {
	if x.deltaCSV == nil {
		return nil
	}
	base, _, err := normalize.IngestCSV(ctx, x.name, bytes.NewReader(x.csv), in.ingestOptions(nil))
	if err != nil {
		return fmt.Errorf("ingest base: %w", err)
	}
	parent, err := normalize.NormalizeContext(ctx, base, in.options(nil))
	if err != nil {
		return fmt.Errorf("normalize base: %w", err)
	}
	x.parent, err = normalize.EncodeResult(parent)
	if err != nil {
		return fmt.Errorf("encode parent: %w", err)
	}
	return nil
}

// opResult is what one operation hands back to the output check.
type opResult struct {
	res   *normalize.Result
	ddl   string
	delta *normalize.DeltaStats
}

// failure is the cheap per-operation check of a run that returned no
// error: an undegraded result whose DDL is the checked operation's.
func (o *opResult) failure(want string) error {
	if len(o.res.Degradations) > 0 {
		return fmt.Errorf("degraded: %s", normalize.FormatDegradations(o.res.Degradations))
	}
	if o.ddl != want {
		return fmt.Errorf("DDL differs from the checked operation's")
	}
	return nil
}

// op runs one operation: the public calls a user makes to turn the
// input into a schema. With a non-nil tracer each call is a span; obs,
// when non-nil, receives the pipeline's stage events.
func (in *instance) op(ctx context.Context, x *input, t *tracer, obs normalize.Observer) (*opResult, error) {
	var rel *normalize.Relation
	err := t.call(callIngestCSV, func() (err error) {
		rel, _, err = normalize.IngestCSV(ctx, x.name, bytes.NewReader(x.csv), in.ingestOptions(obs))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	out := &opResult{}
	if x.deltaCSV == nil {
		err = t.call(callNormalize, func() (err error) {
			out.res, err = normalize.NormalizeContext(ctx, rel, in.options(obs))
			return err
		})
	} else {
		err = in.appendDelta(ctx, x, t, obs, rel, out)
	}
	if err != nil {
		return out, err
	}
	t.call(callDDL, func() error {
		out.ddl = normalize.DDL(out.res.Tables)
		return nil
	})
	if in.ceiling > 0 {
		if err := emptyDir(in.spillDir); err != nil {
			return out, err
		}
	}
	return out, nil
}

// appendDelta is what `normalize -append-to` does, in memory: decode
// the saved parent, read the delta file, normalize incrementally.
func (in *instance) appendDelta(ctx context.Context, x *input, t *tracer, obs normalize.Observer, base *normalize.Relation, out *opResult) error {
	var parent *normalize.Result
	err := t.call(callDecodeResult, func() (err error) {
		parent, err = normalize.DecodeResult(x.parent)
		return err
	})
	if err != nil {
		return fmt.Errorf("decode parent: %w", err)
	}
	var delta *normalize.Relation
	err = t.call(callReadCSV, func() (err error) {
		delta, err = normalize.ReadCSV(x.name, bytes.NewReader(x.deltaCSV))
		return err
	})
	if err != nil {
		return fmt.Errorf("read delta: %w", err)
	}
	return t.call(callNormalizeDelta, func() (err error) {
		out.res, out.delta, err = normalize.NormalizeDelta(ctx, base, delta.Rows(), parent,
			normalize.DeltaConfig{Options: in.options(obs)})
		return err
	})
}

// emptyDir fails when dir holds anything: a governed run must remove
// its spill files before it returns.
func emptyDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	if len(ents) > 0 {
		return fmt.Errorf("spill directory %s holds %d file(s) after the operation, first %s", dir, len(ents), ents[0].Name())
	}
	return nil
}
