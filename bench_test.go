package normalize

// This file regenerates the paper's evaluation as Go benchmarks — one
// benchmark (family) per table and figure of Section 8, plus ablation
// benchmarks for the design decisions listed in DESIGN.md §6. The
// cmd/evaluate binary prints the same experiments as formatted tables;
// EXPERIMENTS.md records paper-vs-measured.
//
// Dataset inputs and discovered FD sets are cached across benchmarks,
// so a full `go test -bench=. -benchmem` run stays in the minutes.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"normalize/internal/bitset"
	"normalize/internal/closure"
	"normalize/internal/core"
	"normalize/internal/datagen"
	"normalize/internal/delta"
	"normalize/internal/discovery/dfd"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/discovery/tane"
	"normalize/internal/discovery/ucc"
	"normalize/internal/eval"
	"normalize/internal/fd"
	"normalize/internal/keys"
	"normalize/internal/observe"
	"normalize/internal/plicache"
	"normalize/internal/relation"
	"normalize/internal/scoring"
	"normalize/internal/settrie"
	"normalize/internal/violation"
	"normalize/internal/wsteal"
)

// mustDS adapts a (Dataset, error) generator return for use in a
// benchmark expression, failing the benchmark on a generation error.
func mustDS(tb testing.TB) func(*datagen.Dataset, error) *datagen.Dataset {
	return func(ds *datagen.Dataset, err error) *datagen.Dataset {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return ds
	}
}

// benchCache lazily generates each dataset and its discovered FD cover
// exactly once per `go test` process.
type benchEntry struct {
	once sync.Once
	ds   *datagen.Dataset
	fds  *fd.Set
}

var benchCache = map[string]*benchEntry{}
var benchCacheMu sync.Mutex

func cached(name string, spec eval.Spec) *benchEntry {
	benchCacheMu.Lock()
	e, ok := benchCache[name]
	if !ok {
		e = &benchEntry{}
		benchCache[name] = e
	}
	benchCacheMu.Unlock()
	e.once.Do(func() {
		ds, err := spec.Gen()
		if err != nil {
			panic(err)
		}
		e.ds = ds
		e.fds = hyfd.Discover(e.ds.Denormalized, hyfd.Options{MaxLhs: spec.MaxLhs})
	})
	return e
}

func specByName(name string) eval.Spec {
	for _, s := range eval.DefaultSpecs() {
		if s.Name == name {
			return s
		}
	}
	panic("unknown spec " + name)
}

// --- Table 3, column "FD Disc." -------------------------------------

// BenchmarkTable3Discovery measures component (1) on the Table 3
// datasets that finish a discovery per benchmark iteration quickly;
// the full six-dataset run is `cmd/evaluate -exp table3`.
func BenchmarkTable3Discovery(b *testing.B) {
	for _, name := range []string{"Horse", "Plista", "TPC-H", "MusicBrainz"} {
		spec := specByName(name)
		ds := cached(name, spec).ds
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hyfd.Discover(ds.Denormalized, hyfd.Options{MaxLhs: spec.MaxLhs})
			}
		})
	}
}

// --- Table 3, columns "Closure_impr" / "Closure_opt" -----------------

func benchClosure(b *testing.B, algo func(*fd.Set)) {
	for _, name := range []string{"Horse", "Plista", "Amalgam1", "Flight", "MusicBrainz", "TPC-H"} {
		entry := cached(name, specByName(name))
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := entry.fds.Clone()
				b.StartTimer()
				algo(in)
			}
		})
	}
}

func BenchmarkTable3ClosureImproved(b *testing.B) {
	benchClosure(b, func(s *fd.Set) { closure.ImprovedParallel(s, 0) })
}

func BenchmarkTable3ClosureOptimized(b *testing.B) {
	benchClosure(b, func(s *fd.Set) { closure.OptimizedParallel(s, 0) })
}

// --- Table 3, columns "Key Der." / "Viol. Iden." ---------------------

func BenchmarkTable3KeyDerivation(b *testing.B) {
	for _, name := range []string{"Horse", "Plista", "Amalgam1", "Flight", "MusicBrainz", "TPC-H"} {
		entry := cached(name, specByName(name))
		extended := closure.OptimizedParallel(entry.fds.Clone(), 0)
		all := bitset.Full(extended.NumAttrs)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				keys.Derive(extended, all)
			}
		})
	}
}

func BenchmarkTable3ViolationDetection(b *testing.B) {
	for _, name := range []string{"Horse", "Plista", "Amalgam1", "Flight", "MusicBrainz", "TPC-H"} {
		entry := cached(name, specByName(name))
		extended := closure.OptimizedParallel(entry.fds.Clone(), 0)
		all := bitset.Full(extended.NumAttrs)
		derived := keys.Derive(extended, all)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				violation.Detect(violation.Input{
					FDs: extended, Keys: derived, RelAttrs: all,
				})
			}
		})
	}
}

// --- §8.2 text: naive closure comparison -----------------------------

// BenchmarkClosureNaive measures Algorithm 1 on bounded FD samples; the
// cubic baseline is exactly why the paper stopped running it beyond the
// small datasets.
func BenchmarkClosureNaive(b *testing.B) {
	for _, name := range []string{"Amalgam1", "Horse", "Plista"} {
		entry := cached(name, specByName(name))
		sample := eval.SampleFDs(entry.fds, 2000, 1)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := sample.Clone()
				b.StartTimer()
				closure.Naive(in)
			}
		})
	}
}

// --- Figure 2: closure runtime vs number of input FDs ----------------

func BenchmarkFigure2(b *testing.B) {
	entry := cached("MusicBrainz", specByName("MusicBrainz"))
	for _, frac := range []int{25, 50, 75, 100} {
		n := entry.fds.Len() * frac / 100
		sample := eval.SampleFDs(entry.fds, n, int64(frac))
		b.Run("improved/"+itoa(frac)+"pct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := sample.Clone()
				b.StartTimer()
				closure.ImprovedParallel(in, 0)
			}
		})
		b.Run("optimized/"+itoa(frac)+"pct", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := sample.Clone()
				b.StartTimer()
				closure.OptimizedParallel(in, 0)
			}
		})
	}
}

// --- Figures 3 and 4: end-to-end schema reconstruction ---------------

func BenchmarkFigure3TPCH(b *testing.B) {
	ds := mustDS(b)(datagen.TPCH(0.0002, 1))
	for i := 0; i < b.N; i++ {
		if _, err := core.NormalizeRelation(ds.Denormalized, core.Options{MaxLhs: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3TPCHConstrained runs the same workload under a
// -max-memory ceiling of 10 MiB — just above the run's non-evictable
// floor (the FD cover of the 52-attribute denormalized relation is
// ~8.4 MiB and cannot be evicted), so the run completes exactly, with
// every partition held delta-varint compressed in the governed PLI
// store and decoded on demand. The delta against BenchmarkFigure3TPCH
// is the price of memory governance when nothing needs to reach disk;
// BenchmarkPLIStore/spill-reload-cycle prices the disk path itself.
func BenchmarkFigure3TPCHConstrained(b *testing.B) {
	ds := mustDS(b)(datagen.TPCH(0.0002, 1))
	spillDir := b.TempDir()
	for i := 0; i < b.N; i++ {
		res, err := core.NormalizeRelation(ds.Denormalized, core.Options{
			MaxLhs:   3,
			SpillDir: spillDir,
			Budget:   core.Budget{MaxMemoryBytes: 10 << 20},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Degradations) != 0 {
			b.Fatalf("constrained run degraded: %+v", res.Degradations)
		}
	}
}

func BenchmarkFigure4MusicBrainz(b *testing.B) {
	ds := mustDS(b)(datagen.MusicBrainz(12, 1))
	for i := 0; i < b.N; i++ {
		if _, err := core.NormalizeRelation(ds.Denormalized, core.Options{MaxLhs: 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------

// BenchmarkAblationTrieVsScan isolates design decision 1: the improved
// algorithm's per-attribute LHS tries versus the naive full scan, on
// identical inputs.
func BenchmarkAblationTrieVsScan(b *testing.B) {
	entry := cached("Horse", specByName("Horse"))
	sample := eval.SampleFDs(entry.fds, 1500, 7)
	b.Run("scan-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			in := sample.Clone()
			b.StartTimer()
			closure.Naive(in)
		}
	})
	b.Run("trie-improved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			in := sample.Clone()
			b.StartTimer()
			closure.Improved(in)
		}
	})
}

// BenchmarkAblationParallelClosure isolates design decision 4: worker
// counts for the parallel optimized closure.
func BenchmarkAblationParallelClosure(b *testing.B) {
	entry := cached("Plista", specByName("Plista"))
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				in := entry.fds.Clone()
				b.StartTimer()
				closure.OptimizedParallel(in, workers)
			}
		})
	}
}

// BenchmarkAblationBloomVsExact isolates design decision 5: the Bloom
// estimate versus exact distinct counting in the duplication score.
func BenchmarkAblationBloomVsExact(b *testing.B) {
	ds := mustDS(b)(datagen.TPCH(0.0005, 1))
	rel := ds.Denormalized
	f := &fd.FD{
		Lhs: bitset.Of(rel.NumAttrs(), 1),
		Rhs: bitset.Of(rel.NumAttrs(), 2, 3, 4),
	}
	b.Run("bloom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scoring.DuplicationScore(rel, f, scoring.EstimateDistinctBloom)
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scoring.DuplicationScore(rel, f, scoring.EstimateDistinctExact)
		}
	})
}

// BenchmarkAblationKeyTrie isolates design decision 6: the key prefix
// tree of Algorithm 4 versus a linear scan over the key set.
func BenchmarkAblationKeyTrie(b *testing.B) {
	entry := cached("Flight", specByName("Flight"))
	extended := closure.OptimizedParallel(entry.fds.Clone(), 0)
	all := bitset.Full(extended.NumAttrs)
	derived := keys.Derive(extended, all)
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trie := &settrie.Trie{}
			for _, k := range derived {
				trie.Insert(k)
			}
			for _, f := range extended.FDs {
				trie.ContainsSubsetOf(f.Lhs)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range extended.FDs {
				for _, k := range derived {
					if k.IsSubsetOf(f.Lhs) {
						break
					}
				}
			}
		}
	})
}

// BenchmarkAblationDiscoveryAlgorithms compares the three FD discovery
// algorithms on the same mid-size input (bounded LHS keeps the
// lattice-based algorithms comparable).
func BenchmarkAblationDiscoveryAlgorithms(b *testing.B) {
	rel := mustDS(b)(datagen.TPCH(0.0001, 1)).Denormalized
	b.Run("hyfd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hyfd.Discover(rel, hyfd.Options{MaxLhs: 2})
		}
	})
	b.Run("tane", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tane.Discover(rel, tane.Options{MaxLhs: 2})
		}
	})
	b.Run("dfd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dfd.Discover(rel, dfd.Options{MaxLhs: 2})
		}
	})
}

// BenchmarkUCCDiscovery measures the level-wise UCC search behind
// primary-key selection (component 7).
func BenchmarkUCCDiscovery(b *testing.B) {
	rel := mustDS(b)(datagen.TPCH(0.0001, 1)).Denormalized.ProjectSet("slice",
		bitset.Of(52, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)).Dedup()
	for i := 0; i < b.N; i++ {
		ucc.Discover(rel, ucc.Options{})
	}
}

// orderLinesRelation is an order-line fact table of the shape
// primary-key selection meets on orders-governed: a unique line id and
// seven random columns of low or mid cardinality (customer, product,
// warehouse, quantity, discount, ship mode, status), which only become
// unique three or four at a time.
func orderLinesRelation(tb testing.TB, rows int) *relation.Relation {
	r := rand.New(rand.NewSource(1))
	cards := []int{1500, 800, 40, 50, 11, 7, 4}
	var buf bytes.Buffer
	buf.WriteString("line_id,customer,product,warehouse,quantity,discount,ship_mode,status\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "L%07d", i)
		for _, c := range cards {
			fmt.Fprintf(&buf, ",%d", r.Intn(c))
		}
		buf.WriteByte('\n')
	}
	rel, err := relation.ReadCSV("orderlines", &buf)
	if err != nil {
		tb.Fatal(err)
	}
	return rel
}

// BenchmarkUCCWorkers measures the UCC search behind primary-key
// selection on a 60 000-row order-line fact table, with each level's
// intersections inline (workers-1) or on a work-stealing pool
// (workers-2; clamped to the host's CPUs), as the pipeline runs it.
// plis_intersected/op is the search's work counter, the same at every
// worker count.
func BenchmarkUCCWorkers(b *testing.B) {
	rel := orderLinesRelation(b, 60000)
	for _, workers := range []int{1, 2} {
		b.Run("orderlines/workers-"+itoa(workers), func(b *testing.B) {
			var pool *wsteal.Pool
			if w := wsteal.ClampWorkers(workers); w > 1 {
				pool = wsteal.New(w)
				defer pool.Close()
			}
			obs := &counterObserver{name: observe.CounterPLIsIntersected}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ucc.DiscoverContext(context.Background(), rel, ucc.Options{Observer: obs, Pool: pool}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(obs.total)/float64(b.N), observe.CounterPLIsIntersected+"/op")
		})
	}
}

// --- Parallel validation + shared substrate ---------------------------

// BenchmarkHyFDWorkers measures discovery with explicit worker counts
// (clamped to the host's CPUs) on two shapes: the wide TPC-H universal
// relation (workers-N), and a long, thin, low-cardinality order-line
// relation (orderlines/workers-N: 60 000 rows of redundantCSV) whose
// large clusters make pair sampling the dominant phase.
func BenchmarkHyFDWorkers(b *testing.B) {
	tpch := mustDS(b)(datagen.TPCH(0.0002, 1)).Denormalized
	orderlines, err := relation.ReadCSV("orderlines", bytes.NewReader(redundantCSV(60000)))
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		prefix string
		rel    *relation.Relation
	}{{"", tpch}, {"orderlines/", orderlines}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(in.prefix+"workers-"+itoa(workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					hyfd.Discover(in.rel, hyfd.Options{MaxLhs: 3, Workers: workers})
				}
			})
		}
	}
}

// BenchmarkHyFDSubstrate isolates the shared-substrate win: discovery
// that builds its own dictionary encoding and column PLIs versus
// discovery handed a pre-built plicache substrate (as the pipeline does
// for every table it processes).
func BenchmarkHyFDSubstrate(b *testing.B) {
	rel := mustDS(b)(datagen.TPCH(0.0002, 1)).Denormalized
	b.Run("own", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hyfd.Discover(rel, hyfd.Options{MaxLhs: 3})
		}
	})
	b.Run("shared", func(b *testing.B) {
		sub, err := plicache.Build(context.Background(), rel)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hyfd.Discover(rel, hyfd.Options{MaxLhs: 3, Substrate: sub})
		}
	})
}

// BenchmarkNormalizeWorkers measures the full pipeline — discovery,
// closure, key derivation, decomposition, key selection — under
// explicit worker counts, exercising the substrate cache and the
// discovery worker pools end to end.
func BenchmarkNormalizeWorkers(b *testing.B) {
	ds := mustDS(b)(datagen.TPCH(0.0002, 1))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NormalizeRelation(ds.Denormalized, core.Options{MaxLhs: 3, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- End-to-end pipeline ----------------------------------------------

// BenchmarkNormalizeEndToEnd measures the whole pipeline on the paper's
// running example and a mid-size TPC-H instance.
func BenchmarkNormalizeEndToEnd(b *testing.B) {
	address, err := NewRelation("address",
		[]string{"First", "Last", "Postcode", "City", "Mayor"},
		[][]string{
			{"Thomas", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Sarah", "Miller", "14482", "Potsdam", "Jakobs"},
			{"Peter", "Smith", "60329", "Frankfurt", "Feldmann"},
			{"Jasmine", "Cone", "01069", "Dresden", "Orosz"},
			{"Mike", "Cone", "14482", "Potsdam", "Jakobs"},
			{"Thomas", "Moore", "60329", "Frankfurt", "Feldmann"},
		})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("address", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Normalize(address, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Streaming ingest vs legacy row loading --------------------------

// redundantCSV builds a denormalized CSV in the regime the paper
// targets: many rows drawn from small per-column value pools, i.e.
// the redundancy that normalization removes. Dictionary encoding sees
// almost no new distinct values after warm-up, so a streaming reader
// should intern next to nothing per row.
func redundantCSV(rows int) []byte {
	var buf bytes.Buffer
	buf.WriteString("order_id,customer,region,product,category,warehouse,status,priority\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "order-%d,customer-%d,region-%d,product-%d,category-%d,warehouse-%d,status-%d,priority-%d\n",
			i%500, i%200, i%7, (i*13)%150, i%25, i%12, i%5, i%3)
	}
	return buf.Bytes()
}

// BenchmarkIngest compares the streaming columnar reader against the
// legacy path (ReadCSV into [][]string rows, dictionary-encoded by New)
// on the same bytes — both ends produce the identical substrate, so
// the delta is pure read-path cost. SetBytes reports MB/s; -benchmem
// allocations divide by the logged row count for allocs/row.
//
// Two input shapes: "redundant" is low-cardinality denormalized data
// (the paper's motivating case — here the legacy reader pays ~2
// allocations per row for the record and its backing strings, while
// the streaming reader amortizes to near zero), and "tpch" is the
// denormalized TPC-H join whose high-cardinality columns force both
// readers to materialize each distinct value.
func BenchmarkIngest(b *testing.B) {
	ds := mustDS(b)(datagen.TPCH(0.001, 1))
	var buf bytes.Buffer
	if err := ds.Denormalized.WriteCSV(&buf); err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		rows int
		data []byte
	}{
		{"redundant", 50000, redundantCSV(50000)},
		{"tpch", ds.Denormalized.NumRows(), buf.Bytes()},
	}

	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.Logf("input: %d rows, %d bytes", in.rows, len(in.data))
			b.Run("legacy", func(b *testing.B) {
				b.SetBytes(int64(len(in.data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := relation.ReadCSV(in.name, bytes.NewReader(in.data)); err != nil {
						b.Fatal(err)
					}
				}
			})
			for _, w := range []int{1, 4} {
				b.Run(fmt.Sprintf("streaming-w%d", w), func(b *testing.B) {
					b.SetBytes(int64(len(in.data)))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, _, err := IngestCSV(context.Background(), in.name,
							bytes.NewReader(in.data), IngestOptions{Workers: w}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// --- Incremental delta normalization ----------------------------------

// counterObserver sums one named counter across all stages.
type counterObserver struct {
	name  string
	total int64
}

func (c *counterObserver) StageStart(observe.Stage)                 {}
func (c *counterObserver) StageFinish(observe.Stage, time.Duration) {}
func (c *counterObserver) Counter(_ observe.Stage, name string, delta int64) {
	if name == c.name {
		c.total += delta
	}
}

// BenchmarkDeltaAppend pits the incremental delta path against a full
// re-run for a 1% append to the TPC-H universal relation — the delta
// plane's headline scenario. Both series report their candidate
// validations per op (candidates/op), so the JSON baseline records the
// wall-time ratio AND the work ratio the counters prove.
func BenchmarkDeltaAppend(b *testing.B) {
	full := mustDS(b)(datagen.TPCH(0.001, 1)).Denormalized
	rows := full.Rows()
	cut := len(rows) - len(rows)/100 // last 1% of rows are the delta
	base := relation.MustNew(full.Name, full.Attrs, rows[:cut])
	opts := core.Options{MaxLhs: 3, Workers: 1}

	parent, err := core.NormalizeRelation(base, opts)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("full", func(b *testing.B) {
		obs := &counterObserver{name: observe.CounterCandidatesChecked}
		o := opts
		o.Observer = obs
		for i := 0; i < b.N; i++ {
			if _, err := core.NormalizeRelation(full, o); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(obs.total)/float64(b.N), "candidates/op")
	})
	b.Run("delta", func(b *testing.B) {
		obs := &counterObserver{name: observe.CounterDeltaFDsChecked}
		o := opts
		o.Observer = obs
		cfg := delta.Config{Options: o}
		for i := 0; i < b.N; i++ {
			if _, _, err := delta.Normalize(context.Background(), base, rows[cut:], parent, cfg); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(obs.total)/float64(b.N), "candidates/op")
	})
}
