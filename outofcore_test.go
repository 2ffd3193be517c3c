package normalize

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// outOfCoreCSV builds a redundant denormalized CSV — many rows over
// small per-column value pools with long values, so the raw bytes dwarf
// the encoded substrate. The shape makes an honest out-of-core case:
// the CSV cannot be held in memory under the test budget, but the
// dictionary-encoded result can.
func outOfCoreCSV(rows int) []byte {
	var buf bytes.Buffer
	buf.WriteString("warehouse,district,customer_class,carrier,item_group,stock_level\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&buf, "warehouse-location-%03d,district-zone-%03d,customer-class-%03d,carrier-route-%03d,item-group-%03d,stock-level-%03d\n",
			i%37, i%23, i%11, (i*5)%7, i%5, i%3)
	}
	return buf.Bytes()
}

// TestOutOfCoreIngest is the spill smoke test: a CSV more than twice
// the memory budget must still load — by spilling encoded code blocks
// to disk, not by sampling and not by failing — and normalize to the
// byte-identical DDL the unconstrained in-memory path produces.
func TestOutOfCoreIngest(t *testing.T) {
	const budgetBytes = 768 << 10
	data := outOfCoreCSV(15500)
	if len(data) < 2*budgetBytes {
		t.Fatalf("test input too small: %d bytes, want >= %d (2x budget)", len(data), 2*budgetBytes)
	}

	// Reference: the legacy whole-stream reader with no budget at all.
	legacy, err := ReadCSV("outofcore", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}

	var spills, rows atomic.Int64
	spillDir := t.TempDir()
	rel, skipped, err := IngestCSV(context.Background(), "outofcore", bytes.NewReader(data), IngestOptions{
		MaxMemoryBytes: budgetBytes,
		ChunkBytes:     32 << 10,
		Workers:        1,
		SpillDir:       spillDir,
		Observer: FuncObserver{
			OnCounter: func(stage Stage, name string, delta int64) {
				switch name {
				case CounterSpillEvents:
					spills.Add(delta)
				case CounterIngestRows:
					rows.Add(delta)
				}
			},
		},
	})
	if err != nil {
		t.Fatalf("constrained ingest failed (CSV %d bytes, budget %d): %v", len(data), budgetBytes, err)
	}
	if len(skipped) != 0 {
		t.Fatalf("constrained ingest skipped %d rows of well-formed input", len(skipped))
	}
	if got := spills.Load(); got == 0 {
		t.Fatalf("no spill events: a %d-byte CSV under a %d-byte budget must spill, not fit", len(data), budgetBytes)
	}
	if got, want := rows.Load(), int64(15500); got != want {
		t.Fatalf("ingest_rows = %d, want %d", got, want)
	}
	// The spill file is transient: gone once the load completes.
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("spill file left behind: %s", filepath.Join(spillDir, e.Name()))
	}

	// The substrate must be identical to the in-memory one, column for
	// column, code for code.
	if !reflect.DeepEqual(legacy.Encode(), rel.Encode()) {
		t.Fatal("spilled substrate differs from the in-memory encoding")
	}

	// And the full pipeline over it must emit the byte-identical DDL,
	// with nothing degraded along the way.
	want, err := Normalize(legacy, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NormalizeContext(context.Background(), rel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Degradations) != 0 {
		t.Fatalf("out-of-core run degraded: %s", FormatDegradations(got.Degradations))
	}
	if w, g := DDL(want.Tables), DDL(got.Tables); w != g {
		t.Fatalf("DDL mismatch between in-memory and out-of-core runs:\n--- in-memory ---\n%s\n--- out-of-core ---\n%s", w, g)
	}
}

// TestOutOfCoreDiscovery pins the tentpole of the compressed PLI
// store: TPC-H discovery under a memory budget smaller than the
// resident PLI footprint must complete exactly — spilling and
// reloading cold partitions, never degrading (no max-lhs tightening,
// no row sampling) — and emit DDL byte-identical to the unconstrained
// run at every worker count. The lineitem relation is the PLI-heavy
// shape the store exists for: thousands of rows over 16 attributes,
// so partitions dominate the run's memory, not the FD cover.
func TestOutOfCoreDiscovery(t *testing.T) {
	// The window is hand-tuned like TestOutOfCoreIngest's: wide enough
	// for the run's non-evictable state (FD cover, materialized
	// decompositions, encoded substrate), narrow enough that the
	// partitions cannot all stay resident alongside it — the store-wide
	// resident PLI footprint is ~7.1 MB, measured by the
	// pli_resident_bytes counter and asserted below.
	const budgetBytes = 5 << 20

	ds, err := GenerateTPCH(0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Original[7] // lineitem

	want, err := Normalize(rel, Options{MaxLhs: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantDDL := DDL(want.Tables)

	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			var spills, recomputes, reloads, compressed, resident atomic.Int64
			spillDir := t.TempDir()
			got, err := NormalizeContext(context.Background(), rel, Options{
				MaxLhs:   3,
				Workers:  workers,
				SpillDir: spillDir,
				Budget:   Budget{MaxMemoryBytes: budgetBytes},
				Observer: FuncObserver{
					OnCounter: func(stage Stage, name string, delta int64) {
						switch name {
						case CounterPLISpillEvents:
							spills.Add(delta)
						case CounterPLIRecomputes:
							recomputes.Add(delta)
						case CounterPLIReloads:
							reloads.Add(delta)
						case CounterPLICompressedBytes:
							compressed.Add(delta)
						case CounterPLIResidentBytes:
							resident.Add(delta)
						}
					},
				},
			})
			if err != nil {
				t.Fatalf("constrained discovery failed under a %d-byte budget: %v", budgetBytes, err)
			}
			if len(got.Degradations) != 0 {
				t.Fatalf("constrained discovery degraded instead of spilling: %s", FormatDegradations(got.Degradations))
			}
			if r := resident.Load(); r <= budgetBytes {
				t.Fatalf("resident PLI footprint %d ≤ budget %d: the test no longer exercises an out-of-core working set", r, budgetBytes)
			}
			if spills.Load() == 0 && recomputes.Load() == 0 {
				t.Fatalf("neither spills nor recomputes under a %d-byte budget: the ceiling never bound the PLI working set (compressed %d bytes)",
					budgetBytes, compressed.Load())
			}
			if compressed.Load() == 0 {
				t.Fatal("pli_compressed_bytes = 0: the store was never engaged")
			}
			if g := DDL(got.Tables); g != wantDDL {
				t.Fatalf("DDL mismatch between unconstrained and out-of-core discovery:\n--- unconstrained ---\n%s\n--- out-of-core ---\n%s", wantDDL, g)
			}
			// The spill file is transient: gone once the run completes.
			ents, err := os.ReadDir(spillDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				t.Errorf("spill file left behind: %s", filepath.Join(spillDir, e.Name()))
			}
			t.Logf("budget %d: compressed=%dB resident=%dB spills=%d reloads=%d recomputes=%d",
				budgetBytes, compressed.Load(), resident.Load(), spills.Load(), reloads.Load(), recomputes.Load())
		})
	}
}
