package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"normalize/internal/core"
	"normalize/internal/export"
	"normalize/internal/sqlgen"
)

// FuzzDecodeResult: arbitrary bytes decode to an error, never a panic,
// with allocation bounded by their length, and a payload that decodes
// renders its DDL and schema JSON and re-encodes; decoding that
// encoding and encoding again gives the same bytes. Seeds are the
// version-1 fixtures, the version-2 encodings of their results, and
// truncations of each.
func FuzzDecodeResult(f *testing.F) {
	for _, name := range []string{"figure2.v1.json", "figure2-durations.v1.json", "tpch.v1.json"} {
		v1, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		res, err := core.DecodeResult(v1)
		if err != nil {
			f.Fatal(err)
		}
		v2, err := core.EncodeResult(res)
		if err != nil {
			f.Fatal(err)
		}
		for _, seed := range [][]byte{v1, v2} {
			for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 5} {
				f.Add(seed[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := core.DecodeResult(data)
		runtime.ReadMemStats(&after)
		// Every count is checked against the bytes left before it sizes
		// an allocation, so a short payload cannot claim a large one.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256*uint64(len(data))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		sqlgen.Schema(res.Tables)
		if _, err := export.Schema(res); err != nil {
			t.Fatalf("schema JSON of a decoded result: %v", err)
		}
		enc, err := core.EncodeResult(res)
		if err != nil {
			t.Fatalf("re-encode a decoded result: %v", err)
		}
		back, err := core.DecodeResult(enc)
		if err != nil {
			t.Fatalf("decode the re-encoding: %v", err)
		}
		again, err := core.EncodeResult(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatal("encode(decode(encode(decode(data)))) differs from encode(decode(data))")
		}
	})
}
