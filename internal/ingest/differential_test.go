package ingest

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"normalize/internal/relation"
)

// corpus returns adversarial CSV inputs: the hand-written cases below
// plus every seed in the relation package's fuzz corpus, so the
// streaming reader is differenced against the legacy readers on the
// exact inputs that history found interesting.
func corpus(t testing.TB) map[string]string {
	cases := map[string]string{
		"simple":            "a,b\n1,2\n",
		"empty":             "",
		"only_header":       "only_header\n",
		"header_no_newline": "a,b",
		"no_trailing_nl":    "a,b\n1,2",
		"blank_leading":     "\n\r\n\na,b\n1,2\n",
		"blank_lines":       "a,b\n1,2\n\n3,4\n\r\n5,6\n",
		"bom":               "\xef\xbb\xbfa,b\n1,2\n",
		"bom_only":          "\xef\xbb\xbf",
		"crlf":              "a,b\r\n1,2\r\n3,4\r\n",
		"trailing_cr":       "a,b\n1,2\r",
		"ragged":            "a,b,c\n1,2\n3,4,5,6\n7,8,9\n",
		"empty_fields":      "a,,c\n,,\n1,,3\n",
		"quoted_comma":      "a,b\n\"quoted,comma\",2\n",
		"quoted_newline":    "a,b\n\"line1\nline2\",2\n3,4\n",
		"quoted_crlf":       "a,b\r\n\"x\r\ny\",2\r\n",
		"escaped_quote":     "a,b\n\"he said \"\"hi\"\"\",2\n",
		"unclosed_quote":    "a,b\n1,\"unclosed\n2,3\n4,5\n",
		"bare_quote":        "a,b\nx\"y,2\n3,4\n",
		"quote_then_junk":   "a,b\n\"x\"y,2\n3,4\n",
		"nuls":              "a,b\n\x00,\x00\x00\nx\x00y,z\n",
		"quote_in_header":   "\"a,x\",b\n1,2\n",
		"unclosed_header":   "\"a,b\n1,2\n",
		"wide":              "a,b,c,d,e,f,g,h\n1,2,3,4,5,6,7,8\n",
		"dup_values":        "a,b\nx,y\nx,y\nz,y\nx,q\n",
		"comma_only_row":    "a,b\n,\n",
		"recover_mix":       "a,b\n\"p\nq\"x,\"r\ns\",t\nu,v\n",
		"many_rows":         manyRows(97, 3),
		"long_quoted":       "a,b\n\"" + strings.Repeat("q", 5000) + "\",2\n3,4\n",
	}
	dir := filepath.Join("..", "relation", "testdata", "fuzz", "FuzzReadCSV")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus missing: %v", err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := decodeFuzzSeed(string(data)); ok {
			cases["fuzz_"+ent.Name()] = s
		}
	}
	return cases
}

// decodeFuzzSeed extracts the string from a "go test fuzz v1" seed file.
func decodeFuzzSeed(data string) (string, bool) {
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(make([]byte, 0, len(data)+64), len(data)+64)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "string(") && strings.HasSuffix(line, ")") {
			s, err := strconv.Unquote(line[len("string(") : len(line)-1])
			return s, err == nil
		}
	}
	return "", false
}

func manyRows(n, cols int) string {
	var b strings.Builder
	for c := 0; c < cols; c++ {
		if c > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "col%d", c)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "v%d", (i*7+c)%13)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var diffMatrix = []struct {
	chunk   int
	workers int
}{
	{64, 1}, {64, 4}, {4096, 1}, {4096, 4}, {1 << 20, 1}, {1 << 20, 4},
}

// TestDifferentialStreamingVsLegacy pins the streaming reader to the
// legacy whole-file readers: identical relations (attrs, values,
// dictionary encoding, substrate content key), identical skipped-row
// reports, identical error strings — in both modes, at every chunk
// size and worker count in the matrix.
func TestDifferentialStreamingVsLegacy(t *testing.T) {
	for name, data := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			for _, lenient := range []bool{false, true} {
				mode := "strict"
				if lenient {
					mode = "lenient"
				}
				var (
					lrel     *relation.Relation
					lskipped []relation.RowError
					lerr     error
				)
				if lenient {
					lrel, lskipped, lerr = relation.ReadCSVLenient("rel", strings.NewReader(data))
				} else {
					lrel, lerr = relation.ReadCSV("rel", strings.NewReader(data))
				}
				for _, m := range diffMatrix {
					tag := fmt.Sprintf("%s/chunk%d/w%d", mode, m.chunk, m.workers)
					srel, sskipped, serr := ReadCSV(context.Background(), "rel",
						strings.NewReader(data), Options{
							Lenient:    lenient,
							ChunkBytes: m.chunk,
							Workers:    m.workers,
						})
					compareOutcome(t, tag, lrel, lskipped, lerr, srel, sskipped, serr)
				}
			}
		})
	}
}

func compareOutcome(t *testing.T, tag string,
	lrel *relation.Relation, lskipped []relation.RowError, lerr error,
	srel *relation.Relation, sskipped []relation.RowError, serr error) {
	t.Helper()
	if (lerr == nil) != (serr == nil) {
		t.Fatalf("%s: error divergence: legacy=%v streaming=%v", tag, lerr, serr)
	}
	if lerr != nil {
		if lerr.Error() != serr.Error() {
			t.Fatalf("%s: error message divergence:\nlegacy:    %q\nstreaming: %q", tag, lerr, serr)
		}
		return
	}
	if len(lskipped) != len(sskipped) {
		t.Fatalf("%s: skipped count: legacy=%d streaming=%d\nlegacy: %v\nstreaming: %v",
			tag, len(lskipped), len(sskipped), lskipped, sskipped)
	}
	for i := range lskipped {
		if lskipped[i].Line != sskipped[i].Line || lskipped[i].Error() != sskipped[i].Error() {
			t.Fatalf("%s: skipped[%d]: legacy=%q streaming=%q", tag, i, lskipped[i], sskipped[i])
		}
	}
	if !reflect.DeepEqual(lrel.Attrs, srel.Attrs) {
		t.Fatalf("%s: attrs: legacy=%v streaming=%v", tag, lrel.Attrs, srel.Attrs)
	}
	if lrel.NumRows() != srel.NumRows() {
		t.Fatalf("%s: rows: legacy=%d streaming=%d", tag, lrel.NumRows(), srel.NumRows())
	}
	for i, n := 0, lrel.NumRows(); i < n; i++ {
		for c := range lrel.Attrs {
			if lv, sv := lrel.Value(i, c), srel.Value(i, c); lv != sv {
				t.Fatalf("%s: value (%d,%d): legacy=%q streaming=%q", tag, i, c, lv, sv)
			}
		}
	}
	// The whole point of streaming ingest: the encoding must be the one
	// the legacy path computes, code for code, so every downstream PLI
	// is unchanged.
	if !reflect.DeepEqual(lrel.Encode(), srel.Encode()) {
		t.Fatalf("%s: dictionary encoding diverged", tag)
	}
	if c := srel.Columnar(); c == nil {
		t.Fatalf("%s: streaming relation is not columnar-backed", tag)
	}
}

// FuzzIngestDifferential extends the pinning to arbitrary inputs under
// a reduced matrix.
func FuzzIngestDifferential(f *testing.F) {
	for _, data := range corpus(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, lenient := range []bool{false, true} {
			var (
				lrel     *relation.Relation
				lskipped []relation.RowError
				lerr     error
			)
			if lenient {
				lrel, lskipped, lerr = relation.ReadCSVLenient("rel", strings.NewReader(data))
			} else {
				lrel, lerr = relation.ReadCSV("rel", strings.NewReader(data))
			}
			for _, m := range []struct{ chunk, workers int }{{64, 1}, {177, 3}} {
				srel, sskipped, serr := ReadCSV(context.Background(), "rel",
					strings.NewReader(data), Options{
						Lenient:    lenient,
						ChunkBytes: m.chunk,
						Workers:    m.workers,
					})
				tag := fmt.Sprintf("lenient=%v/chunk%d/w%d", lenient, m.chunk, m.workers)
				compareOutcome(t, tag, lrel, lskipped, lerr, srel, sskipped, serr)
			}
		}
	})
}
