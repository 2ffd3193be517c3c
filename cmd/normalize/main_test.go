package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"normalize"
)

// writeCSV drops a small denormalized address relation (the paper's
// Figure 2 shape: Postcode -> City, Mayor) into dir and returns its
// path.
func writeCSV(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "address.csv")
	data := "First,Last,Postcode,City,Mayor\n" +
		"Thomas,Miller,14482,Potsdam,Jakobs\n" +
		"Sarah,Miller,14482,Potsdam,Jakobs\n" +
		"Peter,Smith,60329,Frankfurt,Feldmann\n" +
		"Jasmine,Cone,01069,Dresden,Orosz\n" +
		"Mike,Cone,14482,Potsdam,Jakobs\n" +
		"Thomas,Moore,60329,Frankfurt,Feldmann\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeFlightCSV materializes the widest generated dataset (109
// attributes) so a tiny -timeout reliably trips mid-discovery.
func writeFlightCSV(t *testing.T, dir string) string {
	t.Helper()
	ds := normalize.GenerateFlight(1)
	path := filepath.Join(dir, "flight.csv")
	if err := ds.Denormalized.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExitCodeSuccess pins exit 0: a completed run prints the DDL.
func TestExitCodeSuccess(t *testing.T) {
	csv := writeCSV(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-maxlhs", "3", csv}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitOK, stderr.String())
	}
	if !strings.Contains(stdout.String(), "CREATE TABLE") {
		t.Errorf("stdout missing DDL:\n%s", stdout.String())
	}
}

// TestExitCodePartial pins exit 3: a timeout mid-run still writes the
// salvaged partial schema and its degradation report.
func TestExitCodePartial(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a wide dataset")
	}
	csv := writeFlightCSV(t, t.TempDir())
	var stdout, stderr bytes.Buffer
	code := run(context.Background(),
		[]string{"-timeout", "1ns", "-maxlhs", "3", csv}, &stdout, &stderr)
	if code != exitPartial {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitPartial, stderr.String())
	}
	if !strings.Contains(stdout.String(), "CREATE TABLE") {
		t.Errorf("partial run wrote no schema:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "partial result") {
		t.Errorf("stderr does not report the partial stop:\n%s", stderr.String())
	}
}

// TestExitCodeInterrupt pins exit 130: cancellation (the signal
// context main wires to SIGINT/SIGTERM) reports telemetry and exits
// with the shell's 128+SIGINT convention.
func TestExitCodeInterrupt(t *testing.T) {
	csv := writeCSV(t, t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the signal arrived before the run
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{csv}, &stdout, &stderr)
	if code != exitInterrupt {
		t.Fatalf("exit = %d, want %d; stderr: %s", code, exitInterrupt, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interrupt:\n%s", stderr.String())
	}
}

// TestExitCodeFatal pins exit 1 for the hard-failure family.
func TestExitCodeFatal(t *testing.T) {
	csv := writeCSV(t, t.TempDir())
	cases := []struct {
		name string
		args []string
	}{
		{"no inputs", nil},
		{"missing file", []string{"no-such-file.csv"}},
		{"bad mode", []string{"-mode", "6nf", csv}},
		{"bad algo", []string{"-algo", "magic", csv}},
		{"bad flag", []string{"-definitely-not-a-flag"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(context.Background(), tc.args, &stdout, &stderr); code != exitFatal {
				t.Errorf("exit = %d, want %d; stderr: %s", code, exitFatal, stderr.String())
			}
		})
	}
}

// TestAppendToSavedResult drives the offline append workflow: save day
// 0 with -save-result, then -append-to it with a delta CSV. The DDL
// must be the from-scratch run's on the concatenated CSV, both for a
// file this binary saved and for a version-1 file an earlier release
// saved (testdata/tpch.v1.json, from `-maxlhs 2 -save-result` on
// testdata/tpch.csv).
func TestAppendToSavedResult(t *testing.T) {
	testdata := filepath.Join("..", "..", "internal", "core", "testdata")
	base := filepath.Join(testdata, "tpch.csv")
	delta := filepath.Join(testdata, "tpch-delta.csv")
	dir := t.TempDir()
	normalizeTo := func(out string, args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args = append([]string{"-maxlhs", "2", "-out", filepath.Join(dir, out)}, args...)
		if code := run(context.Background(), args, &stdout, &stderr); code != exitOK {
			t.Fatalf("normalize %v: exit %d; stderr: %s", args, code, stderr.String())
		}
		ddl, err := os.ReadFile(filepath.Join(dir, out, "schema.sql"))
		if err != nil {
			t.Fatal(err)
		}
		return string(ddl)
	}

	// From scratch on base + delta, under the base's file name: table
	// names derive from it.
	baseCSV, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	deltaCSV, err := os.ReadFile(delta)
	if err != nil {
		t.Fatal(err)
	}
	_, deltaRows, _ := bytes.Cut(deltaCSV, []byte("\n"))
	concat := filepath.Join(dir, "concat", "tpch.csv")
	if err := os.MkdirAll(filepath.Dir(concat), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(concat, append(baseCSV, deltaRows...), 0o644); err != nil {
		t.Fatal(err)
	}
	want := normalizeTo("scratch", concat)

	saved := filepath.Join(dir, "day0.bin")
	normalizeTo("day0", "-save-result", saved, base)
	for name, parent := range map[string]string{
		"saved by this binary": saved,
		"saved as version 1":   filepath.Join(testdata, "tpch.v1.json"),
	} {
		if got := normalizeTo("append", "-append-to", parent, base, delta); got != want {
			t.Errorf("%s: append DDL\n%s\nwant from scratch\n%s", name, got, want)
		}
	}
}
