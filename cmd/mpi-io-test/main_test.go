package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/ instead of comparing")

// TestMultilayerGolden pins the stdout of a multilayer run: the workload
// result, the per-call latency attribution and the cross-layer slicing table
// with its critical paths. Both span joins render here, so a change to either
// (or to any layer's timing) must be deliberate: rerun with -update and review
// the diff.
func TestMultilayerGolden(t *testing.T) {
	got := runMain(t, "-np", "4", "-strided", "1", "-size", "131072", "-nobj", "4", "-tracer", "multilayer")
	path := filepath.Join("testdata", "multilayer_np4_strided.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update to create it)", path, err)
	}
	if got != string(want) {
		t.Fatalf("stdout drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// runMain runs main with args on a fresh flag set and returns what it
// printed to stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	oldArgs, oldStdout, oldFlags := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = oldArgs, oldStdout, oldFlags }()
	os.Args = append([]string{"mpi-io-test"}, args...)
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("mpi-io-test", flag.PanicOnError)
	main()
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
