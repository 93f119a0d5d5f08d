package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// convTestRecords builds a deterministic mixed workload touching every field.
func convTestRecords(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"SYS_read", "SYS_write", "SYS_open", "MPI_Barrier", "MPI_File_write_at", "VFS_read"}
	out := make([]trace.Record, n)
	for i := range out {
		name := names[rng.Intn(len(names))]
		r := trace.Record{
			Time:  sim.Time(i) * sim.Microsecond,
			Dur:   sim.Duration(rng.Int63n(int64(sim.Millisecond))),
			Node:  fmt.Sprintf("cn%03d", rng.Intn(16)),
			Rank:  rng.Intn(1024),
			PID:   4000 + rng.Intn(512),
			Class: trace.EventClass(rng.Intn(4)),
			Name:  name,
			Ret:   fmt.Sprintf("%d", rng.Intn(2)),
		}
		if name != "MPI_Barrier" {
			r.Path = fmt.Sprintf("/pfs/run/rank%04d/out-%02d.dat", r.Rank, rng.Intn(4))
			r.Offset = rng.Int63n(1 << 30)
			r.Bytes = 1 + rng.Int63n(1<<20)
			r.UID = 1000 + rng.Intn(4)
			r.GID = 100
			r.Args = []string{fmt.Sprintf("fd=%d", rng.Intn(64)), fmt.Sprintf("%d", r.Bytes)}
		}
		out[i] = r
	}
	return out
}

// writeV1 encodes recs with the v1 encoder at its default block size.
func writeV1(t *testing.T, path string, recs []trace.Record, compress bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewBinaryWriter(f, trace.BinaryOptions{Compress: compress})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func runConv(t *testing.T, o options) {
	t.Helper()
	var out, errs bytes.Buffer
	if err := run(o, &out, &errs); err != nil {
		t.Fatalf("run(%+v): %v\nstderr: %s", o, err, errs.String())
	}
}

// TestRoundTripV1V2V1 checks that converting a v1 trace to columnar v2 and
// back yields a byte-identical v1 file, with and without compression on
// both legs.
func TestRoundTripV1V2V1(t *testing.T) {
	recs := convTestRecords(3000, 42)
	for _, tc := range []struct {
		name     string
		compress bool
	}{{"plain", false}, {"compressed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			v1a := filepath.Join(dir, "a.bin")
			v2 := filepath.Join(dir, "b.col")
			v1b := filepath.Join(dir, "c.bin")

			writeV1(t, v1a, recs, tc.compress)
			runConv(t, options{in: v1a, out: v2, to: "v2", compress: tc.compress})
			runConv(t, options{in: v2, out: v1b, to: "v1", compress: tc.compress})

			colBytes, err := os.ReadFile(v2)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := trace.DetectFormat(bytes.NewReader(colBytes)); got != trace.FormatColumnar {
				t.Fatalf("intermediate format = %v, want columnar", got)
			}

			a, err := os.ReadFile(v1a)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(v1b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("v1 -> v2 -> v1 not byte-identical: %d vs %d bytes", len(a), len(b))
			}
			if len(colBytes) >= len(a) {
				t.Fatalf("v2 (%d bytes) not smaller than v1 (%d bytes)", len(colBytes), len(a))
			}
		})
	}
}

// TestFormatAliases checks that the historical names map onto v1/v2 and that
// text output decodes back to the same records.
func TestFormatAliases(t *testing.T) {
	for alias, want := range map[string]string{"binary": "v1", "columnar": "v2", "v1": "v1", "v2": "v2", "text": "text"} {
		if got := normalizeTarget(alias); got != want {
			t.Fatalf("normalizeTarget(%q) = %q, want %q", alias, got, want)
		}
	}

	dir := t.TempDir()
	v1 := filepath.Join(dir, "a.bin")
	col := filepath.Join(dir, "b.col")
	txt := filepath.Join(dir, "c.trace")
	recs := convTestRecords(400, 7)
	writeV1(t, v1, recs, false)

	runConv(t, options{in: v1, out: col, to: "columnar"})
	runConv(t, options{in: col, out: txt, to: "text"})

	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	src, format, err := trace.OpenAuto(f)
	if err != nil {
		t.Fatal(err)
	}
	if format != trace.FormatText {
		t.Fatalf("format = %v, want text", format)
	}
	// The text format is per-process (node/rank/pid live in the file header,
	// like strace output), so only the call line itself round-trips.
	n := 0
	for {
		rec, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Name != recs[n].Name || rec.Ret != recs[n].Ret {
			t.Fatalf("record %d mismatch: %+v vs %+v", n, rec, recs[n])
		}
		n++
	}
	if n != len(recs) {
		t.Fatalf("decoded %d records, want %d", n, len(recs))
	}
}

// TestUnknownTarget checks the flag error path.
func TestUnknownTarget(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "a.bin")
	writeV1(t, v1, convTestRecords(10, 1), false)
	var out, errs bytes.Buffer
	if err := run(options{in: v1, to: "v3"}, &out, &errs); err == nil {
		t.Fatal("run accepted -to v3")
	}
}
