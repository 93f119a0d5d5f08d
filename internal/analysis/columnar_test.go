package analysis

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// columnarTrace encodes recs as a Closed v2 stream and opens it indexed.
func columnarTrace(t *testing.T, recs []trace.Record, perBlock int) *trace.ColumnarReader {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewColumnarWriter(&buf, trace.ColumnarOptions{RecordsPerBlock: perBlock})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := trace.NewColumnarReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// mixedRecords builds a trace with reads, writes, direction-less I/O, and
// non-I/O calls across many ranks and times.
func mixedRecords(n int, seed int64) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"SYS_read", "SYS_pwrite", "MPI_Barrier", "SYS_mmap", "VFS_write", "MPI_File_read_at"}
	out := make([]trace.Record, n)
	for i := range out {
		name := names[rng.Intn(len(names))]
		var b int64
		if name != "MPI_Barrier" {
			b = rng.Int63n(1 << 20)
		}
		out[i] = trace.Record{
			Time: sim.Time(i) * sim.Millisecond, Dur: sim.Duration(rng.Int63n(int64(sim.Millisecond))),
			Node: fmt.Sprintf("n%d", rng.Intn(8)), Rank: rng.Intn(256), PID: 100 + rng.Intn(64),
			Class: trace.EventClass(rng.Intn(4)), Name: name, Ret: "0",
			Path:  fmt.Sprintf("/scratch/f%d", rng.Intn(32)),
			Bytes: b,
		}
	}
	return out
}

// filter applies q to a record slice: the brute-force reference.
func filter(recs []trace.Record, q trace.Query) []trace.Record {
	var out []trace.Record
	for i := range recs {
		if q.Matches(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

func TestColumnarIOStatsMatchesFullScan(t *testing.T) {
	recs := mixedRecords(4000, 11)
	cr := columnarTrace(t, recs, 256)
	queries := []trace.Query{
		trace.MatchAll(),
		trace.MatchAll().WithRanks(64, 128),
		trace.MatchAll().WithWindow(500*sim.Millisecond, 2500*sim.Millisecond),
		trace.MatchAll().WithRanks(10, 40).WithWindow(0, 3*sim.Second).WithClasses(trace.ClassSyscall),
	}
	for qi, q := range queries {
		fast, scan, err := ColumnarIOStats(cr, q, 4)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		slow := must(ComputeIOStatsSource(trace.SliceSource(filter(recs, q))))
		if !reflect.DeepEqual(*fast, *slow) {
			t.Fatalf("query %d: columnar %+v != full scan %+v", qi, *fast, *slow)
		}
		if scan.BlocksDecoded > scan.BlocksTotal {
			t.Fatalf("query %d: decoded %d of %d", qi, scan.BlocksDecoded, scan.BlocksTotal)
		}
	}
}

func TestColumnarSummaryMatchesFullScan(t *testing.T) {
	recs := mixedRecords(4000, 23)
	cr := columnarTrace(t, recs, 512)
	q := trace.MatchAll().WithRanks(0, 99)
	fast, _, err := ColumnarSummary(cr, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	slow := must(SummarizeSource(trace.SliceSource(filter(recs, q))))
	if !reflect.DeepEqual(fast.Rows(), slow.Rows()) {
		t.Fatalf("columnar rows %+v != full scan rows %+v", fast.Rows(), slow.Rows())
	}
	if fast.Format() != slow.Format() {
		t.Fatal("rendered summaries differ")
	}
}
