package analysis

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/clocks"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// must unwraps the result of a Source fold over an in-memory slice, which
// cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func records() []trace.Record {
	return []trace.Record{
		{Name: "MPI_Barrier", Dur: 2 * sim.Second, Time: 10, Node: "a"},
		{Name: "MPI_Barrier", Dur: 156431 * sim.Microsecond, Time: 30, Node: "a"},
		{Name: "SYS_read", Dur: 22 * sim.Microsecond, Time: 20, Node: "a", Bytes: 4096},
		{Name: "SYS_read", Dur: 22 * sim.Microsecond, Time: 40, Node: "b", Bytes: 4096},
		{Name: "SYS_open", Dur: 5 * sim.Microsecond, Time: 5, Node: "b", Path: "/f"},
		{Name: "SYS_pwrite", Dur: 100 * sim.Microsecond, Time: 50, Node: "b", Bytes: 8192, Path: "/f"},
	}
}

func TestSummarizeCountsAndTimes(t *testing.T) {
	s := must(SummarizeSource(trace.SliceSource(records())))
	rows := s.Rows()
	byName := map[string]SummaryRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if byName["MPI_Barrier"].Calls != 2 {
		t.Fatalf("barrier calls = %d", byName["MPI_Barrier"].Calls)
	}
	if byName["MPI_Barrier"].TotalTime != 2*sim.Second+156431*sim.Microsecond {
		t.Fatalf("barrier time = %v", byName["MPI_Barrier"].TotalTime)
	}
	if byName["SYS_read"].Calls != 2 {
		t.Fatalf("read calls = %d", byName["SYS_read"].Calls)
	}
}

func TestSummaryRowsSorted(t *testing.T) {
	rows := must(SummarizeSource(trace.SliceSource(records()))).Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i].Name < rows[i-1].Name {
			t.Fatal("rows not sorted")
		}
	}
}

func TestFormatMatchesFigure1(t *testing.T) {
	out := must(SummarizeSource(trace.SliceSource(records()))).Format()
	for _, want := range []string{
		"SUMMARY COUNT OF TRACED CALL(S)",
		"Function Name",
		"Number of Calls",
		"Total time (s)",
		"MPI_Barrier",
		"2.156431",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestCorrectTimelineAppliesEstimates(t *testing.T) {
	recs := []trace.Record{
		{Node: "a", Time: 1000},
		{Node: "b", Time: 1000},
		{Node: "c", Time: 1000},
	}
	est := map[string]clocks.Estimate{
		"a": {Skew: 100},
		"b": {Skew: -100},
	}
	out := CorrectTimeline(recs, est)
	if out[0].Time != 900 || out[1].Time != 1100 {
		t.Fatalf("corrected times: %v %v", out[0].Time, out[1].Time)
	}
	if out[2].Time != 1000 {
		t.Fatalf("unknown node altered: %v", out[2].Time)
	}
	// Original untouched.
	if recs[0].Time != 1000 {
		t.Fatal("input mutated")
	}
}

func TestMergeSortedOrders(t *testing.T) {
	a := []trace.Record{{Time: 10}, {Time: 30}}
	b := []trace.Record{{Time: 20}, {Time: 40}}
	out := must(trace.Collect(trace.MergeSources(trace.SliceSource(a), trace.SliceSource(b))))
	for i := 1; i < len(out); i++ {
		if out[i].Time < out[i-1].Time {
			t.Fatal("not sorted")
		}
	}
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
}

// Property: merging per-process streams with trace.MergeSources always
// yields records nondecreasing in Time. Each process emits its records in
// time order, which is MergeSources' input contract, so the two streams are
// dealt from the sorted times.
func TestMergeSortedProperty(t *testing.T) {
	f := func(times []int16) bool {
		slices.Sort(times)
		var a, b []trace.Record
		for i, tm := range times {
			r := trace.Record{Time: sim.Time(tm)}
			if i%2 == 0 {
				a = append(a, r)
			} else {
				b = append(b, r)
			}
		}
		out := must(trace.Collect(trace.MergeSources(trace.SliceSource(a), trace.SliceSource(b))))
		for i := 1; i < len(out); i++ {
			if out[i].Time < out[i-1].Time {
				return false
			}
		}
		return len(out) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeIOStats(t *testing.T) {
	st := must(ComputeIOStatsSource(trace.SliceSource(records())))
	if st.Calls != 3 {
		t.Fatalf("io calls = %d", st.Calls)
	}
	if st.Bytes != 4096*2+8192 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if st.ReadBytes != 8192 || st.WriteBytes != 8192 {
		t.Fatalf("read=%d write=%d", st.ReadBytes, st.WriteBytes)
	}
	if len(st.DistinctPath) != 1 {
		t.Fatalf("paths = %d", len(st.DistinctPath))
	}
	if st.Bandwidth() <= 0 {
		t.Fatal("bandwidth not positive")
	}
}

// TestIOStatsNeitherReadNorWrite pins the direction-classification fix:
// byte-carrying records that move data in no single direction (mmap
// regions, readdir-style metadata) must not inflate WriteBytes — the old
// "anything without read in the name is a write" rule counted them all.
func TestIOStatsNeitherReadNorWrite(t *testing.T) {
	recs := []trace.Record{
		{Name: "SYS_pwrite", Bytes: 4096, Dur: sim.Microsecond},
		{Name: "SYS_pread", Bytes: 1024, Dur: sim.Microsecond},
		{Name: "SYS_mmap", Bytes: 65536, Dur: sim.Microsecond},
		{Name: "SYS_readdir", Bytes: 512, Dur: sim.Microsecond},
	}
	st := must(ComputeIOStatsSource(trace.SliceSource(recs)))
	if st.WriteBytes != 4096 {
		t.Fatalf("WriteBytes = %d, want 4096 (mmap/readdir bytes leaked in)", st.WriteBytes)
	}
	if st.ReadBytes != 1024 {
		t.Fatalf("ReadBytes = %d, want 1024 (readdir misclassified as read)", st.ReadBytes)
	}
	// All byte-carrying records still count toward the aggregate volume.
	if st.Bytes != 4096+1024+65536+512 {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	if st.Calls != 4 {
		t.Fatalf("Calls = %d", st.Calls)
	}
}

func TestRecordDirection(t *testing.T) {
	cases := []struct {
		name string
		want trace.IODir
	}{
		{"SYS_pwrite", trace.DirWrite},
		{"SYS_write", trace.DirWrite},
		{"MPI_File_write_at_all", trace.DirWrite},
		{"VFS_writepage", trace.DirWrite},
		{"SYS_pread", trace.DirRead},
		{"MPI_File_read_at", trace.DirRead},
		{"VFS_read", trace.DirRead},
		{"SYS_mmap", trace.DirNone},
		{"MPI_File_sync", trace.DirNone},
		{"SYS_readdir", trace.DirNone},
		{"custom_readwrite_probe", trace.DirWrite}, // heuristic: write wins
		{"custom_read_probe", trace.DirRead},
	}
	for _, c := range cases {
		r := trace.Record{Name: c.name}
		if got := r.Direction(); got != c.want {
			t.Errorf("Direction(%s) = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBandwidthZeroWhenNoTime(t *testing.T) {
	st := IOStats{}
	if st.Bandwidth() != 0 {
		t.Fatal("expected 0")
	}
}

func TestSummaryAddIncremental(t *testing.T) {
	s := &CallSummary{}
	s2 := NewCallSummary()
	r := trace.Record{Name: "X", Dur: 5}
	s2.Add(&r)
	s2.Add(&r)
	if rows := s2.Rows(); len(rows) != 1 || rows[0].Calls != 2 || rows[0].TotalTime != 10 {
		t.Fatalf("rows: %+v", rows)
	}
	_ = s
}
