package lanltrace

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

func testCluster(skew bool) *cluster.Cluster {
	cfg := cluster.Small()
	if !skew {
		cfg.MaxSkew = 0
		cfg.MaxDrift = 0
	}
	return cluster.New(cfg)
}

func smallParams() workload.Params {
	return workload.Params{
		Pattern:   workload.N1Strided,
		BlockSize: 64 << 10,
		NObj:      4,
		Path:      "/pfs/mpi_io_test.out",
	}
}

func runTraced(t *testing.T, cfg Config, skew bool) (*Report, *cluster.Cluster) {
	t.Helper()
	c := testCluster(skew)
	fw := New(cfg)
	params := smallParams()
	rep := fw.Run(c.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	return rep, c
}

func TestTracedRunProducesRecords(t *testing.T) {
	rep, _ := runTraced(t, DefaultConfig(), false)
	if rep.TraceEvents == 0 || rep.TraceBytes == 0 {
		t.Fatalf("no trace output: %+v", rep)
	}
	for rank, col := range rep.PerRank {
		if col.Len() == 0 {
			t.Fatalf("rank %d produced no records", rank)
		}
	}
}

func TestLtraceSeesMPIAndSyscalls(t *testing.T) {
	rep, _ := runTraced(t, DefaultConfig(), false)
	classes := map[trace.EventClass]int{}
	for _, r := range rep.AllRecords() {
		classes[r.Class]++
	}
	if classes[trace.ClassMPI] == 0 {
		t.Fatal("ltrace mode saw no MPI library calls")
	}
	if classes[trace.ClassSyscall] == 0 {
		t.Fatal("ltrace mode saw no system calls")
	}
}

func TestStraceSeesOnlySyscalls(t *testing.T) {
	rep, _ := runTraced(t, StraceConfig(), false)
	for _, r := range rep.AllRecords() {
		if r.Class != trace.ClassSyscall {
			t.Fatalf("strace mode saw %v record %s", r.Class, r.Name)
		}
	}
}

func TestRawTraceOutputParses(t *testing.T) {
	rep, _ := runTraced(t, DefaultConfig(), false)
	text := rep.RawTraceText(0)
	if !strings.Contains(text, "SYS_pwrite") {
		t.Fatalf("raw trace missing writes:\n%s", text[:min(len(text), 500)])
	}
	recs, err := trace.Collect(trace.NewTextReader(strings.NewReader(text)))
	if err != nil {
		t.Fatalf("raw trace does not parse: %v", err)
	}
	if len(recs) != rep.PerRank[0].Len() {
		t.Fatalf("parsed %d records, collector has %d", len(recs), rep.PerRank[0].Len())
	}
}

func TestAggregateTimingFormat(t *testing.T) {
	rep, _ := runTraced(t, DefaultConfig(), true)
	text := rep.AggregateTimingText()
	for _, want := range []string{
		"# Barrier before /mpi_io_test.exe",
		"# Barrier after /mpi_io_test.exe",
		"Entered barrier at",
		"Exited barrier at",
		"host01.lanl.gov",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("timing output missing %q:\n%s", want, text)
		}
	}
}

func TestCallSummaryFormat(t *testing.T) {
	rep, _ := runTraced(t, DefaultConfig(), false)
	text := rep.CallSummaryText()
	for _, want := range []string{
		"SUMMARY COUNT OF TRACED CALL(S)",
		"Function Name",
		"MPI_Barrier",
		"SYS_pwrite",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
}

func TestTracingAddsOverhead(t *testing.T) {
	params := smallParams()
	// Untraced baseline.
	c1 := testCluster(false)
	base := params.Spec().Run(c1.World)
	// Traced.
	rep, _ := runTraced(t, DefaultConfig(), false)
	if rep.Elapsed <= base.Elapsed {
		t.Fatalf("tracing did not slow the app: traced %v vs untraced %v", rep.Elapsed, base.Elapsed)
	}
}

func TestStraceCheaperThanLtrace(t *testing.T) {
	repL, _ := runTraced(t, DefaultConfig(), false)
	repS, _ := runTraced(t, StraceConfig(), false)
	if repS.Elapsed >= repL.Elapsed {
		t.Fatalf("strace (%v) not cheaper than ltrace (%v)", repS.Elapsed, repL.Elapsed)
	}
}

func TestTracedRunSameFileSystemEndState(t *testing.T) {
	params := smallParams()
	c1 := testCluster(false)
	params.Spec().Run(c1.World)
	s1, d1, w1, ok1 := c1.PFS.Snapshot(params.Path)

	c2 := testCluster(false)
	fw := New(DefaultConfig())
	fw.Run(c2.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	s2, d2, w2, ok2 := c2.PFS.Snapshot(params.Path)

	if !ok1 || !ok2 || s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("end state differs: (%d,%x,%d,%v) vs (%d,%x,%d,%v)", s1, d1, w1, ok1, s2, d2, w2, ok2)
	}
}

func TestClockEstimatesRecoverSkew(t *testing.T) {
	cfg := cluster.Small()
	cfg.MaxSkew = 200 * sim.Millisecond
	cfg.MaxDrift = 50e-6
	c := cluster.New(cfg)
	fw := New(StraceConfig())
	params := smallParams()
	rep := fw.Run(c.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	est, err := rep.ClockEstimates()
	if err != nil {
		t.Fatal(err)
	}
	if len(est) != 4 {
		t.Fatalf("estimates for %d nodes, want 4", len(est))
	}
	// Rank 0's own estimate must be ~zero (it is the reference).
	ref := est[cluster.NodeName(0)]
	if ref.Skew > sim.Millisecond || ref.Skew < -sim.Millisecond {
		t.Fatalf("reference node skew estimate %v, want ~0", ref.Skew)
	}
	// Estimated relative skews must roughly match the configured clocks:
	// check that at least one non-reference node has a visible skew.
	sawSkew := false
	for node, e := range est {
		if node == cluster.NodeName(0) {
			continue
		}
		if e.Skew > 10*sim.Millisecond || e.Skew < -10*sim.Millisecond {
			sawSkew = true
		}
	}
	if !sawSkew {
		t.Fatal("no node showed measurable skew despite configured clock error")
	}
}

func TestSkipTimingJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipTimingJob = true
	rep, _ := runTraced(t, cfg, false)
	if _, err := rep.ClockEstimates(); err == nil {
		t.Fatal("expected error without timing job")
	}
}

func TestTimingJobNotTraced(t *testing.T) {
	// The pre/post barrier jobs must not appear in the raw traces: count
	// MPI_Barrier records; the workload itself does 2 barriers per rank.
	rep, _ := runTraced(t, DefaultConfig(), false)
	for rank, col := range rep.PerRank {
		barriers := 0
		for _, r := range col.Records {
			if r.Name == "MPI_Barrier" {
				barriers++
			}
		}
		if barriers != 2 {
			t.Fatalf("rank %d has %d MPI_Barrier records, want 2 (timing job leaked into trace)", rank, barriers)
		}
	}
}

func TestClassificationMatchesPaper(t *testing.T) {
	c := AsFramework(DefaultConfig()).Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Name != "LANL-Trace" || !bool(c.ParallelFSCompat) || bool(c.ReplayableTraces) {
		t.Fatalf("classification: %+v", c)
	}
}

func TestModeString(t *testing.T) {
	if ModeStrace.String() != "strace" || ModeLtrace.String() != "ltrace" {
		t.Fatal("mode strings")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
