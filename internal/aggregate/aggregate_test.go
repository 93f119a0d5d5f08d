package aggregate

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

func mkRecords(n int, class trace.EventClass, startAt sim.Time) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = trace.Record{
			Time:  startAt + sim.Time(i)*sim.Millisecond,
			Class: class,
			Name:  "SYS_pwrite",
			Path:  "/pfs/data",
			Bytes: 4096,
			Rank:  i % 2,
		}
	}
	return out
}

// records drains one fresh cursor over src.
func records(t *testing.T, src Source) []trace.Record {
	t.Helper()
	cur, err := src.Open()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(cur)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestMergedOrdersAcrossSources(t *testing.T) {
	a := New(
		FromRecords("A", mkRecords(3, trace.ClassSyscall, 10*sim.Millisecond), Capabilities{}),
		FromRecords("B", mkRecords(3, trace.ClassFSOp, 0), Capabilities{}),
	)
	events, err := a.Merged()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 {
		t.Fatalf("events = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("not time ordered")
		}
	}
	if events[0].Source != "B" {
		t.Fatalf("first event source = %s", events[0].Source)
	}
}

func TestSelectFilters(t *testing.T) {
	recs := mkRecords(10, trace.ClassSyscall, 0)
	recs[3].Path = "/home/other"
	recs[4].Bytes = 0
	a := New(FromRecords("A", recs, Capabilities{}))

	got, _ := a.Select(Query{PathGlob: "/pfs/*", Rank: -1})
	if len(got) != 9 {
		t.Fatalf("path filter: %d", len(got))
	}
	got, _ = a.Select(Query{OnlyIO: true, Rank: -1})
	if len(got) != 9 {
		t.Fatalf("io filter: %d", len(got))
	}
	got, _ = a.Select(Query{Rank: 1})
	if len(got) != 5 {
		t.Fatalf("rank filter: %d", len(got))
	}
	got, _ = a.Select(Query{From: 5 * sim.Millisecond, To: 8 * sim.Millisecond, Rank: -1})
	if len(got) != 3 {
		t.Fatalf("window filter: %d", len(got))
	}
	got, _ = a.Select(Query{Classes: []trace.EventClass{trace.ClassFSOp}, Rank: -1})
	if len(got) != 0 {
		t.Fatalf("class filter: %d", len(got))
	}
	got, _ = a.Select(Query{Source: "nope", Rank: -1})
	if len(got) != 0 {
		t.Fatalf("source filter: %d", len(got))
	}
}

func TestLANLTraceSourceCorrectsSkew(t *testing.T) {
	cfg := cluster.Small()
	cfg.MaxSkew = 200 * sim.Millisecond
	c := cluster.New(cfg)
	fw := lanltrace.New(lanltrace.StraceConfig())
	params := workload.Params{
		Pattern: workload.N1Strided, BlockSize: 64 << 10, NObj: 2, Path: "/pfs/f",
	}
	rep := fw.Run(c.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	src := FromLANLTrace(rep)
	if !src.Capabilities().SkewCorrected {
		t.Fatal("LANL-Trace source should be skew corrected")
	}
	recs := records(t, src)
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	// Corrected first-barrier-adjacent syscalls across nodes should sit
	// within a few ms of each other despite 200 ms skews: check the spread
	// of the earliest record per node.
	first := make(map[string]sim.Time)
	for _, r := range recs {
		if t0, ok := first[r.Node]; !ok || r.Time < t0 {
			first[r.Node] = r.Time
		}
	}
	var lo, hi sim.Time
	started := false
	for _, t0 := range first {
		if !started {
			lo, hi, started = t0, t0, true
			continue
		}
		if t0 < lo {
			lo = t0
		}
		if t0 > hi {
			hi = t0
		}
	}
	if hi-lo > 50*sim.Millisecond {
		t.Fatalf("corrected per-node starts spread %v, want well under the 200ms skew", hi-lo)
	}
}

func TestReplayableSource(t *testing.T) {
	factory := func() *cluster.Cluster {
		cfg := cluster.Small()
		cfg.MaxSkew = 0
		cfg.MaxDrift = 0
		return cluster.New(cfg)
	}
	params := workload.Params{
		Pattern: workload.N1Strided, BlockSize: 64 << 10, NObj: 2,
		Path: "/pfs/f", BarrierEvery: 1,
	}
	gen, err := partrace.New(partrace.DefaultConfig()).Generate(factory, func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	src := FromReplayable(gen.Trace)
	if !src.Capabilities().Replayable {
		t.Fatal("replayable capability missing")
	}
	recs := records(t, src)
	if len(recs) != gen.Trace.OpCount() {
		t.Fatalf("records = %d, ops = %d", len(recs), gen.Trace.OpCount())
	}
	for _, r := range recs {
		if r.Class != trace.ClassMPI {
			t.Fatalf("class = %v", r.Class)
		}
	}
	_ = replay.Fidelity // keep import meaningful
}

func TestSummaries(t *testing.T) {
	a := New(
		FromRecords("A", mkRecords(4, trace.ClassSyscall, 0), Capabilities{}),
		FromRecords("B", mkRecords(2, trace.ClassFSOp, sim.Second), Capabilities{}),
	)
	sums, err := a.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 || sums[0].Records != 4 || sums[1].Records != 2 {
		t.Fatalf("sums: %+v", sums)
	}
	if sums[0].IOBytes != 4*4096 {
		t.Fatalf("io bytes = %d", sums[0].IOBytes)
	}
	out := FormatSummaries(sums)
	if !strings.Contains(out, "A") || !strings.Contains(out, "B") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestTimelineCSV(t *testing.T) {
	a := New(FromRecords("A", mkRecords(2, trace.ClassSyscall, 0), Capabilities{}))
	csv, err := a.TimelineCSV()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "time_ns,") {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestSourcesMutationIsolation(t *testing.T) {
	recs := mkRecords(1, trace.ClassSyscall, 0)
	src := FromRecords("A", recs, Capabilities{})
	got := records(t, src)
	got[0].Path = "/mutated"
	again := records(t, src)
	if again[0].Path == "/mutated" {
		t.Fatal("source exposes shared storage")
	}
}

func TestAddAndSources(t *testing.T) {
	a := New()
	a.Add(FromRecords("X", nil, Capabilities{}))
	a.Add(FromRecords("Y", nil, Capabilities{}))
	names := a.Sources()
	if len(names) != 2 || names[0] != "X" || names[1] != "Y" {
		t.Fatalf("sources: %v", names)
	}
}
