package lanltrace

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

func TestPseudoAppReproducesIOSignature(t *testing.T) {
	params := smallParams()

	// Untraced baseline: end state + elapsed.
	c0 := testCluster(false)
	base := params.Spec().Run(c0.World)
	s0, d0, w0, _ := c0.PFS.Snapshot(params.Path)

	// Traced run (strace mode keeps timing distortion low).
	c1 := testCluster(false)
	fw := New(StraceConfig())
	rep := fw.Run(c1.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})

	// Generate the pseudo-application from the RAW TEXT (exercising the
	// full parse path, as an offline replayer would).
	tr, err := GeneratePseudoApp(rawTraces(rep), base.Elapsed)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 4 {
		t.Fatalf("ranks = %d", tr.Ranks)
	}
	// Per rank: /etc/hosts open+read+close, then PFS open + 4 writes +
	// close = 9 replayable ops.
	for rank, ops := range tr.Ops {
		if len(ops) != 9 {
			t.Fatalf("rank %d: %d ops (%+v)", rank, len(ops), ops)
		}
	}

	// Replay on a fresh cluster and compare the I/O signature.
	c2 := testCluster(false)
	if _, err := replay.Execute(c2, tr); err != nil {
		t.Fatal(err)
	}
	s2, d2, w2, ok := c2.PFS.Snapshot(params.Path)
	if !ok || s0 != s2 || d0 != d2 || w0 != w2 {
		t.Fatalf("pseudo-app signature differs: (%d,%x,%d) vs (%d,%x,%d)", s0, d0, w0, s2, d2, w2)
	}
}

func TestPseudoAppFidelityWeakerThanParallelTrace(t *testing.T) {
	// LANL-Trace's replayer has no dependency information, and its think
	// times absorb tracer overhead: document that its fidelity is loose
	// (the reason the paper classifies "Replayable trace generation: No").
	params := smallParams()
	c0 := testCluster(false)
	base := params.Spec().Run(c0.World)

	c1 := testCluster(false)
	fw := New(StraceConfig())
	rep := fw.Run(c1.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	tr, err := GeneratePseudoApp(rawTraces(rep), base.Elapsed)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(false)
	res, err := replay.Execute(c2, tr)
	if err != nil {
		t.Fatal(err)
	}
	fid := replay.Fidelity(base.Elapsed, res.Elapsed)
	// It should still be in the right ballpark (the ops and gaps are
	// real), just not //TRACE-grade.
	if fid > 1.0 {
		t.Fatalf("fidelity error %.0f%% beyond even the loose bound", fid*100)
	}
	t.Logf("pseudo-app fidelity error: %.1f%% (no dependency edges)", fid*100)
}

func TestGeneratePseudoAppParsesStandaloneText(t *testing.T) {
	raw := `# iotaxo-trace text v1
# node=host01 rank=0 pid=100
00:00:00.000100 SYS_open("/pfs/f", 0x41, 0644) = 3 <0.000050>
00:00:00.000200 SYS_pwrite(3, 0, 65536) = 65536 <0.000400>
00:00:00.000700 SYS_write(3, 1024) = 1024 <0.000100>
00:00:00.000900 SYS_close(3) = 0 <0.000010>
`
	tr, err := GeneratePseudoApp([]string{raw}, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	ops := tr.Ops[0]
	if len(ops) != 4 {
		t.Fatalf("ops = %d: %+v", len(ops), ops)
	}
	if ops[1].Kind != replay.OpWrite || ops[1].Offset != 0 || ops[1].Bytes != 65536 {
		t.Fatalf("pwrite op: %+v", ops[1])
	}
	// Sequential write lands at the tracked position (65536? no: pos
	// advances only via sequential ops; pwrite does not move it).
	if ops[2].Offset != 0 || ops[2].Bytes != 1024 {
		t.Fatalf("sequential write op: %+v", ops[2])
	}
	// Think gap between pwrite end (000600) and write start (000700).
	if ops[2].Compute != 100*sim.Microsecond {
		t.Fatalf("think = %v", ops[2].Compute)
	}
}

func TestGeneratePseudoAppRejectsUnknownFD(t *testing.T) {
	raw := "# node=n rank=0 pid=1\n00:00:00.000100 SYS_pwrite(9, 0, 10) = 10 <0.000001>\n"
	if _, err := GeneratePseudoApp([]string{raw}, sim.Second); err == nil {
		t.Fatal("expected unknown-fd error")
	}
}

func TestGeneratePseudoAppSkipsFailedOpens(t *testing.T) {
	raw := `# node=n rank=0 pid=1
00:00:00.000100 SYS_open("/missing", 0x0, 0) = -1 vfs: no such file <0.000020>
00:00:00.000200 SYS_open("/pfs/f", 0x41, 0644) = 3 <0.000050>
00:00:00.000300 SYS_close(3) = 0 <0.000010>
`
	tr, err := GeneratePseudoApp([]string{raw}, sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops[0]) != 2 {
		t.Fatalf("ops: %+v", tr.Ops[0])
	}
}

func TestGeneratePseudoAppBadRank(t *testing.T) {
	raw := "# node=n rank=7 pid=1\n00:00:00.000100 SYS_open(\"/f\", 0x41, 0644) = 3 <0.000010>\n"
	if _, err := GeneratePseudoApp([]string{raw}, sim.Second); err == nil ||
		!strings.Contains(err.Error(), "rank") {
		t.Fatalf("err = %v", err)
	}
}

var _ = cluster.NodeName // keep the import for test helpers above

// rawTraces renders every rank's raw trace text, the files an offline
// replayer would read.
func rawTraces(rep *Report) []string {
	texts := make([]string, len(rep.PerRank))
	for rank := range texts {
		texts[rank] = rep.RawTraceText(rank)
	}
	return texts
}
