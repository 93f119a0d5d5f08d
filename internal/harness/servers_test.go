package harness

import (
	"strings"
	"testing"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

func TestServerLadder(t *testing.T) {
	o := Options{MaxServers: 16}
	want := []int64{1, 2, 4, 8, 16}
	got := ServerAxis.Rungs(o)
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	// A top rung off the doubling grid — the paper testbed's 12 servers —
	// is still included.
	o.MaxServers = 12
	got = ServerAxis.Rungs(o)
	if got[len(got)-1] != 12 || got[len(got)-2] != 8 {
		t.Fatalf("off-grid ladder = %v", got)
	}
	// Zero defaults.
	if top := ServerAxis.Rungs(Options{}); top[len(top)-1] != defaultMaxServers {
		t.Fatalf("default ladder top = %d", top[len(top)-1])
	}
}

func TestResolveServerOptions(t *testing.T) {
	o, err := ResolveLadderOptions(LadderOptions(), "strong", 64, 8, 16, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if o.ScaleMode != StrongScaling || o.MaxRanks != 64 || o.MaxServers != 8 || o.Ranks != 16 || o.RanksPerNode != 2 {
		t.Fatalf("resolved %+v", o)
	}
	if len(o.Workloads) != 1 || o.Workloads[0].Name() != workload.N1Strided.String() {
		t.Fatalf("default workload axis = %v", o.Workloads)
	}
	// Zero keeps the base options' values.
	base := LadderSmokeOptions()
	if o, err = ResolveLadderOptions(base, "", 0, 0, 0, 0, "all"); err != nil || o.Workloads != nil {
		t.Fatalf("all: %v %v", o.Workloads, err)
	}
	if o.MaxRanks != base.MaxRanks || o.MaxServers != base.MaxServers || o.Ranks != base.Ranks || o.RanksPerNode != base.RanksPerNode {
		t.Fatalf("zero flags changed the base: %+v", o)
	}
	for _, c := range []struct {
		name                                      string
		mode                                      string
		maxRanks, maxServers, ranks, ranksPerNode int
		workload                                  string
		wantErr                                   string
	}{
		{"unknown workload", "", 0, 0, 0, 0, "nosuch", "unknown workload"},
		{"unknown mode", "linear", 0, 0, 0, 0, "", "unknown scale mode"},
		{"negative ranks per node", "", 0, 0, 0, -1, "", "ranks per node must be >= 1"},
		{"negative max ranks", "", -4, 0, 0, 0, "", "max ranks must be >= 1"},
		{"negative max servers", "", 0, -2, 0, 0, "", "max servers must be >= 1"},
		{"negative ranks", "", 0, 0, -8, 0, "", "ranks must be >= 1"},
	} {
		_, err := ResolveLadderOptions(LadderOptions(), c.mode, c.maxRanks, c.maxServers, c.ranks, c.ranksPerNode, c.workload)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

func TestServerSweepShape(t *testing.T) {
	o := LadderSmokeOptions()
	res, err := Sweep(ServerAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
	if err != nil {
		t.Fatal(err)
	}
	ladder := ServerAxis.Rungs(o)
	if len(res.Points) != len(ladder) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(ladder))
	}
	for i, p := range res.Points {
		if p.Rung != ladder[i] {
			t.Fatalf("point %d servers = %d, want %d", i, p.Rung, ladder[i])
		}
		if p.UntracedMBps <= 0 || p.TracedMBps <= 0 {
			t.Fatalf("no bandwidth at %d servers", p.Rung)
		}
	}
	// More object servers must raise untraced bandwidth across the ladder
	// (the sweep's reason to exist: the file system stops being the
	// bottleneck, exposing tracer overhead).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.UntracedMBps <= first.UntracedMBps {
		t.Fatalf("untraced bandwidth did not scale with servers: %v -> %v",
			first.UntracedMBps, last.UntracedMBps)
	}
	out := res.Format()
	for _, want := range []string{"servers", "untraced MB/s", "elapsed ovh %", "LANL-Trace", "8 ranks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "servers,") || strings.Count(csv, "\n") != len(ladder)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestServerMatrixCoversRegistry(t *testing.T) {
	o := LadderSmokeOptions()
	o.MaxServers = 2
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	m, err := SeriesMatrixSweep(ServerAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) != len(framework.Names()) {
		t.Fatalf("series = %d, want %d", len(m.Series), len(framework.Names()))
	}
	for i, name := range framework.Names() {
		if m.Series[i].Framework != name {
			t.Fatalf("series %d framework = %q, want %q", i, m.Series[i].Framework, name)
		}
	}
	out := m.Format()
	if !strings.Contains(out, "server-count matrix") || strings.Count(out, "# servers:") != len(m.Series) {
		t.Fatalf("matrix format:\n%s", out)
	}
	checkGolden(t, "server_matrix_smoke.txt", out)
	var csv strings.Builder
	for _, s := range m.Series {
		csv.WriteString("# " + s.Framework + "\n" + s.CSV())
	}
	checkGolden(t, "server_matrix_smoke.csv", csv.String())
}

// TestServerSweepDeterministic runs the same server sweep twice and requires
// byte-identical rendering; rungs run concurrently on the shared scheduler,
// so each must be an independently seeded simulation with no shared state.
func TestServerSweepDeterministic(t *testing.T) {
	o := LadderSmokeOptions()
	run := func() string {
		res, err := Sweep(ServerAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format() + res.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("server sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestPlacementSweepDeterministic is the RanksPerNode counterpart: a 4-ranks
// -per-node scaling sweep must be byte-identical across runs, and its output
// must carry the placement label.
func TestPlacementSweepDeterministic(t *testing.T) {
	o := LadderSmokeOptions()
	o.RanksPerNode = 4
	run := func() string {
		res, err := Sweep(RankAxis, framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format() + res.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("placement sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "4 ranks/node") {
		t.Fatalf("placement label missing:\n%s", a)
	}
	checkGolden(t, "scale_placement4_tracefs.txt", a)
}

// TestPlacementChangesContention sanity-checks the placement axis: packing 4
// ranks onto each node makes them share one NIC and kernel, which must not
// produce the same testbed as one rank per node.
func TestPlacementChangesContention(t *testing.T) {
	o := LadderSmokeOptions()
	o.Ranks = 16
	base := o.runUntracedAt(workload.PatternWorkload(workload.N1Strided), o.scaleRung(16), NewCache(""))
	o.RanksPerNode = 4
	packed := o.runUntracedAt(workload.PatternWorkload(workload.N1Strided), o.scaleRung(16), NewCache(""))
	if base.Ranks != 16 || packed.Ranks != 16 {
		t.Fatalf("ranks: base %d, packed %d", base.Ranks, packed.Ranks)
	}
	if base.Elapsed == packed.Elapsed {
		t.Fatal("4 ranks/node produced an identical schedule to 1 rank/node")
	}
}
