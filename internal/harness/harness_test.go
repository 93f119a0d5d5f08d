package harness

import (
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// The probes below read state that only this package's tests inspect.

// BestFidelity returns the smallest fidelity error across rows (0 when no
// rows were measured).
func (r PartraceResult) BestFidelity() float64 {
	best := 0.0
	for i, row := range r.Rows {
		if i == 0 || row.FidelityErr < best {
			best = row.FidelityErr
		}
	}
	return best
}

// WorkloadNames returns the matrix's column order.
func (m MatrixResult) WorkloadNames() []string {
	out := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		out[i] = w.Name()
	}
	return out
}

// The harness tests assert the *shape* claims of the paper's evaluation at
// a scaled-down data volume: who wins, by roughly what factor, and where
// the curves bend. Absolute MB/s values are simulation artifacts.

func TestFigure2Shape(t *testing.T) {
	o := QuickOptions()
	fig := Figure2(o)
	if len(fig.Points) != len(o.BlockSizes) {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Untraced bandwidth grows with block size.
	first, last := fig.Points[0], fig.Points[len(fig.Points)-1]
	if last.UntracedMBps <= first.UntracedMBps {
		t.Fatalf("bandwidth did not grow: %v -> %v", first.UntracedMBps, last.UntracedMBps)
	}
	// Tracing costs bandwidth at small blocks...
	if first.BandwidthOvhFrac < 0.2 {
		t.Fatalf("64KB bandwidth overhead %.1f%%, want tens of %%", first.BandwidthOvhFrac*100)
	}
	// ...and much less at large blocks.
	if last.BandwidthOvhFrac > 0.15 {
		t.Fatalf("8MB bandwidth overhead %.1f%%, want <15%%", last.BandwidthOvhFrac*100)
	}
	if first.BandwidthOvhFrac <= last.BandwidthOvhFrac {
		t.Fatal("overhead did not fall with block size")
	}
}

func TestFigure3And4SameShape(t *testing.T) {
	o := QuickOptions()
	for _, fig := range []Series{Figure3(o), Figure4(o)} {
		first := fig.Points[0]
		last := fig.Points[len(fig.Points)-1]
		if first.BandwidthOvhFrac <= last.BandwidthOvhFrac {
			t.Fatalf("%s: overhead flat or rising: %.2f -> %.2f",
				fig.ID, first.BandwidthOvhFrac, last.BandwidthOvhFrac)
		}
		if first.TracedMBps >= first.UntracedMBps {
			t.Fatalf("%s: tracing did not cost bandwidth at 64KB", fig.ID)
		}
	}
}

func TestInTextOverheadBands(t *testing.T) {
	o := QuickOptions()
	res := InTextOverheads(o)
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		switch c.Block {
		case 64 << 10:
			// Paper: 51.3-68.6%. Accept a generous band around it.
			if c.BwOvhFrac < 0.25 || c.BwOvhFrac > 0.95 {
				t.Errorf("%v @64KB: %.1f%%, want 25-95%%", c.Pattern, c.BwOvhFrac*100)
			}
		case 8192 << 10:
			// Paper: 0.6-6.1%.
			if c.BwOvhFrac < -0.05 || c.BwOvhFrac > 0.15 {
				t.Errorf("%v @8MB: %.1f%%, want <15%%", c.Pattern, c.BwOvhFrac*100)
			}
		}
	}
	out := res.Format()
	if !strings.Contains(out, "paper %") || !strings.Contains(out, "N-1 strided") {
		t.Fatalf("format:\n%s", out)
	}
	checkGolden(t, "intext_quick.txt", out)
}

func TestElapsedRangeBand(t *testing.T) {
	o := QuickOptions()
	res := ElapsedRange(o)
	if res.Min >= res.Max {
		t.Fatalf("range degenerate: %v..%v", res.Min, res.Max)
	}
	// Paper: 24%-222%; variability must be large and block-size-driven.
	if res.Max < 0.5 {
		t.Fatalf("max elapsed overhead %.0f%%, want >50%%", res.Max*100)
	}
	if res.Min > 0.5 {
		t.Fatalf("min elapsed overhead %.0f%%, want <50%%", res.Min*100)
	}
	if !strings.Contains(res.Format(), "24% - 222%") {
		t.Fatal("format missing paper reference")
	}
}

func TestTracefsExperimentBands(t *testing.T) {
	o := QuickOptions()
	res := TracefsExperiment(o)
	rows := map[string]TracefsRow{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	plain := rows["trace all ops (buffered)"]
	// Paper bound for plain full tracing: <=12.4%.
	if plain.ElapsedOvh <= 0 || plain.ElapsedOvh > 0.124 {
		t.Fatalf("plain tracing overhead %.1f%%, want (0, 12.4%%]", plain.ElapsedOvh*100)
	}
	// Feature costs escalate.
	if rows["+checksumming"].ElapsedOvh < plain.ElapsedOvh {
		t.Fatal("checksumming did not add cost")
	}
	if rows["+CBC encryption (full)"].ElapsedOvh <= rows["+checksumming"].ElapsedOvh {
		t.Fatal("encryption did not add cost over checksumming")
	}
	// Granularity filtering reduces output volume.
	if rows["granularity: large writes only"].OutputBytes >= plain.OutputBytes {
		t.Fatal("filter did not shrink output")
	}
	// Compression shrinks output.
	if rows["+compression"].OutputBytes >= plain.OutputBytes {
		t.Fatal("compression did not shrink output")
	}
	checkGolden(t, "tracefs_quick.txt", res.Format())
}

func TestParallelTraceFrontier(t *testing.T) {
	// The quick job (8 ranks) plus the small jobs whose sampling levels
	// collide with the fixed 0/1/2 levels.
	for _, ranks := range []int{QuickOptions().Ranks, 2, 1} {
		o := QuickOptions()
		o.Ranks = ranks
		res := ParallelTraceExperiment(o)
		if len(res.Rows) < 2 {
			t.Fatalf("%d ranks: rows = %d", ranks, len(res.Rows))
		}
		if ranks == QuickOptions().Ranks {
			checkGolden(t, "ptrace_quick.txt", res.Format())
		}
		if last := res.Rows[len(res.Rows)-1].SampledRanks; last != ranks {
			t.Fatalf("%d ranks: top sampling level %d, want every rank", ranks, last)
		}
		// Levels are distinct; overhead rises with sampling.
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i].SampledRanks <= res.Rows[i-1].SampledRanks {
				t.Fatalf("%d ranks: sampling levels not strictly increasing: %+v", ranks, res.Rows)
			}
			if res.Rows[i].OverheadFrac <= res.Rows[i-1].OverheadFrac {
				t.Fatalf("%d ranks: overhead not increasing at row %d", ranks, i)
			}
		}
		zero := res.Rows[0]
		fullest := res.Rows[len(res.Rows)-1]
		if zero.OverheadFrac > 0.10 {
			t.Fatalf("%d ranks: zero-sampling overhead %.1f%%, want ~0%%", ranks, zero.OverheadFrac*100)
		}
		// Fidelity error falls once there are cross-rank dependencies to
		// discover; a one-rank job has none.
		if ranks == 1 {
			if fullest.DepCount != 0 {
				t.Fatalf("1 rank: %d dependencies discovered, want 0", fullest.DepCount)
			}
		} else if fullest.FidelityErr >= zero.FidelityErr {
			t.Fatalf("%d ranks: dependencies did not improve fidelity", ranks)
		}
		// Paper: fidelity as low as 6%.
		if res.BestFidelity() > 0.12 {
			t.Fatalf("%d ranks: best fidelity error %.1f%%, want <=12%%", ranks, res.BestFidelity()*100)
		}
	}
}

func TestCollectiveAblation(t *testing.T) {
	res := CollectiveAblation(QuickOptions())
	if len(res.Rows) < 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Two-phase I/O wins on sub-stripe blocks and loses once blocks are
	// large enough that the shuffle costs more than it merges.
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.SpeedupCollective <= 1 {
		t.Errorf("%d KB: collective speedup %.2fx, want > 1", first.Block>>10, first.SpeedupCollective)
	}
	if last.SpeedupCollective >= 1 {
		t.Errorf("%d KB: collective speedup %.2fx, want < 1", last.Block>>10, last.SpeedupCollective)
	}
	checkGolden(t, "collective_quick.txt", res.Format())
}

func TestFigure1OutputsLookRight(t *testing.T) {
	res := Figure1(QuickOptions())
	for _, want := range []string{"SYS_pwrite", "MPI_File_open", "SYS_statfs64"} {
		if !strings.Contains(res.Raw, want) {
			t.Errorf("raw output missing %q:\n%s", want, res.Raw)
		}
	}
	for _, want := range []string{"# Barrier before", "Entered barrier at", "Exited barrier at"} {
		if !strings.Contains(res.Timing, want) {
			t.Errorf("timing output missing %q", want)
		}
	}
	for _, want := range []string{"SUMMARY COUNT OF TRACED CALL(S)", "MPI_Barrier", "SYS_open"} {
		if !strings.Contains(res.Summary, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	if !strings.Contains(res.CmdLine, `"-size" "32768"`) {
		t.Errorf("command line: %s", res.CmdLine)
	}
}

// matrixOptions is a minimal configuration for registry-wide matrix tests:
// one block size keeps every framework x every workload affordable.
func matrixOptions() Options {
	return MatrixSmokeOptions()
}

func TestMatrixSweepCoversEveryRegisteredFrameworkAndWorkload(t *testing.T) {
	m, err := MatrixSweep(matrixOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := m.FrameworkNames()
	if !reflect.DeepEqual(names, framework.Names()) {
		t.Fatalf("matrix rows %v != registry %v", names, framework.Names())
	}
	if !reflect.DeepEqual(m.WorkloadNames(), workload.Names()) {
		t.Fatalf("matrix columns %v != registry %v", m.WorkloadNames(), workload.Names())
	}
	if len(m.Workloads) < 7 {
		t.Fatalf("workload axis has %d entries, want >= 7 (3 patterns + 4 scenarios)", len(m.Workloads))
	}
	for _, want := range []string{"LANL-Trace", "Tracefs", "//TRACE", "Multi-Layer Trace Analysis", "PathTrace (X-Trace style)"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", want, names)
		}
	}
	if len(m.Cells) != len(names)*len(m.Workloads) {
		t.Fatalf("cells = %d, want %d", len(m.Cells), len(names)*len(m.Workloads))
	}
	for _, cell := range m.Cells {
		if len(cell.Points) != 1 {
			t.Fatalf("cell %s/%s has %d points", cell.Framework, cell.Workload, len(cell.Points))
		}
		p := cell.Points[0]
		if p.TraceEvents == 0 {
			t.Errorf("%s on %s traced no events", cell.Framework, cell.Workload)
		}
		if p.Runs < 1 {
			t.Errorf("%s on %s reports %d runs", cell.Framework, cell.Workload, p.Runs)
		}
	}
}

// TestMatrixSweepDeterministic runs the full registry x registry matrix
// twice and requires byte-identical rendering: cells run concurrently, so
// each must be an independently seeded simulation with no cross-cell
// state.
func TestMatrixSweepDeterministic(t *testing.T) {
	o := matrixOptions()
	run := func() string {
		m, err := MatrixSweepOf(o, framework.All()...)
		if err != nil {
			t.Fatal(err)
		}
		return m.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("matrix output not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestMatrixEmptyEnvelope pins the sentinel-leak fix: a sweep with no
// block sizes must render a zero envelope and leave classifications
// unmeasured, not leak the 1e9/-1e9 accumulator seeds.
func TestMatrixEmptyEnvelope(t *testing.T) {
	if min, max := (Series{}).ElapsedOvhRange(); min != 0 || max != 0 {
		t.Fatalf("empty cell envelope = %v..%v, want 0..0", min, max)
	}
	o := matrixOptions()
	o.BlockSizes = nil
	m, err := MatrixSweepOf(o, framework.MustLookup("Tracefs"))
	if err != nil {
		t.Fatal(err)
	}
	out := m.Format()
	if strings.Contains(out, "100000000000") {
		t.Fatalf("sentinel leaked into matrix rendering:\n%s", out)
	}
	if !strings.Contains(out, "0.0 - 0.0") {
		t.Fatalf("empty cells should render a zero envelope:\n%s", out)
	}
	// With zero points the classification must keep its registered (paper)
	// overhead report, not claim a fresh measurement.
	if c := m.Classifications()[0]; c.ElapsedOverhead.Description == "measured, this repository" {
		t.Fatalf("zero-point sweep claimed a measured overhead: %+v", c.ElapsedOverhead)
	}
}

func TestMatrixClassificationsFoldMeasurements(t *testing.T) {
	m, err := MatrixSweep(matrixOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := m.Classifications()
	if len(cs) != len(m.FrameworkNames()) {
		t.Fatalf("classifications = %d", len(cs))
	}
	sawReplay := false
	for _, c := range cs {
		if !c.ElapsedOverhead.Measured {
			t.Errorf("%s: overhead not folded in", c.Name)
		}
		if c.ElapsedOverhead.Description != "measured, this repository" {
			t.Errorf("%s: description %q", c.Name, c.ElapsedOverhead.Description)
		}
		if c.Name == "//TRACE" {
			if !c.ReplayFidelity.Supported {
				t.Error("//TRACE replay fidelity not folded in")
			}
			sawReplay = true
		}
	}
	if !sawReplay {
		t.Fatal("no //TRACE row in classifications")
	}
	table := m.RenderComparison()
	for _, want := range []string{"LANL-Trace", "Tracefs", "//TRACE", "Multi-Layer", "PathTrace", "measured, this repository"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	if !strings.Contains(m.Format(), "framework x workload") {
		t.Fatalf("matrix format:\n%s", m.Format())
	}
}

func TestGenericSweepMatchesFigure2(t *testing.T) {
	// Figure 2 is a LANL-Trace instance of the generic sweep: the same
	// framework/pattern through Sweep must produce identical points.
	o := QuickOptions()
	o.BlockSizes = o.BlockSizes[:2]
	fig := Figure2(o)
	sw, err := Sweep(BlockAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig.Points, sw.Points) {
		t.Fatalf("generic sweep diverged from Figure2:\n%+v\nvs\n%+v", fig.Points, sw.Points)
	}
}

func TestMatrixSweepOfSingleFramework(t *testing.T) {
	o := matrixOptions()
	fw := framework.MustLookup("Tracefs")
	m, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.FrameworkNames(); len(got) != 1 || got[0] != "Tracefs" {
		t.Fatalf("names = %v", got)
	}
	c := m.Classifications()[0]
	if !c.ElapsedOverhead.Measured {
		t.Fatal("single-framework sweep did not fold overhead")
	}
}

func TestFigureCSV(t *testing.T) {
	o := QuickOptions()
	fig := Figure2(o)
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "block_kb,") || strings.Count(csv, "\n") != len(o.BlockSizes)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
	checkGolden(t, "fig2_quick.txt", fig.Format())
	checkGolden(t, "fig2_quick.csv", csv)
}

func TestScaleForDerivesNObj(t *testing.T) {
	o := DefaultOptions()
	p := o.scaleFor(64 << 10).MPIIOParams(workload.N1Strided)
	if p.NObj != int(o.PerRankBytes/(64<<10)) {
		t.Fatalf("nobj = %d", p.NObj)
	}
	p = o.scaleFor(o.PerRankBytes * 2).MPIIOParams(workload.NToN)
	if p.NObj != 1 {
		t.Fatalf("nobj floor = %d", p.NObj)
	}
}

func TestOptionsPresets(t *testing.T) {
	if FullOptions().PerRankBytes != 100<<30/32 {
		t.Fatal("full options not paper scale")
	}
	if len(DefaultOptions().BlockSizes) != 8 {
		t.Fatal("default sweep should cover 8 block sizes")
	}
}
