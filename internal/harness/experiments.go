package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/anonymize"
	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/sim"
	"iotaxo/internal/tracefs"
	"iotaxo/internal/workload"
)

// --- Figure 1: the three LANL-Trace outputs ---

// Figure1Outputs holds sample text of the three output types.
type Figure1Outputs struct {
	Raw        string // strace-style raw trace (first lines)
	Timing     string // aggregate barrier timing
	Summary    string // call summary
	CmdLine    string
	RawRecords int
}

// Figure1 regenerates the paper's Figure 1 sample outputs with the same
// benchmark parameterization shown there (-type 1 -strided 1 -size 32768
// -nobj 1).
func Figure1(o Options) Figure1Outputs {
	cfg := cluster.Default()
	cfg.ComputeNodes = 8
	cfg.Seed = o.Seed
	c := cluster.New(cfg)
	spec := workload.Params{
		Pattern:   workload.N1Strided,
		BlockSize: 32768,
		NObj:      1,
		Path:      "/pfs/mpi_io_test.out",
	}.Spec()
	fw := lanltrace.New(lanltrace.DefaultConfig())
	rep := fw.Run(c.World, spec.CommandLine, func(p *sim.Proc, r *mpi.Rank) {
		spec.Program(p, r, nil)
	})
	raw := rep.RawTraceText(0)
	// Clip the raw sample like the figure does.
	lines := strings.SplitN(raw, "\n", 21)
	if len(lines) > 20 {
		lines = lines[:20]
		lines = append(lines, "...")
	}
	return Figure1Outputs{
		Raw:        strings.Join(lines, "\n") + "\n",
		Timing:     rep.AggregateTimingText(),
		Summary:    rep.CallSummaryText(),
		CmdLine:    spec.CommandLine,
		RawRecords: rep.PerRank[0].Len(),
	}
}

// --- In-text overhead table (Section 4.1.2) ---

// OverheadCell is one pattern x blocksize measurement.
type OverheadCell struct {
	Pattern   workload.Pattern
	Block     int64
	BwOvhFrac float64
}

// InTextResult reproduces the in-text table: bandwidth overheads for the
// three patterns at 64 KB and 8192 KB.
type InTextResult struct {
	Cells []OverheadCell
}

// InTextOverheads measures the six numbers quoted in Section 4.1.2 (paper:
// 51.3/64.7/68.6 % at 64 KB; 5.5/6.1/0.6 % at 8192 KB): the block-size
// matrix of LANL-Trace over the three patterns at those two sizes. Its keys
// coincide with the figure sweeps', so with a shared Options.Cache the
// cells come for free after any figure has run.
func InTextOverheads(o Options) InTextResult {
	o.BlockSizes = []int64{64 << 10, 8192 << 10}
	var res InTextResult
	for i, cell := range o.patternMatrix() {
		for _, p := range cell.Points {
			res.Cells = append(res.Cells, OverheadCell{
				Pattern: figurePatterns[i], Block: p.BlockBytes, BwOvhFrac: p.BandwidthOvhFrac,
			})
		}
	}
	return res
}

// figurePatterns are the access patterns of Figures 2-4, in figure order.
var figurePatterns = []workload.Pattern{workload.N1Strided, workload.N1NonStrided, workload.NToN}

// patternMatrix sweeps LANL-Trace over the figure patterns along BlockAxis
// in one matrix call: one series per pattern, in figure order.
func (o Options) patternMatrix() []Series {
	o.Workloads = make([]workload.Workload, len(figurePatterns))
	for i, p := range figurePatterns {
		o.Workloads[i] = workload.PatternWorkload(p)
	}
	return o.sweepOf(o.lanlFramework())
}

// sweepOf runs fws over o's workloads along BlockAxis through the engine,
// for the experiments whose built-in frameworks cannot fail a run.
func (o Options) sweepOf(fws ...framework.Framework) []Series {
	series, _, err := matrixSweepOf(BlockAxis, o, fws)
	if err != nil {
		panic(err)
	}
	return series
}

// Format renders the in-text table with the paper's values alongside.
func (r InTextResult) Format() string {
	paper := map[string]map[int64]float64{
		"N-1 strided":     {64 << 10: 0.513, 8192 << 10: 0.055},
		"N-1 non-strided": {64 << 10: 0.647, 8192 << 10: 0.061},
		"N-N":             {64 << 10: 0.686, 8192 << 10: 0.006},
	}
	var b strings.Builder
	b.WriteString("# In-text bandwidth overhead table (Section 4.1.2)\n")
	fmt.Fprintf(&b, "%-18s %10s %14s %14s\n", "pattern", "block(KB)", "measured %", "paper %")
	for _, c := range r.Cells {
		want := paper[c.Pattern.String()][c.Block]
		fmt.Fprintf(&b, "%-18s %10d %14.1f %14.1f\n",
			c.Pattern, c.Block>>10, c.BwOvhFrac*100, want*100)
	}
	return b.String()
}

// --- Elapsed-time overhead range (Section 4.1.1) ---

// ElapsedRangeResult is the observed elapsed-overhead envelope.
type ElapsedRangeResult struct {
	Min, Max  float64
	Points    []BandwidthPoint
	Workloads []string
}

// ElapsedRange sweeps all patterns and block sizes, reporting the
// elapsed-time overhead range (paper: 24% to 222%). With no measured
// points the envelope is zero, never a sentinel.
func ElapsedRange(o Options) ElapsedRangeResult {
	var res ElapsedRangeResult
	for _, cell := range o.patternMatrix() {
		for _, p := range cell.Points {
			res.Points = append(res.Points, p)
			res.Workloads = append(res.Workloads, cell.Workload)
		}
	}
	res.Min, res.Max = rangeOver(len(res.Points), func(i int) float64 { return res.Points[i].ElapsedOvhFrac })
	return res
}

// Format renders the range against the paper's.
func (r ElapsedRangeResult) Format() string {
	return fmt.Sprintf("# Elapsed-time overhead range (Section 4.1.1)\nmeasured: %.0f%% - %.0f%%\npaper:    24%% - 222%%\n",
		r.Min*100, r.Max*100)
}

// --- Tracefs experiment (Section 4.2) ---

// TracefsRow is one feature configuration's measurement.
type TracefsRow struct {
	Name        string
	ElapsedOvh  float64
	OutputBytes int64
	Events      int64
}

// TracefsResult is the feature ablation table.
type TracefsResult struct {
	Rows []TracefsRow
}

// tracefsVariants is the escalating feature ladder of Section 4.2: one
// configured Tracefs framework per table row, with the row names.
func tracefsVariants() (names []string, fws []framework.Framework) {
	add := func(name string, set func(*tracefs.Config)) {
		cfg := tracefs.DefaultConfig()
		set(&cfg)
		names = append(names, name)
		fws = append(fws, tracefs.AsFramework(cfg))
	}
	add("trace all ops (buffered)", func(*tracefs.Config) {})
	add("granularity: large writes only", func(c *tracefs.Config) {
		c.Filter = tracefs.MustCompileFilter("op == write && bytes >= 4096")
	})
	add("unbuffered", func(c *tracefs.Config) { c.Buffer = 1 })
	add("+checksumming", func(c *tracefs.Config) { c.Checksum = true })
	add("+compression", func(c *tracefs.Config) { c.Checksum, c.Compress = true, true })
	add("+CBC encryption (full)", func(c *tracefs.Config) {
		c.Checksum, c.Compress, c.Encrypt = true, true, true
		c.Key = []byte("0123456789abcdef")
		c.EncryptSpec, _ = anonymize.ParseSpec("path,uid,gid")
	})
	return names, fws
}

// TracefsExperiment measures elapsed overhead for escalating feature sets
// (paper bound: <=12.4% for full tracing of an I/O-intensive workload, with
// "additional overhead for advanced features such as encryption and
// checksum calculation"). Each configuration is one framework row of the
// engine's block-size sweep — a Tracefs layer stacked over every compute
// node's parallel-file-system mount — observing the small-block N-1
// strided workload, the I/O-intensive end of the sweep. The rows share one
// untraced baseline, which is also the figure sweeps' 64 KB baseline.
func TracefsExperiment(o Options) TracefsResult {
	o.BlockSizes = []int64{64 << 10}
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	names, fws := tracefsVariants()
	res := TracefsResult{Rows: []TracefsRow{{Name: "untraced (baseline)"}}}
	for i, s := range o.sweepOf(fws...) {
		p := s.Points[0]
		res.Rows = append(res.Rows, TracefsRow{
			Name:        names[i],
			ElapsedOvh:  p.ElapsedOvhFrac,
			OutputBytes: p.TraceBytes,
			Events:      p.TraceEvents,
		})
	}
	return res
}

// Format renders the ablation table.
func (r TracefsResult) Format() string {
	var b strings.Builder
	b.WriteString("# Tracefs elapsed-time overhead by feature set (Section 4.2; paper bound <=12.4%)\n")
	fmt.Fprintf(&b, "%-34s %12s %12s %10s\n", "configuration", "elapsed ovh %", "trace bytes", "events")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-34s %12.1f %12d %10d\n", row.Name, row.ElapsedOvh*100, row.OutputBytes, row.Events)
	}
	return b.String()
}

// MaxOverhead returns the worst overhead across rows.
func (r TracefsResult) MaxOverhead() float64 {
	m := 0.0
	for _, row := range r.Rows {
		if row.ElapsedOvh > m {
			m = row.ElapsedOvh
		}
	}
	return m
}

// --- //TRACE experiment (Section 4.3) ---

// PartraceRow is one sampling level's measurement.
type PartraceRow struct {
	SampledRanks int
	Runs         int
	OverheadFrac float64
	DepCount     int
	FidelityErr  float64
}

// PartraceResult is the fidelity/overhead frontier.
type PartraceResult struct {
	Rows []PartraceRow
}

// ParallelTraceExperiment sweeps the sampling knob, measuring total
// trace-generation overhead (paper: ~0% to 205%) and replay fidelity
// (paper: as low as 6%). Each sampling level is one framework row of the
// engine's sweep, whose adapter folds the throttled discovery runs and the
// replay pass into the generic Report. The job is a checkpoint-style
// variant of N-1 strided: 8 objects of 256 KB per rank to /pfs/app.out,
// with a barrier every 2 objects for the throttling runs to discover.
func ParallelTraceExperiment(o Options) PartraceResult {
	if o.Ranks > 8 {
		o.Ranks = 8 // dependency probing is O(runs); keep the sweep tractable
	}
	const block, objects = 256 << 10, 8
	o.BlockSizes = []int64{block}
	o.PerRankBytes = objects * block
	job := workload.Variant("N-1 strided, barrier every 2", func(sc workload.Scale) workload.Params {
		p := sc.MPIIOParams(workload.N1Strided)
		p.Path = "/pfs/app.out"
		p.BarrierEvery = 2
		return p
	})
	o.Workloads = []workload.Workload{job}

	// Sampling levels 0, 1, 2 and every rank, clamped to the job size and
	// deduplicated so small jobs do not repeat (or over-ask) a level.
	var levels []int
	for _, l := range []int{0, 1, 2, o.Ranks} {
		if l = min(l, o.Ranks); len(levels) == 0 || l > levels[len(levels)-1] {
			levels = append(levels, l)
		}
	}
	fws := make([]framework.Framework, len(levels))
	for i, sampled := range levels {
		cfg := partrace.DefaultConfig()
		cfg.SampledRanks = sampled
		fws[i] = partrace.AsFramework(cfg)
	}
	res := PartraceResult{Rows: make([]PartraceRow, len(levels))}
	for i, s := range o.sweepOf(fws...) {
		p := s.Points[0]
		res.Rows[i] = PartraceRow{
			SampledRanks: levels[i],
			Runs:         p.Runs,
			OverheadFrac: p.ElapsedOvhFrac,
			DepCount:     p.Deps,
			FidelityErr:  p.ReplayErr,
		}
	}
	return res
}

// Format renders the frontier.
func (r PartraceResult) Format() string {
	var b strings.Builder
	b.WriteString("# //TRACE sampling sweep (Section 4.3; paper: overhead ~0%-205%, fidelity as low as 6%)\n")
	fmt.Fprintf(&b, "%8s %6s %14s %8s %14s\n", "sampled", "runs", "overhead %", "deps", "fidelity err %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8d %6d %14.0f %8d %14.1f\n",
			row.SampledRanks, row.Runs, row.OverheadFrac*100, row.DepCount, row.FidelityErr*100)
	}
	return b.String()
}
