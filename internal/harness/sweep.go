package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// This file is the measurement engine: one framework on one workload,
// traced against untraced, at every rung of an axis. The paper's
// evaluation sweeps block size (Figures 2-4); the same measurement along
// the rank count asks how tracers behave as jobs grow, and along the
// parallel file system's object server count how interposition cost
// composes with storage parallelism. An Axis says what changes from rung to
// rung; everything else — one shared untraced and one traced run per rung,
// the overhead arithmetic, memoization through Options.Cache, the bounded
// scheduler, and the rendered tables — is the engine's, so a new axis is
// one Axis value.

// Axis is a sweep's x-axis.
type Axis struct {
	// Name labels a rung in run errors ("LANL-Trace, N-N, ranks 16").
	Name string
	// ID heads each series table, Versus completes its title
	// ("LANL-Trace overhead vs ranks, N-N"), and Matrix names the axis in
	// a matrix header ("framework x workload scaling matrix").
	ID, Versus, Matrix string
	// Rungs lists the axis values swept under o.
	Rungs func(o Options) []int64
	// Apply derives one rung's options and workload scale. Rung options
	// are the rung's complete testbed, so cache keys and the scheduler's
	// cost estimate see the rung's actual size.
	Apply func(o Options, v int64) (Options, workload.Scale)
	// Setting renders what the axis holds fixed ("weak scaling", "8
	// ranks") for series headers; nil for none.
	Setting func(o Options) string
	// Columns lead every table row and CSV record, identifying the rung.
	Columns []Column
}

// Column is one leading column of a rendered series.
type Column struct {
	Head  string // table header
	CSV   string // CSV header
	Width int    // table column width
	Value func(p BandwidthPoint) int64
}

// BlockAxis sweeps Options.BlockSizes: the paper's Figures 2-4 and the
// matrix cells.
var BlockAxis = Axis{
	Name: "block", ID: "sweep",
	Rungs: func(o Options) []int64 { return o.BlockSizes },
	Apply: func(o Options, v int64) (Options, workload.Scale) { return o, o.scaleFor(v) },
	Columns: []Column{
		{"block(KB)", "block_kb", 10, func(p BandwidthPoint) int64 { return p.Rung >> 10 }},
	},
}

// RankAxis holds the block size fixed and sweeps the job size, 4 doubling
// to Options.MaxRanks, in weak mode (fixed per-rank volume) or strong mode
// (fixed total volume).
var RankAxis = Axis{
	Name: "ranks", ID: "scale", Versus: " vs ranks", Matrix: "scaling",
	Rungs: func(o Options) []int64 {
		return doublingLadder(minScaleRanks, orDefault(o.MaxRanks, defaultMaxRanks))
	},
	Apply: func(o Options, v int64) (Options, workload.Scale) {
		sc := o.scaleRung(int(v))
		o.Ranks = int(v)
		return o, sc
	},
	Setting: func(o Options) string { return o.ScaleMode.String() + " scaling" },
	Columns: []Column{
		{"ranks", "ranks", 8, func(p BandwidthPoint) int64 { return p.Rung }},
		{"per-rank(KB)", "per_rank_kb", 12, func(p BandwidthPoint) int64 { return p.PerRankBytes >> 10 }},
	},
}

// ServerAxis fixes the job (ranks and block size) and sweeps the parallel
// file system's object server count, 1 doubling to Options.MaxServers.
// Overhead is relative to the untraced run at the same server count, so a
// tracer whose stalls hide behind a saturated 1-server file system shows
// once 16 servers absorb the I/O.
var ServerAxis = Axis{
	Name: "servers", ID: "servers", Versus: " vs PFS servers", Matrix: "server-count",
	Rungs: func(o Options) []int64 {
		return doublingLadder(minScaleServers, orDefault(o.MaxServers, defaultMaxServers))
	},
	Apply: func(o Options, v int64) (Options, workload.Scale) {
		o.PFSServers = int(v)
		return o, workload.Scale{BlockSize: o.scaleBlock(), PerRankBytes: o.PerRankBytes}
	},
	Setting: func(o Options) string { return fmt.Sprintf("%d ranks", o.Ranks) },
	Columns: []Column{
		{"servers", "servers", 8, func(p BandwidthPoint) int64 { return p.Rung }},
	},
}

// ScaleMode selects how data volume scales with the rank count.
type ScaleMode int

const (
	// WeakScaling fixes the per-rank volume: total volume grows with the
	// job, the checkpoint-style regime most HPC I/O scales in.
	WeakScaling ScaleMode = iota
	// StrongScaling fixes the total volume (the ladder's base job size
	// minScaleRanks x PerRankBytes), divided evenly across ranks.
	StrongScaling
)

// String implements fmt.Stringer with the CLI tokens.
func (m ScaleMode) String() string {
	if m == StrongScaling {
		return "strong"
	}
	return "weak"
}

// ParseScaleMode inverts String for the -scale-mode flags.
func ParseScaleMode(s string) (ScaleMode, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "weak", "":
		return WeakScaling, true
	case "strong":
		return StrongScaling, true
	}
	return WeakScaling, false
}

const (
	// defaultMaxRanks is the rank ladder's default top rung.
	defaultMaxRanks = 512
	// defaultMaxServers is the server ladder's default top rung, chosen to
	// bracket the paper testbed's 12 object servers.
	defaultMaxServers = 16

	minScaleRanks   = 4 // the rank ladder's base rung
	minScaleServers = 1 // the server ladder's base rung
)

// LadderOptions returns the default configuration of the ladder
// experiments (RankAxis and ServerAxis): 64 KB blocks, 1 MiB per rank, the
// paper's 32-rank job where the job is fixed, ranks 4 doubling to 512 and
// servers 1 doubling to 16. Event counts stay proportional to ranks, so the
// top rank rung is CI-affordable.
func LadderOptions() Options {
	o := DefaultOptions()
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{64 << 10}
	o.MaxRanks = defaultMaxRanks
	o.MaxServers = defaultMaxServers
	return o
}

// LadderSmokeOptions returns the smallest ladders (ranks 4 to 16, servers 1
// to 4 at 8 ranks, 256 KiB per rank), affordable for the full registry under
// the race detector: CI's scaling and server-sweep smoke steps.
func LadderSmokeOptions() Options {
	o := LadderOptions()
	o.Ranks = 8
	o.PerRankBytes = 256 << 10
	o.MaxRanks = 16
	o.MaxServers = 4
	return o
}

// orDefault returns v when positive, def otherwise.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// doublingLadder returns a ladder's rungs doubling from min toward max, with
// max itself always the top rung even when it is off the doubling grid.
func doublingLadder(min, max int) []int64 {
	var ladder []int64
	for v := min; v < max; v *= 2 {
		ladder = append(ladder, int64(v))
	}
	if n := len(ladder); n == 0 || ladder[n-1] < int64(max) {
		ladder = append(ladder, int64(max))
	}
	return ladder
}

// scaleBlock is the fixed block size of the ladder experiments: the first
// configured block size.
func (o Options) scaleBlock() int64 {
	if len(o.BlockSizes) > 0 {
		return o.BlockSizes[0]
	}
	return 64 << 10
}

// scaleRung derives one rank rung's scale from the mode: weak keeps
// PerRankBytes per rank; strong divides the ladder-base total (minScaleRanks
// x PerRankBytes) across the rung's ranks, flooring at one block per rank.
func (o Options) scaleRung(ranks int) workload.Scale {
	block := o.scaleBlock()
	if o.ScaleMode == StrongScaling {
		return workload.StrongScale(block, o.PerRankBytes*int64(minScaleRanks), ranks)
	}
	return workload.WeakScale(block, o.PerRankBytes)
}

// ResolveLadderOptions builds a ladder experiment's configuration from
// `tracebench -exp scaling|servers` flag values. mode must parse.
// maxRanks, maxServers, ranks and ranksPerNode override the base when
// positive, keep it when zero, and are rejected when negative. The workload
// token selects the column axis: empty means the paper's most demanding
// pattern (N-1 strided, keeping default runs affordable), "all" the whole
// registry, anything else one registered scenario.
func ResolveLadderOptions(base Options, mode string, maxRanks, maxServers, ranks, ranksPerNode int, workloadName string) (Options, error) {
	sm, ok := ParseScaleMode(mode)
	if !ok {
		return base, fmt.Errorf("unknown scale mode %q (have weak, strong)", mode)
	}
	o := base
	o.ScaleMode = sm
	for _, f := range []struct {
		name string
		v    int
		dst  *int
	}{
		{"max ranks", maxRanks, &o.MaxRanks},
		{"max servers", maxServers, &o.MaxServers},
		{"ranks", ranks, &o.Ranks},
		{"ranks per node", ranksPerNode, &o.RanksPerNode},
	} {
		if f.v < 0 {
			return o, fmt.Errorf("%s must be >= 1 (0 keeps the default), got %d", f.name, f.v)
		}
		if f.v > 0 {
			*f.dst = f.v
		}
	}
	switch workloadName {
	case "":
		o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	case "all":
		o.Workloads = nil // full workload registry
	default:
		w, ok := workload.ByName(workloadName)
		if !ok {
			return o, fmt.Errorf("unknown workload %q (have all, %s)",
				workloadName, strings.Join(workload.Names(), ", "))
		}
		o.Workloads = []workload.Workload{w}
	}
	return o, nil
}

// Series is one framework x workload overhead series along one axis: a
// block-size figure, a rank ladder, or a server ladder.
type Series struct {
	ID        string
	Title     string
	Framework string
	Workload  string
	// Setting, Block and RanksPerNode describe what the axis held fixed;
	// the table header shows them when Setting is non-empty.
	Setting      string
	Block        int64
	RanksPerNode int // placement density; 1 is one rank per node
	Points       []BandwidthPoint

	columns []Column
}

// ElapsedOvhRange returns the series' elapsed-overhead envelope across its
// rungs. A series with no points reports the zero (unmeasured) envelope.
func (s Series) ElapsedOvhRange() (min, max float64) {
	return rangeOver(len(s.Points), func(i int) float64 { return s.Points[i].ElapsedOvhFrac })
}

// Placement renders the series' ", N ranks/node" suffix — empty for the
// default one-rank-per-node placement. CSV consumers append it to their own
// series captions so multi-rank-per-node data stays distinguishable.
func (s Series) Placement() string {
	if s.RanksPerNode > 1 {
		return fmt.Sprintf(", %d ranks/node", s.RanksPerNode)
	}
	return ""
}

// Format renders the series as an aligned text table (the repo's stand-in
// for the paper's plots): the axis's leading columns, then bandwidth and
// overheads.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s", s.ID, s.Title)
	if s.Setting != "" {
		fmt.Fprintf(&b, " (%s, block %d KB%s)", s.Setting, s.Block>>10, s.Placement())
	}
	b.WriteByte('\n')
	for _, c := range s.columns {
		fmt.Fprintf(&b, "%*s ", c.Width, c.Head)
	}
	fmt.Fprintf(&b, "%14s %14s %12s %12s\n", "untraced MB/s", "traced MB/s", "bw ovh %", "elapsed ovh %")
	for _, p := range s.Points {
		for _, c := range s.columns {
			fmt.Fprintf(&b, "%*d ", c.Width, c.Value(p))
		}
		fmt.Fprintf(&b, "%14.1f %14.1f %12.1f %12.1f\n",
			p.UntracedMBps, p.TracedMBps, p.BandwidthOvhFrac*100, p.ElapsedOvhFrac*100)
	}
	return b.String()
}

// CSV renders the series for plotting.
func (s Series) CSV() string {
	var b strings.Builder
	for _, c := range s.columns {
		b.WriteString(c.CSV + ",")
	}
	b.WriteString("untraced_mbps,traced_mbps,bw_overhead_frac,elapsed_overhead_frac\n")
	for _, p := range s.Points {
		for _, c := range s.columns {
			fmt.Fprintf(&b, "%d,", c.Value(p))
		}
		fmt.Fprintf(&b, "%.3f,%.3f,%.4f,%.4f\n",
			p.UntracedMBps, p.TracedMBps, p.BandwidthOvhFrac, p.ElapsedOvhFrac)
	}
	return b.String()
}

// SeriesMatrix is one axis swept for every framework x workload pair: one
// series each, row-major in framework order.
type SeriesMatrix struct {
	Series []Series
	// Stats is the sweep's cache/scheduler accounting, reported beside the
	// measurements (never inside Format, which must stay byte-identical
	// between cold and warm runs).
	Stats SweepStats

	axis string
}

// Format renders every series' table under one header, separated by blank
// lines, in matrix (framework-major) order.
func (m SeriesMatrix) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# framework x workload %s matrix (%d series)\n", m.axis, len(m.Series))
	for _, s := range m.Series {
		b.WriteByte('\n')
		b.WriteString(s.Format())
	}
	return b.String()
}

// Sweep measures one framework against one workload at every rung of ax.
// Every (rung, traced?) run is an independent, identically seeded
// simulation executed on the shared bounded scheduler, so the series is
// deterministic however the runs interleave.
func Sweep(ax Axis, fw framework.Framework, w workload.Workload, o Options) (Series, error) {
	o.Workloads = []workload.Workload{w}
	series, _, err := matrixSweepOf(ax, o, []framework.Framework{fw})
	return series[0], err
}

// SeriesMatrixSweep sweeps ax for every registered framework on every
// registered workload (Options.Workloads restricts the column axis).
func SeriesMatrixSweep(ax Axis, o Options) (SeriesMatrix, error) {
	series, stats, err := matrixSweepOf(ax, o, framework.All())
	return SeriesMatrix{Series: series, Stats: stats, axis: ax.Matrix}, err
}

// rungRun is one rung's staged measurement: what the scheduler's leaf tasks
// write and point assembly reads.
type rungRun struct {
	sc  workload.Scale
	un  workload.Result
	rep framework.Report
	err error
}

// matrixSweepOf is the engine behind every sweep: each framework x workload
// pair's rungs are staged into one task set — one untraced and one traced
// run per rung, identical untraced baselines shared across framework rows,
// every leaf memoized through Options.Cache — and run on the bounded
// scheduler, so peak concurrency stays at PoolSize however large the
// registries grow. The series come back row-major (framework-major) with the
// call's cache/scheduler accounting.
func matrixSweepOf(ax Axis, o Options, fws []framework.Framework) ([]Series, SweepStats, error) {
	workloads := o.matrixWorkloads()
	rungs := ax.Rungs(o)
	series := make([]Series, len(fws)*len(workloads))
	runs := make([]rungRun, len(series)*len(rungs))
	cache := o.cacheOrEphemeral()
	before := cache.Stats()
	ts := newTaskSet(cache)
	for fi, fw := range fws {
		for wi, w := range workloads {
			idx := fi*len(workloads) + wi
			for i, v := range rungs {
				r := &runs[idx*len(rungs)+i]
				var ro Options
				ro, r.sc = ax.Apply(o, v)
				ts.untraced(ro, w, r.sc, &r.un)
				ts.traced(ro, fw, w, r.sc,
					fmt.Sprintf("%s, %s, %s %d", fw.Name(), w.Name(), ax.Name, v),
					&r.rep, &r.err)
			}
		}
	}
	ts.run()
	stats := sweepStatsSince(cache, before)
	setting := ""
	if ax.Setting != nil {
		setting = ax.Setting(o)
	}
	for fi, fw := range fws {
		for wi, w := range workloads {
			idx := fi*len(workloads) + wi
			s := Series{
				ID:           ax.ID,
				Title:        fmt.Sprintf("%s overhead%s, %s", fw.Name(), ax.Versus, w.Name()),
				Framework:    fw.Name(),
				Workload:     w.Name(),
				Setting:      setting,
				Block:        o.scaleBlock(),
				RanksPerNode: o.ranksPerNode(),
				Points:       make([]BandwidthPoint, len(rungs)),
				columns:      ax.Columns,
			}
			for i, v := range rungs {
				r := &runs[idx*len(rungs)+i]
				if r.err != nil {
					return series, stats, r.err
				}
				s.Points[i] = makePoint(v, r.sc, r.un, r.rep)
			}
			series[idx] = s
		}
	}
	return series, stats, nil
}
