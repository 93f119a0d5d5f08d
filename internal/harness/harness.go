// Package harness drives every experiment in the paper's evaluation
// section: the three LANL-Trace overhead figures (Figures 2-4), the in-text
// bandwidth-overhead table, the elapsed-time overhead range, the Tracefs
// feature-overhead measurements, the //TRACE fidelity/overhead sweep, the
// Figure 1 sample outputs, and the measured classification summary.
//
// One sweep engine (sweep.go) measures a framework on a workload, traced
// against untraced, at every rung of an Axis: BlockAxis (the figures' block
// sizes), RankAxis (job size, weak or strong scaling) or ServerAxis (the
// parallel file system's object server count). Sweep runs one pair,
// SeriesMatrixSweep every registered framework x every registered workload
// along any axis, and MatrixSweep the block-size matrix that folds the
// measured overheads into each framework's taxonomy classification. The
// named figures and in-text tables are LANL-Trace instances of the same
// engine; the deep-dives are too, with one configured framework row per
// Tracefs feature set or //TRACE sampling level, and the collective
// ablation stages its untraced runs in the engine's task set. Every
// experiment simulation but Figure 1's sample run stages into one memoizing
// task set per call on a shared bounded scheduler, so every rendered table
// is deterministic and a warm repeat executes nothing.
//
// Experiments run at a scaled-down data volume by default (the simulation's
// cost is O(I/O events), and overhead *fractions* are volume-independent);
// FullOptions selects paper-scale sizes (one 100 GB shared file / N x 10 GB
// files).
package harness

import (
	"fmt"

	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"

	// Importing the harness registers every built-in tracing framework, so
	// MatrixSweep and the command-line tools see the full registry. Tracefs
	// and //TRACE register through the direct imports in experiments.go.
	_ "iotaxo/internal/multilayer"
	_ "iotaxo/internal/pathtrace"
)

// Options configures an experiment sweep.
type Options struct {
	// Ranks is the MPI job size (paper: 32).
	Ranks int
	// PerRankBytes is each rank's data volume; the paper wrote 100 GB/N
	// per rank to a shared file and 10 GB per rank in N-N.
	PerRankBytes int64
	// BlockSizes is the sweep's x-axis in bytes.
	BlockSizes []int64
	// Seed feeds the deterministic simulation.
	Seed int64
	// Mode selects the LANL-Trace tracer for the figure experiments.
	Mode lanltrace.Mode
	// Workloads restricts the matrix's workload axis; nil means every
	// registered workload.
	Workloads []workload.Workload

	// MaxRanks bounds RankAxis: ranks double from 4 up to MaxRanks. Zero
	// means 512.
	MaxRanks int
	// ScaleMode selects weak scaling (fixed per-rank volume) or strong
	// scaling (fixed total volume) along RankAxis.
	ScaleMode ScaleMode

	// RanksPerNode is the placement axis: how many MPI ranks share one
	// compute node (and therefore its NIC, kernel, and local disk). Zero or
	// one means the paper's one-rank-per-node testbed.
	RanksPerNode int
	// PFSServers overrides the parallel file system's object server count;
	// zero keeps the testbed default. ServerAxis sweeps it.
	PFSServers int
	// MaxServers bounds ServerAxis: servers double from 1 up to MaxServers.
	// Zero means 16.
	MaxServers int

	// Cache memoizes leaf-simulation summaries across engine calls (and,
	// when the cache persists to disk, across processes). Nil gives every
	// engine call a fresh in-memory cache: in-run baseline sharing still
	// applies, but nothing is reused between calls — the right default for
	// tests and benchmarks, which must measure real simulations.
	Cache *Cache
}

// DefaultOptions returns the scaled-down sweep: 32 ranks, 16 MiB per rank,
// block sizes 64 KB to 8192 KB doubling (the figures' x-axis).
func DefaultOptions() Options {
	return Options{
		Ranks:        32,
		PerRankBytes: 16 << 20,
		BlockSizes:   []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Seed:         1,
		Mode:         lanltrace.ModeLtrace,
	}
}

// FullOptions returns paper-scale sizes (expensive: ~1.6 M syscalls at the
// 64 KB point).
func FullOptions() Options {
	o := DefaultOptions()
	o.PerRankBytes = 100 << 30 / 32 // one 100 GB shared file across 32 ranks
	return o
}

// QuickOptions returns a tiny sweep for unit tests and testing.B benches.
func QuickOptions() Options {
	return Options{
		Ranks:        8,
		PerRankBytes: 2 << 20,
		BlockSizes:   []int64{64 << 10, 512 << 10, 8 << 20},
		Seed:         1,
		Mode:         lanltrace.ModeLtrace,
	}
}

// MatrixSmokeOptions returns the smallest registry-wide configuration: one
// block size at 4 ranks, affordable for every framework x every workload
// under the race detector (CI's matrix-smoke step and `iotaxo -table
// matrix`).
func MatrixSmokeOptions() Options {
	o := QuickOptions()
	o.Ranks = 4
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{256 << 10}
	return o
}

// ranksPerNode returns the placement density, defaulted.
func (o Options) ranksPerNode() int {
	if o.RanksPerNode > 1 {
		return o.RanksPerNode
	}
	return 1
}

// clusterConfig derives the testbed configuration of one run. Ranks are
// block-placed RanksPerNode to a compute node (ceiling on the node count,
// so small rungs of the rank ladder still run when they do not fill one
// node), and PFSServers overrides the object server count when set. The
// config is the complete cluster-side input of a leaf simulation: its
// Digest (with the workload, scale, and framework) is the cache key.
func (o Options) clusterConfig() cluster.Config {
	cfg := cluster.Default()
	rpn := o.ranksPerNode()
	cfg.RanksPerNode = rpn
	cfg.ComputeNodes = (o.Ranks + rpn - 1) / rpn
	cfg.TotalRanks = o.Ranks
	if o.PFSServers > 0 {
		cfg.PFS.Servers = o.PFSServers
	}
	cfg.Seed = o.Seed
	return cfg
}

// newCluster builds a fresh testbed for one run.
func (o Options) newCluster() *cluster.Cluster {
	return cluster.New(o.clusterConfig())
}

// simKeyFor identifies one leaf simulation by its complete input set; fw is
// nil for untraced baselines.
func (o Options) simKeyFor(fw framework.Framework, w workload.Workload, sc workload.Scale) simKey {
	k := simKey{
		Workload: w.Name(),
		Scale:    sc.Digest(),
		Cluster:  o.clusterConfig().Digest(),
	}
	if fw != nil {
		k.Framework = fw.Name()
		k.Variant = framework.VariantDigest(fw)
	}
	return k
}

// scaleFor derives the workload scale at one block size.
func (o Options) scaleFor(block int64) workload.Scale {
	return workload.Scale{BlockSize: block, PerRankBytes: o.PerRankBytes}
}

// lanlFramework returns the LANL-Trace instance matching o.Mode, the tracer
// selector of the figure experiments.
func (o Options) lanlFramework() framework.Framework {
	if o.Mode == lanltrace.ModeStrace {
		return lanltrace.AsFramework(lanltrace.StraceConfig())
	}
	return lanltrace.AsFramework(lanltrace.DefaultConfig())
}

// BandwidthPoint is one rung of a sweep (Figures 2-4, the matrix cells and
// the ladders).
type BandwidthPoint struct {
	Rung             int64 // the axis value: block bytes, ranks, or servers
	BlockBytes       int64
	PerRankBytes     int64 // realized per-rank volume (after the one-block floor)
	UntracedMBps     float64
	TracedMBps       float64
	UntracedElapsed  sim.Duration
	TracedElapsed    sim.Duration // total trace-production time (== traced run time for single-run frameworks)
	BandwidthOvhFrac float64      // (untraced - traced) / untraced bandwidth
	ElapsedOvhFrac   float64      // (traced - untraced) / untraced elapsed

	// Trace output volume and framework-specific extras of the traced run.
	TraceEvents int64
	TraceBytes  int64
	Runs        int // application executions the framework consumed
	Deps        int // dependency edges discovered, if the framework reveals them
	// ReplayMeasured/ReplayErr report replay fidelity for frameworks that
	// generate replayable traces: the replayed run's end-to-end runtime
	// error against UntracedElapsed.
	ReplayMeasured bool
	ReplayErr      float64
}

// runUntracedAt executes one untraced benchmark run at an explicit scale.
func (o Options) runUntracedAt(w workload.Workload, sc workload.Scale) workload.Result {
	c := o.newCluster()
	return w.Run(c.World, sc)
}

// runTracedAt executes one traced benchmark run at an explicit scale
// through the generic framework interface: fresh cluster, attach, run.
func (o Options) runTracedAt(fw framework.Framework, w workload.Workload, sc workload.Scale) (framework.Report, error) {
	c := o.newCluster()
	return fw.Attach(c).Run(w.Spec(sc))
}

// makePoint folds one rung's (untraced, traced) run pair at scale sc into a
// sweep point: the one place overhead fractions and replay fidelity are
// computed.
func makePoint(rung int64, sc workload.Scale, un workload.Result, rep framework.Report) BandwidthPoint {
	tr := rep.Result
	pt := BandwidthPoint{
		Rung:            rung,
		BlockBytes:      sc.BlockSize,
		PerRankBytes:    int64(sc.Objects()) * sc.BlockSize,
		UntracedMBps:    un.BandwidthBps() / 1e6,
		TracedMBps:      tr.BandwidthBps() / 1e6,
		UntracedElapsed: un.Elapsed,
		TracedElapsed:   rep.TracingElapsed,
		TraceEvents:     rep.TraceEvents,
		TraceBytes:      rep.TraceBytes,
		Runs:            rep.Runs,
		Deps:            rep.Deps,
		ReplayMeasured:  rep.ReplayMeasured,
	}
	if rep.ReplayMeasured {
		pt.ReplayErr = replay.Fidelity(un.Elapsed, rep.ReplayElapsed)
	}
	if un.BandwidthBps() > 0 {
		pt.BandwidthOvhFrac = (un.BandwidthBps() - tr.BandwidthBps()) / un.BandwidthBps()
	}
	if un.Elapsed > 0 {
		pt.ElapsedOvhFrac = float64(rep.TracingElapsed-un.Elapsed) / float64(un.Elapsed)
	}
	return pt
}

// cacheOrEphemeral returns the options' cache, or a fresh in-memory cache
// for one engine call when none is configured.
func (o Options) cacheOrEphemeral() *Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return NewCache("")
}

// simCost estimates one leaf simulation's size (roughly its simulated I/O
// event count) for the scheduler's shortest-first ordering. Traced runs pay
// for interposition and trace output on every event.
func simCost(o Options, sc workload.Scale, traced bool) int64 {
	c := int64(sc.Objects())*int64(o.Ranks) + int64(o.Ranks)
	if traced {
		c *= 3
	}
	return c
}

// taskSet stages one engine call's leaf simulations before scheduling: the
// construction-time half of the memoization layer. Identical untraced
// baselines — every framework row of a matrix needs the same one per
// workload x scale — collapse into a single task whose result fans out to
// every registered destination, so a cold full-registry matrix executes one
// untraced run per cell-column instead of one per cell. Every task then
// resolves through the cache, which adds in-flight dedup and cross-process
// reuse. Construction is single-threaded; only run() executes anything.
type taskSet struct {
	cache     *Cache
	baselines map[simKey]*fanout
	tasks     []task
}

// fanout collects every destination awaiting one shared untraced baseline.
type fanout struct {
	dsts []*workload.Result
}

func newTaskSet(c *Cache) *taskSet {
	return &taskSet{cache: c, baselines: make(map[simKey]*fanout)}
}

// untraced stages a baseline run of w at sc, fanning an already-staged
// identical run out to dst instead of scheduling a duplicate.
func (ts *taskSet) untraced(o Options, w workload.Workload, sc workload.Scale, dst *workload.Result) {
	k := o.simKeyFor(nil, w, sc)
	if f, ok := ts.baselines[k]; ok {
		f.dsts = append(f.dsts, dst)
		ts.cache.shared.Add(1)
		return
	}
	f := &fanout{dsts: []*workload.Result{dst}}
	ts.baselines[k] = f
	ts.tasks = append(ts.tasks, task{
		cost: simCost(o, sc, false),
		run: func() {
			res := ts.cache.untraced(k, func() workload.Result { return o.runUntracedAt(w, sc) })
			for _, d := range f.dsts {
				*d = res
			}
		},
	})
}

// traced stages a traced run of w under fw at sc; label contextualizes the
// error wrap ("fw, w, block 65536").
func (ts *taskSet) traced(o Options, fw framework.Framework, w workload.Workload, sc workload.Scale, label string, dst *framework.Report, errDst *error) {
	k := o.simKeyFor(fw, w, sc)
	ts.tasks = append(ts.tasks, task{
		cost: simCost(o, sc, true),
		run: func() {
			rep, err := ts.cache.traced(k, func() (framework.Report, error) { return o.runTracedAt(fw, w, sc) })
			if err != nil {
				*errDst = fmt.Errorf("harness: %s: %w", label, err)
				return
			}
			*dst = rep
		},
	})
}

// run executes the staged tasks on the shared bounded scheduler.
func (ts *taskSet) run() { sched.run(ts.tasks) }

// figure runs one of the built-in LANL-Trace figures, whose frameworks
// cannot fail a run.
func (o Options) figure(id, title string, p workload.Pattern) Series {
	o.Workloads = []workload.Workload{workload.PatternWorkload(p)}
	fig := o.sweepOf(o.lanlFramework())[0]
	fig.ID, fig.Title = id, title
	return fig
}

// Figure2 regenerates Figure 2: N processes writing one shared file,
// strided — "the benchmark parameterization most demanding on the parallel
// I/O file system".
func Figure2(o Options) Series {
	return o.figure("fig2", "LANL-Trace overhead, N procs writing one shared file, strided", workload.N1Strided)
}

// Figure3 regenerates Figure 3: N processes writing one shared file,
// non-strided.
func Figure3(o Options) Series {
	return o.figure("fig3", "LANL-Trace overhead, N procs writing one shared file, non-strided", workload.N1NonStrided)
}

// Figure4 regenerates Figure 4: N processes writing N files.
func Figure4(o Options) Series {
	return o.figure("fig4", "LANL-Trace overhead, N procs writing N files", workload.NToN)
}
