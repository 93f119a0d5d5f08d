// Package partrace reimplements //TRACE (Mesnier et al., FAST'07) as the
// paper surveys it: a tracing framework for MPI applications that captures
// I/O system calls "using dynamic library interposition", discovers
// inter-node data dependencies "by using I/O throttling", and generates
// accurate replayable traces.
//
// Throttling works exactly as the paper describes: "manually slowing the
// response time of a single node to I/O requests associated with a
// particular parallel application and observing the behavior of other nodes
// looking for causal dependencies". Each probed rank requires one extra run
// of the application, which is why "the generation of a replayable trace is
// a time consuming process" with elapsed-time overhead "ranging between ~0%
// to 205%": the SampledRanks knob (the paper: "user-control over replay
// accuracy by using sampling for their node-throttling technique") trades
// dependency coverage — and hence replay fidelity — against total tracing
// time.
//
// The replayable trace is replay.FromRecords (the MPI-level builder) over
// the baseline traced run's records, plus the discovered dependency edges;
// the throttle picks its calls with the builder's classifier,
// replay.Classify, so both number the same ops. Generate also runs the
// application untraced, for callers that want overhead and fidelity on
// their own; the registry session does not, and reports only the replay's
// elapsed time for the sweep engine to score against its untraced run.
package partrace

import (
	"fmt"
	"sort"

	"iotaxo/internal/cluster"
	"iotaxo/internal/interpose"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Config tunes the framework.
type Config struct {
	// Model is the interposition cost; zero selects interpose.Preload.
	Model interpose.CostModel
	// ThrottleDelay is the artificial per-I/O-response delay used during
	// dependency-discovery runs.
	ThrottleDelay sim.Duration
	// SampledRanks is the number of ranks probed with throttling runs
	// (the sampling knob); 0 discovers no dependencies, -1 probes all.
	SampledRanks int
}

// DefaultConfig probes two ranks, the paper's implied sweet spot (~205%
// worst-case overhead corresponds to roughly two extra runs).
func DefaultConfig() Config {
	return Config{
		Model:         interpose.Preload(),
		ThrottleDelay: 5 * sim.Millisecond,
		SampledRanks:  2,
	}
}

func (c Config) fix() Config {
	if c.Model == (interpose.CostModel{}) {
		c.Model = interpose.Preload()
	}
	if c.ThrottleDelay <= 0 {
		c.ThrottleDelay = 5 * sim.Millisecond
	}
	return c
}

// Framework is a //TRACE instance.
type Framework struct {
	cfg Config
}

// New returns a framework.
func New(cfg Config) *Framework { return &Framework{cfg: cfg.fix()} }

// opEvent is one observed replayable I/O call with both clocks: the local
// start timestamp (what the real tool sees) and the global entry and
// completion times used to order events across nodes when wiring
// dependency edges.
type opEvent struct {
	localStart  sim.Time
	globalStart sim.Time
	globalEnd   sim.Time
}

// ioHook is the LD_PRELOAD interposition layer for one rank.
type ioHook struct {
	model    interpose.CostModel
	throttle sim.Duration    // nonzero during a dependency-discovery run
	log      *[]trace.Record // every rank's records of the baseline run; nil in a discovery run
	events   []opEvent
	enterAt  sim.Time
}

// Enter implements mpi.LibHook.
func (h *ioHook) Enter(p *sim.Proc, name string) {
	if h.model.EnterCost > 0 {
		p.Sleep(h.model.EnterCost)
	}
	h.enterAt = p.Now()
}

// Exit implements mpi.LibHook.
func (h *ioHook) Exit(p *sim.Proc, rec *trace.Record) {
	if h.model.ExitCost > 0 {
		p.Sleep(h.model.ExitCost)
	}
	if n := rec.EstimatedTextSize(); h.model.PerOutputByte > 0 {
		p.Sleep(sim.Duration(n) * h.model.PerOutputByte)
	}
	// Every I/O call, op or boundary, is throttled and traced. events holds
	// the ops only: their indices are the replay trace's op indices, which
	// the dependency edges findDeps wires refer to.
	role := replay.Classify(rec)
	if h.throttle > 0 && role != replay.RoleOther {
		// Slow this node's I/O responses.
		p.Sleep(h.throttle)
	}
	if h.log != nil {
		*h.log = append(*h.log, rec.Clone())
	}
	if role == replay.RoleOp {
		h.events = append(h.events, opEvent{
			localStart:  rec.Time,
			globalStart: h.enterAt,
			globalEnd:   p.Now(),
		})
	}
}

// runObserved executes one traced run of program on c, a cluster nothing
// has run on, throttling throttledRank's I/O responses. A run with
// throttledRank -1 is the baseline: it throttles nothing and also returns
// every rank's records in observation order.
func (f *Framework) runObserved(c *cluster.Cluster, program func(*sim.Proc, *mpi.Rank), throttledRank int) ([]*ioHook, []trace.Record, sim.Duration) {
	n := c.World.Size()
	var log *[]trace.Record
	if throttledRank < 0 {
		log = new([]trace.Record)
	}
	hooks := make([]*ioHook, n)
	for i := 0; i < n; i++ {
		hooks[i] = &ioHook{model: f.cfg.Model, log: log}
		if i == throttledRank {
			hooks[i].throttle = f.cfg.ThrottleDelay
		}
		c.World.Rank(i).AttachLibHook(hooks[i])
	}
	elapsed := c.World.RunToCompletion(program)
	if log == nil {
		return hooks, nil, elapsed
	}
	return hooks, *log, elapsed
}

// GenResult is the output of trace generation.
type GenResult struct {
	Trace *replay.Trace
	// UntracedElapsed is the application's baseline wall time.
	UntracedElapsed sim.Duration
	// TracingElapsed is the total beginning-to-end time spent producing
	// the replayable trace (baseline traced run + all throttled runs).
	TracingElapsed sim.Duration
	// Runs counts application executions performed by the framework.
	Runs int
	// DepCount is the number of dependency edges discovered.
	DepCount int
}

// OverheadFrac is the paper's elapsed-time overhead metric for //TRACE:
// (total trace-generation time - untraced time) / untraced time.
func (g *GenResult) OverheadFrac() float64 {
	if g.UntracedElapsed <= 0 {
		return 0
	}
	return float64(g.TracingElapsed-g.UntracedElapsed) / float64(g.UntracedElapsed)
}

// Generate produces a replayable trace for the program. factory must build
// identical fresh clusters (the deterministic simulation makes repeated
// runs comparable, as repeated batch runs were on the paper's testbed).
// It also runs the program once untraced: UntracedElapsed, OverheadFrac
// and the trace's OriginalElapsed are measured against that run.
func (f *Framework) Generate(factory func() *cluster.Cluster, program func(*sim.Proc, *mpi.Rank)) (*GenResult, error) {
	untraced := factory().World.RunToCompletion(program)
	res, _, _, err := f.generate(factory(), factory, program, program)
	if err != nil {
		return nil, err
	}
	res.UntracedElapsed = untraced
	res.Trace.OriginalElapsed = untraced
	return res, nil
}

// generate is the trace-generation pipeline behind Generate and the
// framework-registry adapter: the baseline traced run of baseProgram on
// base, then one throttled discovery run of program per sampled rank, each
// on a fresh cluster from factory. The replay trace is built by
// replay.FromRecords over the baseline's records, with the discovered
// dependency edges added. generate also returns those records and the
// baseline's elapsed time, the raw observation the adapter reports. It
// runs nothing untraced, so the trace's OriginalElapsed is left zero.
func (f *Framework) generate(base *cluster.Cluster, factory func() *cluster.Cluster, baseProgram, program func(*sim.Proc, *mpi.Rank)) (*GenResult, []trace.Record, sim.Duration, error) {
	baseHooks, recs, baseElapsed := f.runObserved(base, baseProgram, -1)
	n := len(baseHooks)

	res := &GenResult{Runs: 1, TracingElapsed: baseElapsed}

	// Dependency discovery: throttle sampled ranks one run at a time.
	probes := f.cfg.SampledRanks
	if probes < 0 || probes > n {
		probes = n
	}
	var deps []replay.Dep
	for probe := 0; probe < probes; probe++ {
		thrHooks, _, thrElapsed := f.runObserved(factory(), program, probe)
		res.Runs++
		res.TracingElapsed += thrElapsed
		deps = append(deps, f.findDeps(baseHooks, thrHooks, probe)...)
	}

	tr, err := replay.FromRecords(trace.SliceSource(recs), 0)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("partrace: %w", err)
	}
	tr.Deps = dedupeDeps(deps)
	if err := tr.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("partrace: generated trace invalid: %w", err)
	}
	res.Trace = tr
	res.DepCount = len(tr.Deps)
	return res, recs, baseElapsed, nil
}

// findDeps compares a throttled run against the baseline: ops on other
// ranks that shifted by at least half the throttle delay are causally
// downstream of the probed rank. Because throttle-induced delays accumulate
// across synchronization phases, each *increase* in a rank's shift marks a
// new causal edge, whose source is the probe's latest I/O completed before
// the shifted op started.
func (f *Framework) findDeps(base, throttled []*ioHook, probe int) []replay.Dep {
	var out []replay.Dep
	threshold := f.cfg.ThrottleDelay / 2
	probeOps := throttled[probe].events
	for rank := range base {
		if rank == probe {
			continue
		}
		bOps, tOps := base[rank].events, throttled[rank].events
		m := len(bOps)
		if len(tOps) < m {
			m = len(tOps)
		}
		var prevShift sim.Duration
		for k := 0; k < m; k++ {
			// Same-node comparison across runs: local clocks cancel skew.
			shift := tOps[k].localStart - bOps[k].localStart
			if shift < 0 {
				shift = 0
			}
			if shift-prevShift >= threshold {
				if j := latestBefore(probeOps, tOps[k].globalStart); j >= 0 {
					out = append(out, replay.Dep{
						FromRank: probe, FromOp: j,
						ToRank: rank, ToOp: k,
					})
				}
			}
			prevShift = shift
		}
	}
	return out
}

// latestBefore returns the index of the last op completing before t.
func latestBefore(ops []opEvent, t sim.Time) int {
	best := -1
	for j := range ops {
		if ops[j].globalEnd <= t {
			best = j
		} else {
			break
		}
	}
	return best
}

func dedupeDeps(deps []replay.Dep) []replay.Dep {
	seen := make(map[replay.Dep]bool)
	var out []replay.Dep
	for _, d := range deps {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ToRank != b.ToRank {
			return a.ToRank < b.ToRank
		}
		return a.ToOp < b.ToOp
	})
	return out
}
