package partrace

import (
	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/framework"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

// AsFramework adapts a //TRACE configuration to the common framework
// registry interface. //TRACE is the one multi-run framework: producing a
// replayable trace costs one baseline traced run plus one throttled run per
// sampled rank, all folded into Report.TracingElapsed, plus a replay pass
// whose elapsed time the session reports (Report.ReplayElapsed) for the
// sweep engine to score against its untraced baseline.
func AsFramework(cfg Config) framework.Framework { return &fwAdapter{cfg: cfg.fix()} }

func init() { framework.Register(AsFramework(DefaultConfig())) }

type fwAdapter struct{ cfg Config }

func (a *fwAdapter) Name() string                         { return "//TRACE" }
func (a *fwAdapter) Classification() *core.Classification { return core.PaperParallelTrace() }

// VariantDigest distinguishes //TRACE configurations that share the
// registered Name — the sampling levels of the paper's Section 4.3 — so a
// cached run at one level is never served to another.
func (a *fwAdapter) VariantDigest() uint64 {
	f := func(name string) uint64 { return fnvhash.String(fnvhash.Offset64, name) }
	d := a.cfg.Model.Digest("Model")
	d ^= fnvhash.Int64(f("ThrottleDelay"), int64(a.cfg.ThrottleDelay))
	d ^= fnvhash.Int64(f("SampledRanks"), int64(a.cfg.SampledRanks))
	return d
}

func (a *fwAdapter) Attach(c *cluster.Cluster) framework.Session {
	return &fwSession{fw: New(a.cfg), c: c}
}

type fwSession struct {
	fw *Framework
	c  *cluster.Cluster
}

// Run produces a replayable trace for the workload through the same
// generate pipeline Generate uses: baseline traced run on the attached
// cluster, throttled dependency-discovery runs on identical fresh clusters
// (the deterministic simulation makes repeated runs comparable, as
// repeated batch runs were on the paper's testbed), then a replay pass on
// one more fresh cluster. The session runs nothing untraced: it reports
// the replay's elapsed time, and the sweep engine scores fidelity against
// the untraced run it measures for every cell.
func (s *fwSession) Run(spec workload.Spec) (framework.Report, error) {
	fresh := func() *cluster.Cluster { return cluster.New(s.c.Cfg) }
	plain := func(p *sim.Proc, r *mpi.Rank) { spec.Program(p, r, nil) }
	perRank := make([]workload.RankStats, s.c.Ranks())
	withStats := func(p *sim.Proc, r *mpi.Rank) {
		spec.Program(p, r, &perRank[r.RankID()])
	}

	gen, recs, baseElapsed, err := s.fw.generate(s.c, fresh, withStats, plain)
	if err != nil {
		return framework.Report{}, err
	}

	rep := framework.Report{
		Result:         spec.ResultFromStats(baseElapsed, perRank),
		TracingElapsed: gen.TracingElapsed,
		Runs:           gen.Runs,
		TraceEvents:    int64(len(recs)),
		Deps:           gen.DepCount,
	}
	for i := range recs {
		rep.TraceBytes += recs[i].EstimatedTextSize()
	}

	rr, err := replay.Execute(fresh(), gen.Trace)
	if err != nil {
		return framework.Report{}, err
	}
	rep.ReplayMeasured = true
	rep.ReplayElapsed = rr.Elapsed
	return rep, nil
}
