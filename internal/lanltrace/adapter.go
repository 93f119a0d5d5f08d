package lanltrace

import (
	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/framework"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

// AsFramework adapts a LANL-Trace configuration to the common framework
// registry interface. The default (ltrace-mode) instance is registered at
// init; strace-mode instances are built on demand by the harness.
func AsFramework(cfg Config) framework.Framework { return &fwAdapter{cfg: cfg.fix()} }

func init() { framework.Register(AsFramework(DefaultConfig())) }

type fwAdapter struct{ cfg Config }

func (a *fwAdapter) Name() string                         { return "LANL-Trace" }
func (a *fwAdapter) Classification() *core.Classification { return core.PaperLANLTrace() }

// VariantDigest distinguishes LANL-Trace configurations that share the
// registered Name — strace vs. ltrace mode, ablated timing jobs, tuned cost
// models — so cached results from one mode are never served to another.
func (a *fwAdapter) VariantDigest() uint64 {
	f := func(name string) uint64 { return fnvhash.String(fnvhash.Offset64, name) }
	var d uint64
	d ^= fnvhash.Int64(f("Mode"), int64(a.cfg.Mode))
	d ^= a.cfg.SyscallModel.Digest("SyscallModel")
	d ^= a.cfg.LibModel.Digest("LibModel")
	d ^= fnvhash.Bool(f("SkipTimingJob"), a.cfg.SkipTimingJob)
	return d
}

func (a *fwAdapter) Attach(c *cluster.Cluster) framework.Session {
	return &fwSession{fw: New(a.cfg), c: c}
}

type fwSession struct {
	fw  *Framework
	c   *cluster.Cluster
	rep *Report
}

// Run executes the workload under strace/ltrace wrapping, exactly as the
// real tool does: timing job, traced application, timing job.
func (s *fwSession) Run(spec workload.Spec) (framework.Report, error) {
	perRank := make([]workload.RankStats, s.c.Ranks())
	rep := s.fw.Run(s.c.World, spec.CommandLine, func(p *sim.Proc, r *mpi.Rank) {
		spec.Program(p, r, &perRank[r.RankID()])
	})
	s.rep = rep
	return framework.Report{
		Result:         spec.ResultFromStats(rep.Elapsed, perRank),
		TracingElapsed: rep.Elapsed,
		Runs:           1,
		TraceEvents:    rep.TraceEvents,
		TraceBytes:     rep.TraceBytes,
	}, nil
}

// Report exposes the full LANL-Trace report (timing samples, clock
// estimates) for callers that need more than the generic Report.
func (s *fwSession) Report() *Report { return s.rep }
