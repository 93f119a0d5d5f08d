package tracefs

import (
	"fmt"

	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// AsFramework adapts a Tracefs configuration to the common framework
// registry interface. Attaching stacks a Tracefs layer over each compute
// node's parallel-file-system mount with ForceStack set — the porting work
// the paper says Tracefs needs before it can observe a parallel file system
// (its out-of-the-box answer to that axis is "No").
func AsFramework(cfg Config) framework.Framework { return &fwAdapter{cfg: cfg} }

func init() { framework.Register(AsFramework(DefaultConfig())) }

type fwAdapter struct{ cfg Config }

func (a *fwAdapter) Name() string                         { return "Tracefs" }
func (a *fwAdapter) Classification() *core.Classification { return core.PaperTracefs() }

func (a *fwAdapter) Attach(c *cluster.Cluster) framework.Session {
	s := &fwSession{c: c, byNode: make(map[string]*FS)}
	for _, k := range c.Kernels {
		lower, ok := k.MountedAt(cluster.PFSMount)
		if !ok {
			continue
		}
		cfg := a.cfg
		cfg.ForceStack = true
		f, err := Mount(lower, cfg)
		if err != nil {
			// Only reachable through a misconfigured encryption key; the
			// Attach contract has no error channel because attachment to a
			// fresh cluster cannot fail for a well-formed Config.
			panic(fmt.Sprintf("tracefs: attach: %v", err))
		}
		k.Mount(cluster.PFSMount, f)
		s.mounts = append(s.mounts, f)
		s.byNode[k.Node()] = f
	}
	return s
}

type fwSession struct {
	c      *cluster.Cluster
	mounts []*FS // one per compute node
	byNode map[string]*FS
}

// Run executes the workload with every node's PFS traffic passing through
// its Tracefs layer. When the workload finishes, each rank syncs its node's
// trace buffer — the unmount-time flush of the real kernel module, which is
// where buffered output (and the per-byte feature costs of checksumming,
// compression, and encryption) get charged.
func (s *fwSession) Run(spec workload.Spec) (framework.Report, error) {
	perRank := make([]workload.RankStats, s.c.Ranks())
	elapsed := s.c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		spec.Program(p, r, &perRank[r.RankID()])
		if f, ok := s.byNode[r.Node()]; ok {
			f.SyncTrace(p)
		}
	})
	res := spec.ResultFromStats(elapsed, perRank)
	rep := framework.Report{
		Result:         res,
		TracingElapsed: res.Elapsed,
		Runs:           1,
	}
	for _, f := range s.mounts {
		rep.TraceEvents += f.Events
		rep.TraceBytes += f.OutputBytes()
	}
	return rep, nil
}

// Sources streams each node's binary trace back as records.
func (s *fwSession) Sources() []trace.Source {
	out := make([]trace.Source, 0, len(s.mounts))
	for _, f := range s.mounts {
		out = append(out, f.OpenTrace())
	}
	return out
}
