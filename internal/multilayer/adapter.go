package multilayer

import (
	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// AsFramework adapts the multi-layer analyzer to the common framework
// registry interface: attaching instruments every rank at the library,
// syscall, and VFS boundaries simultaneously.
func AsFramework() framework.Framework { return fwAdapter{} }

func init() { framework.Register(AsFramework()) }

type fwAdapter struct{}

func (fwAdapter) Name() string                         { return "Multi-Layer Trace Analysis" }
func (fwAdapter) Classification() *core.Classification { return Classification() }

func (fwAdapter) Attach(c *cluster.Cluster) framework.Session {
	return &fwSession{c: c, ml: Attach(c)}
}

type fwSession struct {
	c  *cluster.Cluster
	ml *Session
}

// Run executes the workload with all three probe layers active.
func (s *fwSession) Run(spec workload.Spec) (framework.Report, error) {
	res := spec.Run(s.c.World)
	rep := framework.Report{
		Result:         res,
		TracingElapsed: res.Elapsed,
		Runs:           1,
	}
	count := func(recs []trace.Record) {
		rep.TraceEvents += int64(len(recs))
		for i := range recs {
			rep.TraceBytes += recs[i].EstimatedTextSize()
		}
	}
	for _, col := range s.ml.lib {
		count(col.Records)
	}
	for _, col := range s.ml.sys {
		count(col.Records)
	}
	for _, fl := range s.ml.fs {
		count(fl.col.Records)
	}
	return rep, nil
}

// Analyzer exposes the attached multi-layer session for cross-layer
// latency attribution (Analyze, Totals). perfbench's trace-query workload
// reaches it through an interface assertion.
func (s *fwSession) Analyzer() *Session { return s.ml }
