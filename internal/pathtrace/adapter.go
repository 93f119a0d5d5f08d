package pathtrace

import (
	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// AsFramework adapts path-based tracing to the common framework registry
// interface. Path tracing is intrusive — the real deployment instruments
// application source — so the session stands in for that instrumentation
// with a per-rank library shim: every MPI call becomes one event on the
// job's causal path, and each rank's path joins from a shared root event,
// the metadata propagation an X-Trace header would carry in MPI_Init's
// startup messages.
func AsFramework() framework.Framework { return fwAdapter{} }

func init() { framework.Register(AsFramework()) }

// perEventCost is the in-process metadata append per instrumented call:
// negligible next to any interposition mechanism, which is the framework's
// selling point on the overhead axis.
const perEventCost = 400 * sim.Nanosecond

type fwAdapter struct{}

func (fwAdapter) Name() string                         { return "PathTrace (X-Trace style)" }
func (fwAdapter) Classification() *core.Classification { return Classification() }

func (fwAdapter) Attach(c *cluster.Cluster) framework.Session {
	s := &fwSession{c: c, tracer: NewTracer()}
	for i := 0; i < c.World.Size(); i++ {
		r := c.World.Rank(i)
		h := &pathHook{s: s, rank: i, node: r.Node()}
		r.AttachLibHook(h)
		s.hooks = append(s.hooks, h)
	}
	return s
}

type fwSession struct {
	c      *cluster.Cluster
	tracer *Tracer
	hooks  []*pathHook
	root   *Baggage
	joins  int
}

// pathHook is the instrumentation shim for one rank.
type pathHook struct {
	s    *fwSession
	rank int
	node string
	ctx  *Ctx
	recs []trace.Record
}

// Enter implements mpi.LibHook.
func (h *pathHook) Enter(p *sim.Proc, name string) {}

// Exit implements mpi.LibHook: record the call as a path event, joining the
// job's causal path on the rank's first call.
func (h *pathHook) Exit(p *sim.Proc, rec *trace.Record) {
	p.Sleep(perEventCost)
	if h.ctx == nil {
		if h.s.root == nil {
			ctx := h.s.tracer.StartTask(p, h.node, h.rank, "job-start")
			b := ctx.Baggage(p, "fan-out")
			h.s.root = &b
			h.ctx = ctx
		} else {
			h.ctx = h.s.tracer.Join(p, *h.s.root, h.node, h.rank, "rank-start")
			h.s.joins++
		}
	}
	h.ctx.Record(p, rec.Name)
	h.recs = append(h.recs, rec.Clone())
}

// Run executes the workload with the path instrumentation active.
func (s *fwSession) Run(spec workload.Spec) (framework.Report, error) {
	res := framework.RunWorkload(s.c, spec)
	rep := framework.Report{
		Result:         res,
		TracingElapsed: res.Elapsed,
		Runs:           1,
		Deps:           s.joins,
	}
	for _, e := range s.tracer.Events() {
		rep.TraceEvents++
		rep.TraceBytes += int64(24 + len(e.Label) + len(e.Node)) // task+event ids, parents, label
	}
	return rep, nil
}

// Sources streams each rank's instrumented call stream.
func (s *fwSession) Sources() []trace.Source {
	out := make([]trace.Source, 0, len(s.hooks))
	for _, h := range s.hooks {
		out = append(out, trace.SliceSource(h.recs))
	}
	return out
}
