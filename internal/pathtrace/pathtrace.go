// Package pathtrace implements path-based event tracing in the style of
// X-Trace (Fonseca et al., NSDI'07 — reference [8] of the paper), the class
// of "diverse general data collection mechanisms" the paper's future-work
// section wants its taxonomy extended to cover:
//
//	"we believe our methodology can be expanded to define a more global
//	 taxonomy for describing diverse general data collection mechanisms,
//	 i.e. non-I/O Tracing Frameworks, such as path based event tracing in
//	 distributed applications."
//
// A task's causal path is a DAG of events; propagation metadata (task id +
// last event id) travels with messages between ranks and is rejoined on
// receipt. Unlike the three surveyed frameworks, path tracing is
// *intrusive*: the application calls the tracing API itself — which is
// exactly the contrast the taxonomy's Intrusive-vs-Passive axis exists to
// express (see Classification).
package pathtrace

import (
	"fmt"
	"sort"
	"strings"

	"iotaxo/internal/core"
	"iotaxo/internal/sim"
)

// TaskID identifies one causal path (e.g. one request, one checkpoint).
type TaskID uint64

// EventID identifies one event within a tracer.
type EventID uint64

// Event is one node of a task's causal DAG.
type Event struct {
	Task    TaskID
	ID      EventID
	Parents []EventID
	Node    string
	Rank    int
	Label   string
	Time    sim.Time
}

// Tracer collects events for all tasks in a job. It is not safe for real
// concurrent use; the deterministic simulator serializes access.
type Tracer struct {
	events   []Event
	nextTask TaskID
	nextID   EventID
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Events returns all collected events in creation order.
func (tr *Tracer) Events() []Event { return append([]Event(nil), tr.events...) }

// TaskEvents returns one task's events in creation order.
func (tr *Tracer) TaskEvents(task TaskID) []Event {
	var out []Event
	for _, e := range tr.events {
		if e.Task == task {
			out = append(out, e)
		}
	}
	return out
}

// record appends an event and returns its id.
func (tr *Tracer) record(task TaskID, parents []EventID, node string, rank int, label string, at sim.Time) EventID {
	tr.nextID++
	tr.events = append(tr.events, Event{
		Task:    task,
		ID:      tr.nextID,
		Parents: append([]EventID(nil), parents...),
		Node:    node,
		Rank:    rank,
		Label:   label,
		Time:    at,
	})
	return tr.nextID
}

// Ctx is the propagation context a participant holds while working on a
// task: the task id plus the causally latest event observed here.
type Ctx struct {
	tracer *Tracer
	task   TaskID
	last   EventID
	node   string
	rank   int
}

// StartTask opens a new causal path, recording its root event.
func (tr *Tracer) StartTask(p *sim.Proc, node string, rank int, label string) *Ctx {
	tr.nextTask++
	ctx := &Ctx{tracer: tr, task: tr.nextTask, node: node, rank: rank}
	ctx.last = tr.record(ctx.task, nil, node, rank, label, p.Now())
	return ctx
}

// Record appends an event whose parent is the context's previous event,
// advancing the context.
func (c *Ctx) Record(p *sim.Proc, label string) EventID {
	c.last = c.tracer.record(c.task, []EventID{c.last}, c.node, c.rank, label, p.Now())
	return c.last
}

// Baggage is the metadata that travels inside messages (an X-Trace
// metadata header): enough to resume the path on the receiving side.
type Baggage struct {
	Task TaskID
	From EventID
}

// Baggage exports the context for piggybacking on a message, recording the
// send event.
func (c *Ctx) Baggage(p *sim.Proc, label string) Baggage {
	id := c.Record(p, label)
	return Baggage{Task: c.task, From: id}
}

// Join resumes a path on the receiving participant: the receive event's
// parent is the sender's event carried in the baggage.
func (tr *Tracer) Join(p *sim.Proc, b Baggage, node string, rank int, label string) *Ctx {
	ctx := &Ctx{tracer: tr, task: b.Task, node: node, rank: rank}
	ctx.last = tr.record(b.Task, []EventID{b.From}, node, rank, label, p.Now())
	return ctx
}

// Merge records an event with multiple parents: a join point (e.g. a rank
// continuing after receiving from several peers).
func (c *Ctx) Merge(p *sim.Proc, label string, others ...Baggage) EventID {
	parents := []EventID{c.last}
	for _, b := range others {
		if b.Task != c.task {
			continue // cross-task edges are not representable in one path
		}
		parents = append(parents, b.From)
	}
	c.last = c.tracer.record(c.task, parents, c.node, c.rank, label, p.Now())
	return c.last
}

// --- graph analysis ---

// Graph is one task's causal DAG.
type Graph struct {
	Task   TaskID
	Events map[EventID]Event
	Kids   map[EventID][]EventID
	Roots  []EventID
}

// Graph builds the DAG for a task.
func (tr *Tracer) Graph(task TaskID) *Graph {
	g := &Graph{
		Task:   task,
		Events: make(map[EventID]Event),
		Kids:   make(map[EventID][]EventID),
	}
	for _, e := range tr.TaskEvents(task) {
		g.Events[e.ID] = e
		if len(e.Parents) == 0 {
			g.Roots = append(g.Roots, e.ID)
		}
		for _, pid := range e.Parents {
			g.Kids[pid] = append(g.Kids[pid], e.ID)
		}
	}
	return g
}

// Validate checks the DAG is well formed: parents exist and precede their
// children in time, and event ids are acyclic by construction (ids are
// monotone and parents always have smaller ids).
func (g *Graph) Validate() error {
	for _, e := range g.Events {
		for _, pid := range e.Parents {
			parent, ok := g.Events[pid]
			if !ok {
				return fmt.Errorf("pathtrace: event %d references unknown parent %d", e.ID, pid)
			}
			if parent.ID >= e.ID {
				return fmt.Errorf("pathtrace: event %d has non-causal parent %d", e.ID, pid)
			}
			if parent.Time > e.Time {
				return fmt.Errorf("pathtrace: event %d earlier than its parent %d", e.ID, pid)
			}
		}
	}
	if len(g.Roots) == 0 && len(g.Events) > 0 {
		return fmt.Errorf("pathtrace: task %d has no root event", g.Task)
	}
	return nil
}

// CriticalPath returns the chain of events that gated the task's
// completion: starting from the last event, it repeatedly steps to the
// latest-finishing parent — at every join, the parent that arrived last is
// the one the join actually waited for. (A naive "longest elapsed path"
// is degenerate here: event timestamps telescope, making every
// root-to-end path equal.)
func (g *Graph) CriticalPath() []Event {
	if len(g.Events) == 0 {
		return nil
	}
	var endID EventID
	var endTime sim.Time = -1
	ids := make([]EventID, 0, len(g.Events))
	for id := range g.Events {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if e := g.Events[id]; e.Time >= endTime {
			endTime, endID = e.Time, id
		}
	}
	var chain []Event
	for id := endID; ; {
		e := g.Events[id]
		chain = append(chain, e)
		if len(e.Parents) == 0 {
			break
		}
		next := e.Parents[0]
		for _, pid := range e.Parents[1:] {
			p, q := g.Events[pid], g.Events[next]
			if p.Time > q.Time || (p.Time == q.Time && p.ID > q.ID) {
				next = pid
			}
		}
		id = next
	}
	// Reverse into causal order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Format renders the DAG as an indented tree (children under parents; join
// nodes appear under their first parent with a marker).
func (g *Graph) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "task %d: %d events\n", g.Task, len(g.Events))
	seen := make(map[EventID]bool)
	var walk func(id EventID, depth int)
	walk = func(id EventID, depth int) {
		e := g.Events[id]
		marker := ""
		if len(e.Parents) > 1 {
			marker = " (join)"
		}
		if seen[id] {
			fmt.Fprintf(&b, "%s^ %d%s\n", strings.Repeat("  ", depth), id, marker)
			return
		}
		seen[id] = true
		fmt.Fprintf(&b, "%s- [%d] %s @%v rank=%d %s%s\n",
			strings.Repeat("  ", depth), id, e.Label, e.Time, e.Rank, e.Node, marker)
		kids := append([]EventID(nil), g.Kids[id]...)
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	roots := append([]EventID(nil), g.Roots...)
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		walk(r, 0)
	}
	return b.String()
}

// Classification positions path-based tracing in the (extended) taxonomy —
// the exercise the paper's future work proposes. The telling contrast with
// the surveyed frameworks: it is intrusive (source instrumentation) but
// reveals causality directly instead of inferring it by throttling.
func Classification() *core.Classification {
	return &core.Classification{
		Name:              "PathTrace (X-Trace style)",
		ParallelFSCompat:  true,
		EaseOfInstall:     3,
		Anonymization:     core.ScaleNone,
		EventTypes:        []core.EventType{core.EventNetwork, core.EventLibCalls},
		TraceGranularity:  3,
		ReplayableTraces:  false,
		ReplayFidelity:    core.FidelityReport{Supported: false},
		RevealsDeps:       true,
		Intrusiveness:     4, // requires application instrumentation
		AnalysisTools:     true,
		DataFormat:        core.FormatHumanReadable,
		AccountsSkewDrift: "No",
		CrossLayerSlicing: true, // path metadata crosses layer boundaries by design
		ElapsedOverhead: core.OverheadReport{
			Measured:    false,
			Description: "negligible per-event cost; instrumentation effort instead",
		},
		Notes: []string{
			"demonstrates the paper's future-work 'global taxonomy' extension",
			"causality captured by metadata propagation, not throttling",
		},
	}
}
