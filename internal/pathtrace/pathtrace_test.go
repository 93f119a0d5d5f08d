package pathtrace

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
)

func simpleEnv() *sim.Env { return sim.NewEnv(1) }

func TestLinearPath(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		ctx := tr.StartTask(p, "n1", 0, "start")
		p.Sleep(10)
		ctx.Record(p, "step1")
		p.Sleep(10)
		ctx.Record(p, "step2")
	})
	env.Run()
	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	g := tr.Graph(events[0].Task)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cp := g.CriticalPath()
	if len(cp) != 3 || cp[0].Label != "start" || cp[2].Label != "step2" {
		t.Fatalf("critical path: %+v", cp)
	}
}

// receiver lets one process await a mailbox's GetThen. Its callback is bound
// once, so a receive through it allocates nothing.
type receiver[T any] struct {
	mb   *sim.Mailbox[T]
	v    T
	wake func()
	got  func(T)
}

func newReceiver[T any](mb *sim.Mailbox[T]) *receiver[T] {
	r := &receiver[T]{mb: mb}
	r.got = func(v T) { r.v = v; r.wake() }
	return r
}

func (r *receiver[T]) start(wake func()) { r.wake = wake; r.mb.GetThen(r.got) }

// get blocks p until the mailbox hands the receiver a message.
func (r *receiver[T]) get(p *sim.Proc) T {
	p.Await(r.start)
	v := r.v
	var zero T
	r.v = zero
	return v
}

func TestBaggageJoinAcrossProcs(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	handoff := new(sim.Mailbox[Baggage]).Init(env)
	env.Go("sender", func(p *sim.Proc) {
		ctx := tr.StartTask(p, "n1", 0, "request")
		p.Sleep(5)
		handoff.Put(ctx.Baggage(p, "send"))
	})
	env.Go("receiver", func(p *sim.Proc) {
		b := newReceiver(handoff).get(p)
		ctx := tr.Join(p, b, "n2", 1, "recv")
		p.Sleep(7)
		ctx.Record(p, "reply")
	})
	env.Run()
	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("events = %d", len(events))
	}
	g := tr.Graph(events[0].Task)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The receive event's parent must be the send event.
	var send, recv Event
	for _, e := range events {
		switch e.Label {
		case "send":
			send = e
		case "recv":
			recv = e
		}
	}
	if len(recv.Parents) != 1 || recv.Parents[0] != send.ID {
		t.Fatalf("recv parents = %v, want [%d]", recv.Parents, send.ID)
	}
}

func TestMergeMultipleParents(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		ctx := tr.StartTask(p, "n1", 0, "fan-out")
		b1 := ctx.Baggage(p, "branch1")
		b2 := ctx.Baggage(p, "branch2")
		p.Sleep(3)
		ctx.Merge(p, "join", b1, b2)
	})
	env.Run()
	g := tr.Graph(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var join Event
	for _, e := range tr.Events() {
		if e.Label == "join" {
			join = e
		}
	}
	if len(join.Parents) != 3 { // previous ctx event + two baggages
		t.Fatalf("join parents = %v", join.Parents)
	}
}

func TestMergeIgnoresForeignTasks(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		a := tr.StartTask(p, "n1", 0, "a")
		bCtx := tr.StartTask(p, "n1", 0, "b")
		foreign := bCtx.Baggage(p, "b-send")
		a.Merge(p, "a-join", foreign)
	})
	env.Run()
	for _, e := range tr.TaskEvents(1) {
		if e.Label == "a-join" && len(e.Parents) != 1 {
			t.Fatalf("foreign baggage leaked into parents: %v", e.Parents)
		}
	}
}

func TestCriticalPathPicksSlowBranch(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		ctx := tr.StartTask(p, "n1", 0, "root")
		fast := ctx.Baggage(p, "to-fast")
		slow := ctx.Baggage(p, "to-slow")
		// Two branches joined later; slow one dominates.
		fastCtx := tr.Join(p, fast, "n2", 1, "fast-work")
		p.Sleep(100)
		slowCtx := tr.Join(p, slow, "n3", 2, "slow-work")
		_ = fastCtx
		p.Sleep(5)
		slowCtx.Record(p, "slow-done")
	})
	env.Run()
	cp := tr.Graph(1).CriticalPath()
	labels := make([]string, len(cp))
	for i, e := range cp {
		labels[i] = e.Label
	}
	joined := strings.Join(labels, ">")
	if !strings.Contains(joined, "slow-work") || !strings.Contains(joined, "slow-done") {
		t.Fatalf("critical path missed slow branch: %s", joined)
	}
}

func TestPropagationThroughMPI(t *testing.T) {
	// End-to-end: baggage piggybacks on real MPI messages between ranks.
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	c := cluster.New(cfg)
	tr := NewTracer()
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		switch r.RankID() {
		case 0:
			ctx := tr.StartTask(p, r.Node(), 0, "coordinator")
			b := ctx.Baggage(p, "dispatch")
			r.SendData(p, 1, 7, 1024, b)
			_, reply := r.RecvData(p, 1, 8)
			ctx.Merge(p, "complete", reply.(Baggage))
		case 1:
			_, raw := r.RecvData(p, 0, 7)
			ctx := tr.Join(p, raw.(Baggage), r.Node(), 1, "worker-recv")
			// Worker does I/O as part of the task.
			f, _ := r.FileOpen(p, "/pfs/task.out", mpi.ModeCreate|mpi.ModeWronly)
			f.WriteAt(p, 0, 64<<10)
			f.Close(p)
			ctx.Record(p, "worker-io")
			r.SendData(p, 0, 8, 64, ctx.Baggage(p, "worker-reply"))
		default:
			// Idle ranks.
		}
	})
	g := tr.Graph(1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(g.Events))
	}
	// The critical path must cross both nodes.
	nodes := map[string]bool{}
	for _, e := range g.CriticalPath() {
		nodes[e.Node] = true
	}
	if len(nodes) < 2 {
		t.Fatalf("critical path stayed on one node: %v", nodes)
	}
}

func TestFormatListsEvents(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		ctx := tr.StartTask(p, "n1", 0, "root")
		ctx.Record(p, "leaf")
	})
	env.Run()
	g := tr.Graph(1)
	txt := g.Format()
	if !strings.Contains(txt, "root") || !strings.Contains(txt, "leaf") {
		t.Fatalf("format:\n%s", txt)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := &Graph{
		Task: 1,
		Events: map[EventID]Event{
			2: {ID: 2, Parents: []EventID{9}},
		},
		Kids: map[EventID][]EventID{},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("unknown parent accepted")
	}
}

func TestTasksAreIndependent(t *testing.T) {
	env := simpleEnv()
	tr := NewTracer()
	env.Go("app", func(p *sim.Proc) {
		a := tr.StartTask(p, "n1", 0, "a")
		b := tr.StartTask(p, "n1", 0, "b")
		a.Record(p, "a1")
		b.Record(p, "b1")
	})
	env.Run()
	if len(tr.TaskEvents(1)) != 2 || len(tr.TaskEvents(2)) != 2 {
		t.Fatalf("task separation broken: %d/%d", len(tr.TaskEvents(1)), len(tr.TaskEvents(2)))
	}
}

func TestClassificationValidates(t *testing.T) {
	c := Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Intrusiveness <= 1 {
		t.Fatal("path tracing must classify as intrusive — that is the point of the contrast")
	}
	if !bool(c.RevealsDeps) {
		t.Fatal("path tracing reveals dependencies by construction")
	}
}

func TestEmptyGraphCriticalPath(t *testing.T) {
	tr := NewTracer()
	if cp := tr.Graph(42).CriticalPath(); cp != nil {
		t.Fatalf("expected nil, got %v", cp)
	}
}
