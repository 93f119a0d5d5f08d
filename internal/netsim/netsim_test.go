package netsim

import (
	"sort"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

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

func testNet(env *sim.Env) *Network {
	n := New(env, Config{
		BandwidthBps:  125e6,
		Latency:       60 * sim.Microsecond,
		FrameOverhead: 66,
		PerMessageCPU: 8 * sim.Microsecond,
	})
	n.AddNode("a")
	n.AddNode("b")
	n.AddNode("c")
	return n
}

// uncontended is the one-way time of a payload carried in the given number
// of frames over an idle network: per-message CPU, transmit serialization,
// latency and receive serialization.
func uncontended(cfg Config, payload, frames int64) sim.Duration {
	oneWay := sim.DurationOf(payload+frames*cfg.FrameOverhead, cfg.BandwidthBps)
	return cfg.PerMessageCPU + oneWay + cfg.Latency + oneWay
}

// deliveredAt sends one payload from a to b over an idle testNet and
// returns the virtual time it arrives.
func deliveredAt(payload int64) sim.Time {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 7)
	var at sim.Time
	env.Go("recv", func(p *sim.Proc) {
		newReceiver(inbox).get(p)
		at = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 7, Size: payload})
	})
	env.Run()
	return at
}

func TestSendDelivers(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 7)
	var got Message
	var at sim.Time
	env.Go("recv", func(p *sim.Proc) {
		got = newReceiver(inbox).get(p)
		at = p.Now()
	})
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 7, Size: 1000, Payload: "hi"})
	})
	env.Run()
	if got.Payload != "hi" || got.From != "a" {
		t.Fatalf("got %+v", got)
	}
	if want := uncontended(n.cfg, 1000, 1); at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestListenUnknownNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Listen("nosuch", 1)
}

func TestDuplicateNodePanics(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, GigabitEthernet())
	n.AddNode("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode("x")
}

func TestTxSerialization(t *testing.T) {
	// Two back-to-back sends from one node must serialize on its NIC.
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 1)
	var arrivals []sim.Time
	env.Go("recv", func(p *sim.Proc) {
		r := newReceiver(inbox)
		for i := 0; i < 2; i++ {
			r.get(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 1 << 20})
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 1 << 20})
	})
	env.Run()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	gap := arrivals[1] - arrivals[0]
	serial := sim.DurationOf(1<<20+((1<<20)/1460+1)*66, 125e6)
	// Pipeline: second message is one serialization behind the first, plus
	// the second per-message CPU charge.
	if gap < serial {
		t.Fatalf("messages did not serialize: gap %v < %v", gap, serial)
	}
}

func TestIncastRxContention(t *testing.T) {
	// Two senders to one receiver: aggregate delivery time must reflect the
	// receiver's single ingress link.
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("c", 1)
	var last sim.Time
	env.Go("recv", func(p *sim.Proc) {
		r := newReceiver(inbox)
		for i := 0; i < 2; i++ {
			r.get(p)
			last = p.Now()
		}
	})
	const size = 4 << 20
	env.Go("s1", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "c", Port: 1, Size: size})
	})
	env.Go("s2", func(p *sim.Proc) {
		n.Send(p, Message{From: "b", To: "c", Port: 1, Size: size})
	})
	env.Run()
	rxSerial := sim.DurationOf(size+((size)/1460+1)*66, 125e6)
	if last < 2*rxSerial {
		t.Fatalf("incast finished too fast: %v < %v", last, 2*rxSerial)
	}
}

// TestCallRoundTrip builds a request/response exchange on SendToThen: the
// request carries the caller's reply mailbox, and the server answers into it.
func TestCallRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	type call struct {
		req   any
		reply sim.Mailbox[Message]
	}
	inbox := n.Listen("b", 2)
	inbox.GetThen(func(msg Message) {
		c := msg.Payload.(*call)
		if c.req != "ping" {
			t.Errorf("server got %v", c.req)
		}
		n.SendToThen(Message{From: "b", To: msg.From, Size: 100, Payload: "pong", Span: msg.Span}, &c.reply, func() {})
	})
	var reply any
	env.Go("client", func(p *sim.Proc) {
		c := &call{req: "ping"}
		c.reply.Init(env)
		n.Send(p, Message{From: "a", To: "b", Port: 2, Size: 100, Payload: c})
		reply = newReceiver(&c.reply).get(p).Payload
	})
	env.Run()
	if reply != "pong" {
		t.Fatalf("reply = %v", reply)
	}
}

// TestSendToRawPayload: a message sent into a caller-owned mailbox needs no
// listening port and arrives with its payload exactly as sent.
func TestSendToRawPayload(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	var box sim.Mailbox[Message]
	box.Init(env)
	n.SendToThen(Message{From: "a", To: "b", Size: 8, Payload: 42}, &box, func() {})
	env.Run()
	m, ok := box.TryGet()
	if !ok || m.Payload != 42 {
		t.Fatalf("raw payload mishandled: got=%v payload=%v", ok, m.Payload)
	}
	if n.Iface("b").MsgsReceived != 1 {
		t.Fatalf("receiver stats: %+v", n.Iface("b"))
	}
}

func TestStatsAccumulate(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	n.Listen("b", 1)
	env.Go("send", func(p *sim.Proc) {
		n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 500})
	})
	env.Run()
	if n.Iface("a").MsgsSent != 1 || n.Iface("a").BytesSent <= 500 {
		t.Fatalf("sender stats: %+v", n.Iface("a"))
	}
	if n.Iface("b").MsgsReceived != 1 {
		t.Fatalf("receiver stats: %+v", n.Iface("b"))
	}
}

// TestTransferTimeFrameCount pins the frame accounting at and around exact
// MTU multiples: a 1460-byte payload fits one frame and 2920 bytes fit two —
// the old `payload/1460 + 1` charged each an extra empty frame.
func TestTransferTimeFrameCount(t *testing.T) {
	cfg := testNet(sim.NewEnv(1)).cfg
	for _, c := range []struct {
		payload, frames int64
	}{
		{0, 1}, // zero-byte control message still costs a header
		{1, 1},
		{1459, 1},
		{1460, 1}, // exact MTU multiple: one frame, not two
		{1461, 2},
		{2919, 2},
		{2920, 2}, // two exact frames
		{2921, 3},
	} {
		if got, want := deliveredAt(c.payload), uncontended(cfg, c.payload, c.frames); got != want {
			t.Errorf("%d-byte message delivered at %v, want %v (%d frames)", c.payload, got, want, c.frames)
		}
	}
}

func TestNodesSorted(t *testing.T) {
	env := sim.NewEnv(1)
	n := New(env, GigabitEthernet())
	for _, name := range []string{"zeta", "alpha", "mid", "beta"} {
		n.AddNode(name)
	}
	got := n.Nodes()
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Nodes() not sorted: %v", got)
	}
	if len(got) != 4 || got[0] != "alpha" || got[3] != "zeta" {
		t.Fatalf("Nodes() = %v", got)
	}
}

// TestDeliverySpawnsNoProcs is the per-message allocation regression test:
// message delivery is a pure event chain, so no process (and therefore no
// goroutine or resume channel) may be created per message.
func TestDeliverySpawnsNoProcs(t *testing.T) {
	env := sim.NewEnv(1)
	n := testNet(env)
	inbox := n.Listen("b", 1)
	const msgs = 64
	env.Go("recv", func(p *sim.Proc) {
		r := newReceiver(inbox)
		for i := 0; i < msgs; i++ {
			r.get(p)
		}
	})
	env.Go("send", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			n.Send(p, Message{From: "a", To: "b", Port: 1, Size: 4096})
		}
	})
	env.Run()
	if got := n.Iface("b").MsgsReceived; got != msgs {
		t.Fatalf("delivered %d messages, want %d", got, msgs)
	}
	if spawned := env.Spawns()["net.courier"]; spawned != 0 {
		t.Fatalf("%d courier procs spawned for %d messages, want 0", spawned, msgs)
	}
}

// hold occupies one unit of r for d from process p: it awaits the claim,
// sleeps and releases.
func hold(p *sim.Proc, r *sim.Resource, d sim.Duration) {
	p.Await(r.AcquireThen)
	p.Sleep(d)
	r.Release()
}

// courierSend is a process-per-message delivery engine, kept here as the
// reference implementation: the sender pays its costs in its own process
// and a courier process carries each message. The event-chain Send must
// reproduce its schedule exactly.
func courierSend(n *Network, p *sim.Proc, msg Message) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	dstBox := dst.box(msg.Port)
	wire := n.wireBytes(msg.Size)
	p.Sleep(n.cfg.PerMessageCPU)
	hold(p, &src.tx, sim.DurationOf(wire, n.cfg.BandwidthBps))
	src.BytesSent += wire
	src.MsgsSent++
	n.env.Go("net.courier", func(c *sim.Proc) {
		c.Sleep(n.cfg.Latency)
		hold(c, &dst.rx, sim.DurationOf(wire, n.cfg.BandwidthBps))
		dst.BytesReceived += wire
		dst.MsgsReceived++
		dstBox.Put(msg)
	})
}

// TestEventDeliveryMatchesCourierReference drives a contended incast
// scenario — randomized sizes and jittered start times, three senders into
// one receiver — through both engines and requires every delivery timestamp
// to match: the byte-identical-output guarantee of the refactor.
func TestEventDeliveryMatchesCourierReference(t *testing.T) {
	type send struct {
		from  string
		after sim.Duration
		size  int64
	}
	var plan []send
	{
		env := sim.NewEnv(42)
		for _, from := range []string{"a", "b", "c"} {
			for i := 0; i < 10; i++ {
				plan = append(plan, send{
					from:  from,
					after: sim.Duration(env.Rand().Int63n(int64(200 * sim.Microsecond))),
					size:  env.Rand().Int63n(1 << 18),
				})
			}
		}
	}
	run := func(engine func(*Network, *sim.Proc, Message)) []sim.Time {
		env := sim.NewEnv(1)
		n := New(env, GigabitEthernet())
		n.AddNode("a")
		n.AddNode("b")
		n.AddNode("c")
		n.AddNode("sink")
		inbox := n.Listen("sink", 1)
		var arrivals []sim.Time
		env.Go("recv", func(p *sim.Proc) {
			r := newReceiver(inbox)
			for i := 0; i < len(plan); i++ {
				r.get(p)
				arrivals = append(arrivals, p.Now())
			}
		})
		bySender := map[string][]send{}
		for _, s := range plan {
			bySender[s.from] = append(bySender[s.from], s)
		}
		for _, from := range []string{"a", "b", "c"} {
			mine := bySender[from]
			from := from
			env.Go("send."+from, func(p *sim.Proc) {
				for _, s := range mine {
					p.Sleep(s.after)
					engine(n, p, Message{From: s.from, To: "sink", Port: 1, Size: s.size})
				}
			})
		}
		env.Run()
		return arrivals
	}
	ref := run(courierSend)
	got := run(func(n *Network, p *sim.Proc, m Message) { n.Send(p, m) })
	if len(ref) != len(plan) || len(got) != len(plan) {
		t.Fatalf("deliveries: ref %d, event %d, want %d", len(ref), len(got), len(plan))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("delivery %d: courier engine at %v, event engine at %v", i, ref[i], got[i])
		}
	}
}

// Property: delivery time is monotone nondecreasing in payload size.
func TestTransferTimeMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return deliveredAt(x) <= deliveredAt(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-byte cost falls as messages grow (framing amortization).
func TestLargeMessagesMoreEfficient(t *testing.T) {
	small := deliveredAt(1024).Seconds() / 1024
	large := deliveredAt(1<<22).Seconds() / float64(1<<22)
	if large >= small {
		t.Fatalf("per-byte cost did not fall: small %g, large %g", small, large)
	}
}

func TestGigabitEthernetDefaults(t *testing.T) {
	cfg := GigabitEthernet()
	if cfg.BandwidthBps != 125e6 {
		t.Fatalf("bandwidth = %v", cfg.BandwidthBps)
	}
	if cfg.Latency <= 0 || cfg.PerMessageCPU <= 0 || cfg.FrameOverhead <= 0 {
		t.Fatalf("bad defaults: %+v", cfg)
	}
}

// TestMessagePathAllocatesNothing guards the pooled message path. A client
// process sends a request (Send), an event-chain server echoes it (GetThen,
// then SendThen, re-arming from the send's done) and the client awaits the
// reply. Once the delivery free list and the mailbox rings have warmed up, a
// round trip allocates no object at all, and a delivery tracer that takes
// its records by value adds none.
func TestMessagePathAllocatesNothing(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv(1)
			n := testNet(env)
			records := 0
			if traced {
				n.SetTracer(func(trace.Record) { records++ })
			}
			requests := n.Listen("b", 7)
			replies := n.Listen("a", 8)
			var serve func(Message)
			rearm := func() { requests.GetThen(serve) }
			serve = func(m Message) {
				n.SendThen(Message{From: "b", To: "a", Port: 8, Size: 512, Span: m.Span}, rearm)
			}
			rearm()
			allocs := -1.0
			env.Go("client", func(p *sim.Proc) {
				r := newReceiver(replies)
				roundTrip := func() {
					n.Send(p, Message{From: "a", To: "b", Port: 7, Size: 4096})
					r.get(p)
				}
				for i := 0; i < 16; i++ {
					roundTrip()
				}
				allocs = testing.AllocsPerRun(100, roundTrip)
			})
			env.Run()
			if allocs != 0 {
				t.Fatalf("a warmed-up round trip allocates %v objects, want 0", allocs)
			}
			if traced && records == 0 {
				t.Fatal("the tracer saw no delivery")
			}
		})
	}
}
