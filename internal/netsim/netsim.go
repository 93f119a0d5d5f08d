// Package netsim models a switched cluster interconnect — the paper's
// testbed used gigabit Ethernet over copper — on top of the DES kernel.
//
// Each node owns a full-duplex network interface. A message from A to B
// serializes on A's transmit side (back-to-back sends from one node queue at
// its NIC), crosses the switch after a fixed latency, serializes on B's
// receive side (modelling incast: many clients writing to one server contend
// for the server's ingress), and is then delivered to the mailbox listening
// on the destination port. Per-message software overhead and frame headers
// make small messages proportionally expensive, which is one of the two
// mechanisms behind the paper's bandwidth-versus-blocksize curves.
//
// The network moves messages and nothing more. A request/response protocol
// (the parallel file system's RPCs) sends its request to a listening port
// with SendThen and its response into the requester's own mailbox with
// SendToThen; which response answers which request is the protocol's
// business, carried in its payloads.
package netsim

import (
	"fmt"
	"sort"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Config fixes the interconnect's physical parameters.
type Config struct {
	BandwidthBps  float64      // per-direction link bandwidth, bytes/second
	Latency       sim.Duration // one-way propagation + switch latency
	FrameOverhead int64        // header bytes added to every message
	PerMessageCPU sim.Duration // software send/receive cost per message
}

// GigabitEthernet returns parameters approximating the paper's testbed
// interconnect: 1 Gb/s links, ~60 µs one-way latency through the switch,
// Ethernet+IP+TCP framing, and a small per-message software cost.
func GigabitEthernet() Config {
	return Config{
		BandwidthBps:  125e6, // 1 Gb/s
		Latency:       60 * sim.Microsecond,
		FrameOverhead: 66,
		PerMessageCPU: 8 * sim.Microsecond,
	}
}

// Message is one unit of transfer between nodes.
type Message struct {
	From    string
	To      string
	Port    int
	Size    int64 // payload bytes (framing added by the network)
	Payload any

	// Span is the causal span the message travels under: the sender's
	// current span (stamped automatically by Send, explicitly by the
	// event-chain variants). When a network tracer is attached, delivery
	// records a ClassNetMsg child span and rewrites this field to it, so the
	// receiver's records parent to the network hop.
	Span uint64
}

// Iface is one node's network interface. The tx/rx resources are embedded
// by value (slab-friendly: a 65536-node network allocates interfaces in
// large chunks instead of three objects per node) and the node's listening
// ports live in a small inline table — nodes listen on one or two ports
// (the PFS service port, one MPI rank port), so a linear scan beats a
// per-node map.
type Iface struct {
	name  string
	tx    sim.Resource
	rx    sim.Resource
	ports []portEntry

	// Stats, observable by analysis tooling.
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
	MsgsReceived  int64
}

// portEntry binds one listening port to its mailbox.
type portEntry struct {
	port int
	box  *sim.Mailbox[Message]
}

// box returns the mailbox listening on port, or nil.
func (i *Iface) box(port int) *sim.Mailbox[Message] {
	for _, e := range i.ports {
		if e.port == port {
			return e.box
		}
	}
	return nil
}

// arenaChunk is the slab size for interface and mailbox arenas: large
// enough to amortize allocation at 65536 nodes, small enough not to waste
// memory on unit-test networks.
const arenaChunk = 256

// Network connects named nodes through a single switch.
type Network struct {
	env    *sim.Env
	cfg    Config
	ifaces map[string]*Iface

	// Construction arenas: interfaces and mailboxes are handed out from
	// chunked slabs (pointers into a chunk stay valid because a chunk is
	// never grown, only replaced when full).
	ifaceArena []Iface
	boxArena   []sim.Mailbox[Message]

	// tracer, when set, receives one ClassNetMsg record per message
	// delivery. Untraced networks pay nothing on the delivery path.
	tracer func(trace.Record)

	// free is the network's list of idle deliveries. A steady stream of
	// messages recycles the same few structs, so the message path
	// allocates nothing once the list covers the peak in flight. It is
	// per network, not global: sweep cells run networks in parallel.
	free *delivery
}

// SetTracer installs (or, with nil, removes) the delivery tracer.
func (n *Network) SetTracer(fn func(trace.Record)) { n.tracer = fn }

// New returns an empty network with the given configuration.
func New(env *sim.Env, cfg Config) *Network {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: bandwidth must be positive")
	}
	return &Network{
		env:    env,
		cfg:    cfg,
		ifaces: make(map[string]*Iface),
	}
}

// Env returns the owning simulation environment.
func (n *Network) Env() *sim.Env { return n.env }

// AddNode registers a node name and returns its interface. Adding the same
// name twice is an error caught by panic (configuration bug).
func (n *Network) AddNode(name string) *Iface {
	if _, dup := n.ifaces[name]; dup {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	if len(n.ifaceArena) == cap(n.ifaceArena) {
		n.ifaceArena = make([]Iface, 0, arenaChunk)
	}
	n.ifaceArena = append(n.ifaceArena, Iface{name: name})
	ifc := &n.ifaceArena[len(n.ifaceArena)-1]
	ifc.tx.Init(n.env, 1)
	ifc.rx.Init(n.env, 1)
	n.ifaces[name] = ifc
	return ifc
}

// Iface returns the interface of a registered node.
func (n *Network) Iface(name string) *Iface {
	ifc, ok := n.ifaces[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", name))
	}
	return ifc
}

// Listen returns (creating if needed) the mailbox for (node, port). Layered
// protocols — the parallel file system, MPI — each claim a port.
func (n *Network) Listen(node string, port int) *sim.Mailbox[Message] {
	ifc, ok := n.ifaces[node]
	if !ok {
		panic(fmt.Sprintf("netsim: Listen on unknown node %q", node))
	}
	if mb := ifc.box(port); mb != nil {
		return mb
	}
	if len(n.boxArena) == cap(n.boxArena) {
		n.boxArena = make([]sim.Mailbox[Message], 0, arenaChunk)
	}
	n.boxArena = append(n.boxArena, sim.Mailbox[Message]{})
	mb := &n.boxArena[len(n.boxArena)-1]
	mb.Init(n.env)
	ifc.ports = append(ifc.ports, portEntry{port: port, box: mb})
	return mb
}

// mtuPayload is the payload capacity of one frame (standard Ethernet MTU
// minus IP+TCP headers).
const mtuPayload = 1460

// wireBytes is the on-wire size of a message including framing: one frame
// per started MTU payload (ceiling division — an exact multiple of 1460 must
// not be charged an extra empty frame), minimum one frame so zero-byte
// control messages still cost a header.
func (n *Network) wireBytes(payload int64) int64 {
	frames := (payload + mtuPayload - 1) / mtuPayload
	if frames < 1 {
		frames = 1
	}
	return payload + frames*n.cfg.FrameOverhead
}

// Send transmits msg from the calling process, stamping it with the
// process's span when it carries none. The caller awaits SendThen's chain,
// so it blocks for the sender-side software cost and transmit serialization
// (as a kernel send blocks while the NIC queue drains); propagation, receive
// serialization and delivery proceed asynchronously, and no goroutine or
// process is allocated per message.
func (n *Network) Send(p *sim.Proc, msg Message) {
	if msg.Span == 0 {
		msg.Span = p.Span()
	}
	p.Await(func(wake func()) { n.SendThen(msg, wake) })
}

// SendThen transmits msg as a pure event chain to the mailbox listening on
// (msg.To, msg.Port), calling done once the sender-side cost is paid:
// per-message CPU, then transmit serialization on the source tx resource.
func (n *Network) SendThen(msg Message, done func()) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	dstBox := dst.box(msg.Port)
	if dstBox == nil {
		panic(fmt.Sprintf("netsim: send to %s:%d with no listener", msg.To, msg.Port))
	}
	n.newDelivery(dst, dstBox, msg, n.wireBytes(msg.Size)).transmit(src, done)
}

// SendToThen is SendThen into a mailbox the caller owns instead of a
// listening port: the message crosses the same wire from msg.From to
// msg.To (msg.Port is not consulted) and lands in box. Request/response
// protocols answer on it: the requester sends its own reply mailbox along
// with the request, the server sends the response into that mailbox, and
// the pairing of the two lives in the protocol, not here.
func (n *Network) SendToThen(msg Message, box *sim.Mailbox[Message], done func()) {
	src := n.Iface(msg.From)
	dst := n.Iface(msg.To)
	n.newDelivery(dst, box, msg, n.wireBytes(msg.Size)).transmit(src, done)
}

// delivery is one in-flight message: the pooled, fixed-shape state of its
// event chain. Its stage methods are bound to func values once, when the
// struct is first allocated, and the struct returns to its network's free
// list as the message lands, so a message costs no heap object of its own.
// It lands in box: the listening port's mailbox for SendThen, the caller's
// own for SendToThen. The chain has two halves:
//
//	transmit:  After(PerMessageCPU) → tx.AcquireThen → After(txTime) → tx.Release
//	deliver:   After(0) → After(Latency) → rx.AcquireThen → After(rxTime) → rx.Release
//
// The sender resumes between them; the deliver half runs on without it, so
// live goroutines stay O(processes) instead of O(in-flight messages).
type delivery struct {
	n    *Network
	src  *Iface
	dst  *Iface
	box  *sim.Mailbox[Message]
	msg  Message
	wire int64
	done func() // called once the sender-side cost is paid

	start sim.Time // when the deliver half began, for the tracer

	txReadyFn, txHeldFn, txSentFn          func()
	departFn, arriveFn, rxHeldFn, rxDoneFn func()

	next *delivery // free-list link
}

// newDelivery takes a delivery from the free list (allocating and binding
// one when the list is empty) and loads it with one message.
func (n *Network) newDelivery(dst *Iface, box *sim.Mailbox[Message], msg Message, wire int64) *delivery {
	d := n.free
	if d != nil {
		n.free = d.next
		d.next = nil
	} else {
		d = &delivery{n: n}
		d.txReadyFn = d.txReady
		d.txHeldFn = d.txHeld
		d.txSentFn = d.txSent
		d.departFn = d.depart
		d.arriveFn = d.arrive
		d.rxHeldFn = d.rxHeld
		d.rxDoneFn = d.rxDone
	}
	d.dst, d.box, d.msg, d.wire = dst, box, msg, wire
	return d
}

// transmit starts the transmit half from src: per-message CPU as one
// scheduled event, then serialization on src's tx resource.
func (d *delivery) transmit(src *Iface, done func()) {
	d.src, d.done = src, done
	d.n.env.After(d.n.cfg.PerMessageCPU, d.txReadyFn)
}

func (d *delivery) txReady() { d.src.tx.AcquireThen(d.txHeldFn) }

func (d *delivery) txHeld() {
	d.n.env.After(sim.DurationOf(d.wire, d.n.cfg.BandwidthBps), d.txSentFn)
}

// txSent releases the tx unit, books the sender's stats, starts the
// deliver half (switch latency, receive serialization, receiver stats and
// mailbox delivery) and resumes the sender.
func (d *delivery) txSent() {
	d.src.tx.Release()
	d.src.BytesSent += d.wire
	d.src.MsgsSent++
	done := d.done
	d.src, d.done = nil, nil
	d.start = d.n.env.Now()
	d.n.env.After(0, d.departFn)
	done()
}

func (d *delivery) depart() { d.n.env.After(d.n.cfg.Latency, d.arriveFn) }

func (d *delivery) arrive() { d.dst.rx.AcquireThen(d.rxHeldFn) }

func (d *delivery) rxHeld() {
	d.n.env.After(sim.DurationOf(d.wire, d.n.cfg.BandwidthBps), d.rxDoneFn)
}

// rxDone releases the rx unit, books the receiver's stats, traces the hop
// and puts the message in the destination mailbox. The delivery goes back
// on the free list before the put, its fields copied out first.
func (d *delivery) rxDone() {
	n, dst := d.n, d.dst
	dst.rx.Release()
	dst.BytesReceived += d.wire
	dst.MsgsReceived++
	msg := d.msg
	if n.tracer != nil {
		// Record the hop as a child span and hand that span to the
		// receiver, so its records parent to the network layer; with no
		// tracer the sender's span passes through untouched and the chain
		// simply skips this layer.
		span := n.env.NextSpanID()
		n.tracer(trace.Record{
			Time:   d.start,
			Dur:    n.env.Now() - d.start,
			Node:   dst.name,
			Rank:   -1,
			Class:  trace.ClassNetMsg,
			Name:   "NET_deliver",
			Ret:    "0",
			Bytes:  msg.Size,
			Span:   span,
			Parent: msg.Span,
		})
		msg.Span = span
	}
	box := d.box
	d.dst, d.box, d.msg = nil, nil, Message{}
	d.next, n.free = n.free, d
	box.Put(msg)
}

// Nodes returns the registered node names, sorted.
func (n *Network) Nodes() []string {
	out := make([]string, 0, len(n.ifaces))
	for name := range n.ifaces {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
