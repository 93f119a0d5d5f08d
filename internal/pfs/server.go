package pfs

import (
	"fmt"

	"iotaxo/internal/disk"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// objState is one server's view of one file's object.
type objState struct {
	maxEnd  int64  // highest logical byte written through this server
	digest  uint64 // XOR of logical-extent hashes
	writes  int64
	physEnd int64 // highest server-local byte (for reads)
}

// server is one object storage server: a node, a RAID group, and a pool of
// request handlers.
type server struct {
	sys   *System
	idx   int
	node  string
	array *disk.Array
	inbox sim.Mailbox[netsim.Message]
	pool  *sim.Resource

	objects map[string]*objState

	dispatchFn func(netsim.Message)
	releaseFn  func()

	// Stats.
	Requests int64
}

func newServer(sys *System, idx int) *server {
	node := fmt.Sprintf("%s-oss%d", sys.cfg.Name, idx)
	sys.net.AddNode(node)
	s := &server{
		sys:     sys,
		idx:     idx,
		node:    node,
		array:   disk.NewArray(sys.env, sys.cfg.Array),
		pool:    sim.NewResource(sys.env, sys.cfg.ServerProcs),
		objects: make(map[string]*objState),
	}
	sys.net.Listen(node, Port, s.inbox.Init(sys.env).Put)
	s.dispatchFn = s.dispatch
	s.releaseFn = s.pool.Release
	return s
}

// start arms the event-driven dispatch chain. The server runs with zero
// processes: requests are received by a re-arming GetThen on the inbox,
// admitted through the handler pool with AcquireThen, and handled as pure
// event chains — no goroutine is created per request (the retired engine
// forked one short-lived ".worker" process per message, plus a permanent
// ".dispatch" loop).
//
// The event sequencing mirrors the retired process engine exactly: the
// GetThen callback fires where the dispatch process woke, dispatch's After(0)
// kickoff occupies the slot of the worker's spawn-dispatch event, and
// AcquireThen queues on the same FIFO the worker's Acquire parked on — so
// simulated timestamps are byte-identical while goroutine churn drops to
// zero.
func (s *server) start() { s.armDispatch() }

// armDispatch registers the next-request callback. Re-arming from inside the
// callback mirrors the dispatch loop cycling back into Get, including
// consuming a burst of queued messages within one wake.
func (s *server) armDispatch() { s.inbox.GetThen(s.dispatchFn) }

// dispatch takes one request off the inbox and kicks off its admission to
// the handler pool.
func (s *server) dispatch(msg netsim.Message) {
	s.Requests++
	c := msg.Payload.(*call)
	c.srv, c.parent = s, msg.Span
	s.sys.env.After(0, c.admitFn)
	s.armDispatch()
}

func (c *call) admit() { c.srv.pool.AcquireThen(c.handleFn) }

// handle services one request while holding a pool unit; the unit goes back
// once the response has fully left the server's NIC (the same point the
// retired worker's deferred Release ran).
func (c *call) handle() {
	s := c.srv
	// Span allocation is unconditional (pure counter, schedule-neutral);
	// record emission stays tracer-gated.
	c.span = s.sys.env.NextSpanID()
	c.start = s.sys.env.Now()
	if c.op == opTrunc {
		delete(s.objects, c.path)
		if s.sys.tracer != nil {
			s.sys.tracer(trace.Record{
				Time: c.start, Dur: 0, Node: s.node, Rank: -1,
				Class: trace.ClassPFSOp, Name: opNames[opTrunc], Ret: "0",
				Path: c.path, Span: c.span, Parent: c.parent,
			})
		}
		c.respond(reqHeader, s.releaseFn)
		return
	}
	st, ok := s.objects[c.path]
	if !ok {
		st = &objState{}
		s.objects[c.path] = st
	}
	c.obj, c.base, c.i, c.n = st, objectBase(c.path), 0, 0
	c.step()
}

// step runs the request's ranges serially as an event chain, mirroring the
// retired worker's loop: digest state updates after each write completes,
// reads clamp against the object's physical end as it stands when the range
// is reached, and the first error aborts the remaining ranges.
func (c *call) step() {
	for ; c.i < len(c.ranges); c.i++ {
		rg := c.ranges[c.i]
		if c.op == opWrite {
			c.srv.array.WriteThenSpan(c.base+rg.phys, rg.length, c.span, c.wroteFn)
			return
		}
		length := rg.length
		if rg.phys >= c.obj.physEnd {
			continue // hole / EOF on this server
		}
		if rg.phys+length > c.obj.physEnd {
			length = c.obj.physEnd - rg.phys
		}
		c.add = length
		c.srv.array.ReadThenSpan(c.base+rg.phys, length, c.span, c.readFn)
		return
	}
	c.served(nil)
}

func (c *call) wrote(err error) {
	if err != nil {
		c.served(err)
		return
	}
	rg := c.ranges[c.i]
	c.srv.recordWrite(c.obj, c.path, rg)
	c.n += rg.length
	c.i++
	c.step()
}

func (c *call) read(err error) {
	if err != nil {
		c.served(err)
		return
	}
	c.n += c.add
	c.i++
	c.step()
}

// served traces the finished data request and sends its reply; read data
// travels back with it.
func (c *call) served(err error) {
	s := c.srv
	if s.sys.tracer != nil {
		ret := "0"
		if err != nil {
			ret = "-1 " + err.Error()
		}
		var off int64
		if len(c.ranges) > 0 {
			off = s.sys.logicalOffset(s.idx, c.ranges[0].phys)
		}
		s.sys.tracer(trace.Record{
			Time: c.start, Dur: s.sys.env.Now() - c.start,
			Node: s.node, Rank: -1,
			Class: trace.ClassPFSOp, Name: opNames[c.op], Ret: ret,
			Path: c.path, Offset: off, Bytes: c.n,
			Span: c.span, Parent: c.parent,
		})
	}
	if err != nil {
		c.err = err.Error()
	}
	size := int64(reqHeader)
	if c.op == opRead {
		size += c.n
	}
	c.respond(size, s.releaseFn)
}

// objectBase allocates each file its own extent on the array so distinct
// files do not false-share physical positions (and stripe rows).
func objectBase(path string) int64 {
	const extent = int64(1) << 36 // 64 GiB per object extent
	return int64(fnvhash.String(fnvhash.Offset64, path)%1024) * extent
}

// recordWrite updates digest state, decomposing the physical range into
// stripe-unit-aligned pieces whose logical offsets are reconstructed via the
// inverse striping map.
func (s *server) recordWrite(st *objState, path string, rg stripeRange) {
	su := s.sys.cfg.StripeUnit
	phys, length := rg.phys, rg.length
	for length > 0 {
		within := phys % su
		chunk := su - within
		if chunk > length {
			chunk = length
		}
		logOff := s.sys.logicalOffset(s.idx, phys)
		st.digest ^= fnvhash.Extent(path, logOff, chunk)
		st.writes++
		if end := logOff + chunk; end > st.maxEnd {
			st.maxEnd = end
		}
		phys += chunk
		length -= chunk
	}
	if rg.phys+rg.length > st.physEnd {
		st.physEnd = rg.phys + rg.length
	}
}
