package pfs

import (
	"fmt"

	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
)

// callOp is what a request asks of a server.
type callOp uint8

const (
	opRead callOp = iota
	opWrite
	opTrunc
	opOpen
	opStat
	opUnlink
	opSetsize
)

// opNames are the ClassPFSOp record names, one per op.
var opNames = [...]string{
	opRead:    "PFS_read",
	opWrite:   "PFS_write",
	opTrunc:   "PFS_trunc",
	opOpen:    "PFS_meta_open",
	opStat:    "PFS_meta_stat",
	opUnlink:  "PFS_meta_unlink",
	opSetsize: "PFS_meta_setsize",
}

// call is one in-flight PFS request, from the client's send to the reply
// it reads back. It travels as the payload of both its request and its
// reply message, so the wire carries a pointer, not a boxed value, and the
// server answers into the call's own reply mailbox through its bound Put.
// Calls are pooled on their System with their stages bound once, so a
// request allocates nothing once the free list covers the requests in
// flight. The pool is per System, not global: sweep cells run deployments
// in parallel.
//
// A data or truncate request's chain is
//
//	client:  After(0) → reply.GetThen, SendThen → server inbox
//	server:  GetThen → After(0) → pool.AcquireThen → array transfers, one
//	         range after another → SendToThen(reply) → pool.Release
//	client:  reply drain → fan-out count
//
// and a metadata request's is the same without the kickoff event, the
// handler pool and the fan-out: the metadata server handles one request at
// a time and the reply wakes the calling process directly.
type call struct {
	sys *System

	// The request.
	op                    callOp
	from, to              string // the client's node and the serving node
	reqSpan               uint64 // the causal span the request travels under
	reqSize               int64  // bytes on the wire
	path                  string
	ranges                []stripeRange // a data request's ranges on its server
	flags, uid, gid, mode int           // open's arguments
	size                  int64         // setsize's new size

	// The reply.
	err   string   // "" on success
	n     int64    // bytes a data request moved
	attr  metaFile // a metadata request's view of the file
	reply sim.Mailbox[netsim.Message]
	put   func(netsim.Message) // reply.Put, the reply's receiver

	// Client-side completion: the fan-out a data or truncate request
	// reports to, or the process wake of a metadata request.
	fan  *fanout
	wake func()

	// Server-side progress.
	srv    *server
	obj    *objState
	base   int64    // the object's extent on the array
	i      int      // next range
	add    int64    // length of the read in flight
	span   uint64   // the server's record span
	parent uint64   // the span the request arrived under
	start  sim.Time // when the server took the request

	sendFn    func()
	awaitFn   func(wake func())
	repliedFn func(netsim.Message)
	admitFn   func()
	handleFn  func()
	wroteFn   func(error)
	readFn    func(error)

	next *call // free-list link
}

// newCall takes a call from the free list (allocating and binding one when
// the list is empty) and loads it with a request's addressing.
func (s *System) newCall(op callOp, from, to, path string, span uint64) *call {
	c := s.freeCalls
	if c != nil {
		s.freeCalls = c.next
		c.next = nil
	} else {
		s.madeCalls++
		c = &call{sys: s}
		c.put = c.reply.Init(s.env).Put
		c.sendFn = c.send
		c.awaitFn = c.await
		c.repliedFn = c.replied
		c.admitFn = c.admit
		c.handleFn = c.handle
		c.wroteFn = c.wrote
		c.readFn = c.read
	}
	c.op, c.from, c.to, c.path, c.reqSpan, c.reqSize = op, from, to, path, span, reqHeader
	return c
}

// freeCall clears a finished call and puts it back on the free list.
func (s *System) freeCall(c *call) {
	c.path, c.ranges = "", nil
	c.flags, c.uid, c.gid, c.mode, c.size = 0, 0, 0, 0, 0
	c.err, c.n, c.attr = "", 0, metaFile{}
	c.fan, c.wake, c.srv, c.obj = nil, nil, nil, nil
	c.next, s.freeCalls = s.freeCalls, c
}

// send registers for the reply, then sends the request. The reply cannot
// land before the request has left, so the early wait moves no event, and
// the send needs no completion callback of its own.
func (c *call) send() {
	c.reply.GetThen(c.repliedFn)
	c.sys.net.SendThen(netsim.Message{From: c.from, To: c.to, Port: Port,
		Size: c.reqSize, Payload: c, Span: c.reqSpan}, nop)
}

func nop() {}

// await is a metadata call's Proc.Await start: it sends at once and parks
// the process until the reply lands.
func (c *call) await(wake func()) {
	c.wake = wake
	c.send()
}

// replied takes the reply: a fan-out member reports to its fan-out, a
// metadata call resumes its process inside the reply's drain event.
func (c *call) replied(netsim.Message) {
	if f := c.fan; f != nil {
		f.collect(c)
		return
	}
	c.wake()
}

// respond sends the reply of a served request back to the client, into the
// call's reply mailbox, under the span the request arrived with. done runs
// once the server has paid per-message CPU and tx serialization.
func (c *call) respond(size int64, done func()) {
	c.sys.net.SendToThen(netsim.Message{From: c.to, To: c.from, Size: size,
		Payload: c, Span: c.parent}, c.put, done)
}

// fanout is one process's wait on several requests at once: a transfer's
// one request per server holding part of the range, or a truncate's one per
// server. It counts the replies still pending and keeps the buffers the
// striping map fills, so a transfer allocates nothing once its System's
// fan-out free list is warm.
type fanout struct {
	sys     *System
	pieces  []stripeRange   // mapRange's output
	grouped [][]stripeRange // coalesce's output, one list per server
	calls   []*call         // the requests, in kickoff order

	pending int
	total   int64
	err     error
	wake    func()
	startFn func(wake func())

	next *fanout // free-list link
}

// newFanout takes a fan-out from the free list, allocating one when the
// list is empty.
func (s *System) newFanout() *fanout {
	f := s.freeFans
	if f != nil {
		s.freeFans = f.next
		f.next = nil
		return f
	}
	s.madeFans++
	f = &fanout{sys: s, grouped: make([][]stripeRange, s.cfg.Servers)}
	f.startFn = f.start
	return f
}

// add makes c one of the fan-out's requests.
func (f *fanout) add(c *call) {
	c.fan = f
	f.calls = append(f.calls, c)
}

// wait kicks off every request, one event each in the order added, and
// parks p until all have replied. It then returns the bytes moved and the
// first error in arrival order, and puts the calls and the fan-out back on
// their free lists.
func (f *fanout) wait(p *sim.Proc) (int64, error) {
	p.Await(f.startFn)
	total, err := f.total, f.err
	s := f.sys
	for i, c := range f.calls {
		s.freeCall(c)
		f.calls[i] = nil
	}
	f.calls = f.calls[:0]
	f.total, f.err, f.wake = 0, nil, nil
	f.next, s.freeFans = s.freeFans, f
	return total, err
}

func (f *fanout) start(wake func()) {
	f.wake = wake
	f.pending = len(f.calls)
	if f.pending == 0 {
		wake()
		return
	}
	for _, c := range f.calls {
		f.sys.env.After(0, c.sendFn)
	}
}

// collect folds one reply in. The last one schedules the process's wake at
// the current instant.
func (f *fanout) collect(c *call) {
	if c.err != "" && f.err == nil {
		f.err = fmt.Errorf("pfs: %s", c.err)
	}
	f.total += c.n
	f.pending--
	if f.pending == 0 {
		f.sys.env.After(0, f.wake)
	}
}
