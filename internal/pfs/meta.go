package pfs

import (
	"iotaxo/internal/disk"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// metaFile is the metadata server's record of one file.
type metaFile struct {
	size int64
	uid  int
	gid  int
	mode int
}

// metaServer serves opens, stats, unlinks and size updates. It journals
// namespace mutations to a local disk.
type metaServer struct {
	sys     *System
	inbox   sim.Mailbox[netsim.Message]
	journal *disk.Disk
	files   map[string]*metaFile
	jpos    int64

	// cur is the request in service; journals counts the journal records
	// it still has to write before its reply goes out.
	cur      *call
	journals int

	serveFn     func(netsim.Message)
	armServeFn  func()
	runFn       func()
	journaledFn func()

	Requests int64
}

func newMetaServer(sys *System) *metaServer {
	m := &metaServer{
		sys:     sys,
		journal: disk.NewDisk(sys.env, disk.DefaultDisk()),
		files:   make(map[string]*metaFile),
	}
	sys.net.Listen(sys.mdsNode, Port, m.inbox.Init(sys.env).Put)
	m.serveFn = m.serve
	m.armServeFn = m.armServe
	m.runFn = m.run
	m.journaledFn = m.journaled
	return m
}

// start arms the event-driven serve chain. Like the data servers, the
// metadata server runs with zero processes (the retired engine kept one
// permanent ".serve" loop): requests are received by a re-arming GetThen and
// handled as an event chain. Service stays strictly serial — the next
// request is accepted only after the current response has fully left the
// NIC, exactly where the retired serve loop cycled back into Get — so the
// server's progress lives on the server, one request at a time.
func (m *metaServer) start() { m.armServe() }

func (m *metaServer) armServe() { m.inbox.GetThen(m.serveFn) }

// serve takes one request and charges the fixed CPU cost as one scheduled
// event, where the retired handler slept. The request's span is allocated
// unconditionally (a pure counter); its PFS_meta_* record, emitted only
// under a tracer, covers the whole request including the CPU cost and any
// journal writes.
func (m *metaServer) serve(msg netsim.Message) {
	m.Requests++
	c := msg.Payload.(*call)
	c.parent = msg.Span
	c.span = m.sys.env.NextSpanID()
	c.start = m.sys.env.Now()
	m.cur = c
	cost := m.sys.cfg.MetaCost
	if cost < 0 {
		cost = 0 // mirror Sleep's clamp
	}
	m.sys.env.After(cost, m.runFn)
}

const oCreate = 0x40 // mirrors vfs.OCreate without importing it
const oTrunc = 0x200

// run applies the request to the namespace and fills in the reply, then
// writes the journal records a mutation needs, one after another through the
// journal disk, before replying.
func (m *metaServer) run() {
	c := m.cur
	f, ok := m.files[c.path]
	switch c.op {
	case opOpen:
		if !ok {
			if c.flags&oCreate == 0 {
				c.err = "ENOENT"
				break
			}
			f = &metaFile{uid: c.uid, gid: c.gid, mode: c.mode}
			m.files[c.path] = f
			m.journals++
		}
		if c.flags&oTrunc != 0 {
			f.size = 0
			m.journals++
		}
		c.attr = *f
	case opStat:
		if !ok {
			c.err = "ENOENT"
			break
		}
		c.attr = *f
	case opUnlink:
		if !ok {
			c.err = "ENOENT"
			break
		}
		delete(m.files, c.path)
		m.journals++
	case opSetsize:
		if !ok {
			c.err = "ENOENT"
			break
		}
		if c.size > f.size {
			f.size = c.size
		}
		c.attr = metaFile{size: f.size}
	}
	m.step()
}

// step writes the next journal record the request still owes, or replies
// once none is left. A write error is ignored (the journal disk never fails
// in these simulations) and the journal advances as if it had succeeded.
func (m *metaServer) step() {
	if m.journals == 0 {
		m.reply()
		return
	}
	m.journals--
	if m.journal.WriteThen(m.jpos, 4096, m.journaledFn) != nil {
		m.journaled()
	}
}

// journaled advances the journal position once a record has left the
// journal disk.
func (m *metaServer) journaled() {
	m.jpos += 4096
	m.step()
}

// reply traces the finished request and sends its reply; the server takes
// the next request once the reply has left its NIC.
func (m *metaServer) reply() {
	c := m.cur
	m.cur = nil
	if m.sys.tracer != nil {
		ret := "0"
		if c.err != "" {
			ret = "-1 " + c.err
		}
		m.sys.tracer(trace.Record{
			Time: c.start, Dur: m.sys.env.Now() - c.start,
			Node: m.sys.mdsNode, Rank: -1,
			Class: trace.ClassPFSOp, Name: opNames[c.op],
			Ret: ret, Path: c.path,
			Span: c.span, Parent: c.parent,
		})
	}
	c.respond(reqHeader, m.armServeFn)
}
