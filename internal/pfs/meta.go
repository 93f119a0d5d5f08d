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
	inbox   *sim.Mailbox[netsim.Message]
	journal *disk.Disk
	files   map[string]*metaFile
	jpos    int64

	Requests int64
}

func newMetaServer(sys *System) *metaServer {
	return &metaServer{
		sys:     sys,
		inbox:   sys.net.Listen(sys.mdsNode, Port),
		journal: disk.NewDisk(sys.env, disk.DefaultDisk()),
		files:   make(map[string]*metaFile),
	}
}

// start arms the event-driven serve chain. Like the data servers, the
// metadata server runs with zero processes (the retired engine kept one
// permanent ".serve" loop): requests are received by a re-arming GetThen and
// handled as an event chain. Service stays strictly serial — the next
// request is accepted only after the current response has fully left the
// NIC, exactly where the retired serve loop cycled back into Get.
func (m *metaServer) start() { m.armServe() }

func (m *metaServer) armServe() {
	m.inbox.GetThen(func(msg netsim.Message) {
		m.Requests++
		reqSpan := msg.Span
		raw, respond := m.sys.net.ServeRequestThen(m.sys.mdsNode, msg)
		req, ok := raw.(metaReq)
		if !ok {
			respond(reqHeader, metaResp{Err: "pfs: bad metadata request"}, m.armServe)
			return
		}
		m.handleThen(req, reqSpan, func(resp metaResp) {
			respond(reqHeader, resp, m.armServe)
		})
	})
}

const oCreate = 0x40 // mirrors vfs.OCreate without importing it
const oTrunc = 0x200

// handleThen services one metadata request as an event chain: the fixed
// CPU cost first (one scheduled event, where the retired handler slept),
// then the namespace mutation with journal writes chained through the
// journal disk.
func (m *metaServer) handleThen(req metaReq, parent uint64, done func(metaResp)) {
	// Unconditional span allocation (pure counter), tracer-gated emission:
	// the PFS_meta_* record covers the whole request including the fixed
	// CPU cost and any journal writes.
	span := m.sys.env.NextSpanID()
	start := m.sys.env.Now()
	inner := done
	done = func(resp metaResp) {
		if m.sys.tracer != nil {
			ret := "0"
			if resp.Err != "" {
				ret = "-1 " + resp.Err
			}
			m.sys.tracer(&trace.Record{
				Time: start, Dur: m.sys.env.Now() - start,
				Node: m.sys.mdsNode, Rank: -1,
				Class: trace.ClassPFSOp, Name: "PFS_meta_" + req.Op,
				Ret: ret, Path: req.Path,
				Span: span, Parent: parent,
			})
		}
		inner(resp)
	}
	cost := m.sys.cfg.MetaCost
	if cost < 0 {
		cost = 0 // mirror Sleep's clamp
	}
	m.sys.env.After(cost, func() {
		switch req.Op {
		case "open":
			f, ok := m.files[req.Path]
			finish := func() {
				if req.Flags&oTrunc != 0 {
					f.size = 0
					m.journalWriteThen(func() {
						done(metaResp{Size: f.size, UID: f.uid, GID: f.gid, Mode: f.mode})
					})
					return
				}
				done(metaResp{Size: f.size, UID: f.uid, GID: f.gid, Mode: f.mode})
			}
			if !ok {
				if req.Flags&oCreate == 0 {
					done(metaResp{Err: "ENOENT"})
					return
				}
				f = &metaFile{uid: req.UID, gid: req.GID, mode: req.Mode}
				m.files[req.Path] = f
				m.journalWriteThen(finish)
				return
			}
			finish()
		case "stat":
			f, ok := m.files[req.Path]
			if !ok {
				done(metaResp{Err: "ENOENT"})
				return
			}
			done(metaResp{Size: f.size, UID: f.uid, GID: f.gid, Mode: f.mode})
		case "unlink":
			if _, ok := m.files[req.Path]; !ok {
				done(metaResp{Err: "ENOENT"})
				return
			}
			delete(m.files, req.Path)
			m.journalWriteThen(func() { done(metaResp{}) })
		case "setsize":
			f, ok := m.files[req.Path]
			if !ok {
				done(metaResp{Err: "ENOENT"})
				return
			}
			if req.Size > f.size {
				f.size = req.Size
			}
			done(metaResp{Size: f.size})
		default:
			done(metaResp{Err: "pfs: unknown metadata op " + req.Op})
		}
	})
}

// journalWriteThen appends a journal record for a namespace mutation,
// calling done when the write leaves the journal disk. The journal position
// advances after the write completes, and a write error is ignored (the
// journal disk never fails in these simulations).
func (m *metaServer) journalWriteThen(done func()) {
	written := func() {
		m.jpos += 4096
		done()
	}
	if m.journal.WriteThen(m.jpos, 4096, written) != nil {
		written()
	}
}
