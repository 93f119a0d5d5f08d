package pfs

import (
	"fmt"

	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// Client is one compute node's view of the file system: it implements
// vfs.Filesystem so kernels mount it like any other FS. Each node gets its
// own Client (state such as outstanding size updates is per node).
type Client struct {
	sys  *System
	node string
}

// NewClient returns a client for the given compute node, which must already
// be registered on the network.
func NewClient(sys *System, node string) *Client {
	return &Client{sys: sys, node: node}
}

// FSName implements vfs.Filesystem.
func (c *Client) FSName() string { return c.sys.cfg.Name }

// VNodeStackingSupported implements vfs.Stackable: the parallel personality
// bypasses the generic vnode layer (as 2007 PFS clients did), so Tracefs
// cannot stack on it; the NFS personality supports stacking.
func (c *Client) VNodeStackingSupported() bool { return c.sys.cfg.Stackable }

func respErr(s string) error {
	if s == "" {
		return nil
	}
	if s == "ENOENT" {
		return vfs.ErrNotExist
	}
	return fmt.Errorf("pfs: %s", s)
}

// metaCall round-trips one metadata request, parking p on the same RPC
// event chain the data path runs.
func (c *Client) metaCall(p *sim.Proc, req metaReq) (metaResp, error) {
	var raw any
	p.Await(func(wake func()) {
		c.sys.net.CallThenSpan(c.node, c.sys.mdsNode, Port, reqHeader, req, p.Span(), func(m netsim.Message) {
			raw = m.Payload
			wake()
		})
	})
	resp, ok := raw.(metaResp)
	if !ok {
		return metaResp{}, fmt.Errorf("pfs: bad metadata response %T", raw)
	}
	return resp, respErr(resp.Err)
}

// Open implements vfs.Filesystem.
func (c *Client) Open(p *sim.Proc, path string, flags vfs.OpenFlag, mode int, cred vfs.Cred) (vfs.File, error) {
	resp, err := c.metaCall(p, metaReq{
		Op: "open", Path: path, Flags: int(flags), Mode: mode,
		UID: cred.UID, GID: cred.GID,
	})
	if err != nil {
		return nil, err
	}
	if flags&vfs.OTrunc != 0 && flags.CanWrite() {
		// Truncation invalidates every server's object state. One event
		// chain per server instead of a forked process (the kickoff events
		// below occupy the same schedule slots the "pfs.trunc" spawn
		// dispatches did); the caller parks until every server confirmed.
		wg := sim.NewWaitGroup(c.sys.env)
		span := p.Span() // captured: the After(0) closures run off-process
		for i := 0; i < c.sys.cfg.Servers; i++ {
			node := c.sys.ServerNode(i)
			wg.Add(1)
			c.sys.env.After(0, func() {
				c.sys.net.CallThenSpan(c.node, node, Port, reqHeader,
					truncReq{Path: path}, span, func(netsim.Message) { wg.Done() })
			})
		}
		wg.Wait(p)
		resp.Size = 0
	}
	return &clientFile{
		client: c,
		path:   path,
		flags:  flags,
		attr: vfs.FileAttr{
			Path: path, Size: resp.Size, UID: resp.UID, GID: resp.GID, Mode: resp.Mode,
		},
	}, nil
}

// Stat implements vfs.Filesystem.
func (c *Client) Stat(p *sim.Proc, path string) (vfs.FileAttr, error) {
	resp, err := c.metaCall(p, metaReq{Op: "stat", Path: path})
	if err != nil {
		return vfs.FileAttr{}, err
	}
	return vfs.FileAttr{Path: path, Size: resp.Size, UID: resp.UID, GID: resp.GID, Mode: resp.Mode}, nil
}

// Unlink implements vfs.Filesystem.
func (c *Client) Unlink(p *sim.Proc, path string, cred vfs.Cred) error {
	_, err := c.metaCall(p, metaReq{Op: "unlink", Path: path, UID: cred.UID, GID: cred.GID})
	return err
}

// Statfs implements vfs.Filesystem.
func (c *Client) Statfs(p *sim.Proc) (vfs.StatfsInfo, error) {
	// Statfs is answered from the client's cached superblock: no RPC.
	p.Sleep(2 * sim.Microsecond)
	return vfs.StatfsInfo{
		FSType:      c.sys.cfg.Name,
		BlockSize:   c.sys.cfg.StripeUnit,
		BytesFree:   1 << 45,
		SupportsPFS: c.sys.cfg.Servers > 1,
	}, nil
}

// clientFile is an open handle.
type clientFile struct {
	client *Client
	path   string
	flags  vfs.OpenFlag
	attr   vfs.FileAttr
	maxEnd int64 // highest byte written through this handle
	closed bool
}

// transfer fans one logical range out to the owning servers and waits for
// all of them (one RPC per server, physically-adjacent units batched). Each
// RPC is a pure event chain — the retired engine forked one "pfs.io"
// process per server per call, the single largest source of goroutine churn
// in the simulator. The kickoff events below take the schedule slots those
// spawn dispatches occupied and the responses accumulate in arrival order,
// so the schedule (and firstErr selection) is identical.
func (f *clientFile) transfer(p *sim.Proc, offset, length int64, write bool) (int64, error) {
	sys := f.client.sys
	grouped := coalesce(sys.mapRange(offset, length))
	var total int64
	var firstErr error
	wg := sim.NewWaitGroup(sys.env)
	span := p.Span() // captured: the After(0) closures run off-process
	for srv := 0; srv < sys.cfg.Servers; srv++ {
		ranges := grouped[srv]
		if len(ranges) == 0 {
			continue
		}
		node := sys.ServerNode(srv)
		var bytes int64
		for _, r := range ranges {
			bytes += r.length
		}
		reqSize := int64(reqHeader)
		if write {
			reqSize += bytes // write data travels with the request
		}
		wg.Add(1)
		sys.env.After(0, func() {
			sys.net.CallThenSpan(f.client.node, node, Port, reqSize,
				ioReq{Path: f.path, Ranges: ranges, Write: write}, span, func(m netsim.Message) {
					defer wg.Done()
					resp, ok := m.Payload.(ioResp)
					if !ok {
						if firstErr == nil {
							firstErr = fmt.Errorf("pfs: bad io response %T", m.Payload)
						}
						return
					}
					if resp.Err != "" && firstErr == nil {
						firstErr = fmt.Errorf("pfs: %s", resp.Err)
					}
					total += resp.N
				})
		})
	}
	wg.Wait(p)
	return total, firstErr
}

// WriteAt implements vfs.File.
func (f *clientFile) WriteAt(p *sim.Proc, offset, length int64) (int64, error) {
	if f.closed {
		return 0, vfs.ErrBadFD
	}
	n, err := f.transfer(p, offset, length, true)
	if end := offset + n; end > f.maxEnd {
		f.maxEnd = end
	}
	if end := offset + n; end > f.attr.Size {
		f.attr.Size = end
	}
	return n, err
}

// ReadAt implements vfs.File.
func (f *clientFile) ReadAt(p *sim.Proc, offset, length int64) (int64, error) {
	if f.closed {
		return 0, vfs.ErrBadFD
	}
	if offset >= f.attr.Size {
		return 0, nil
	}
	if offset+length > f.attr.Size {
		length = f.attr.Size - offset
	}
	return f.transfer(p, offset, length, false)
}

// Sync implements vfs.File: pushes the size update to the metadata server.
func (f *clientFile) Sync(p *sim.Proc) error {
	if f.closed {
		return vfs.ErrBadFD
	}
	if f.maxEnd > 0 {
		_, err := f.client.metaCall(p, metaReq{Op: "setsize", Path: f.path, Size: f.maxEnd})
		return err
	}
	return nil
}

// Close implements vfs.File: size update + handle release.
func (f *clientFile) Close(p *sim.Proc) error {
	if f.closed {
		return vfs.ErrBadFD
	}
	err := f.Sync(p)
	f.closed = true
	return err
}

// Attr implements vfs.File.
func (f *clientFile) Attr() vfs.FileAttr { return f.attr }
