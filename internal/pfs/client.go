package pfs

import (
	"fmt"

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

// metaCall round-trips one metadata request to the metadata server,
// parking p on the same event chain the data path runs, and returns the
// server's view of the file. The call goes back on the free list.
func (c *Client) metaCall(p *sim.Proc, rq *call) (metaFile, error) {
	p.Await(rq.awaitFn)
	attr, err := rq.attr, respErr(rq.err)
	c.sys.freeCall(rq)
	return attr, err
}

// newMetaCall takes a call for a metadata request on path under p's span.
func (c *Client) newMetaCall(p *sim.Proc, op callOp, path string) *call {
	return c.sys.newCall(op, c.node, c.sys.mdsNode, path, p.Span())
}

// Open implements vfs.Filesystem.
func (c *Client) Open(p *sim.Proc, path string, flags vfs.OpenFlag, mode int, cred vfs.Cred) (vfs.File, error) {
	rq := c.newMetaCall(p, opOpen, path)
	rq.flags, rq.mode, rq.uid, rq.gid = int(flags), mode, cred.UID, cred.GID
	attr, err := c.metaCall(p, rq)
	if err != nil {
		return nil, err
	}
	return c.opened(p, path, flags, attr), nil
}

// opened finishes an Open the metadata server granted: it truncates the
// file's objects if flags ask for it and returns the handle. It is kept out
// of Open, whose frame stays on the caller's stack while the metadata
// request is in flight.
//
//go:noinline
func (c *Client) opened(p *sim.Proc, path string, flags vfs.OpenFlag, attr metaFile) vfs.File {
	if flags&vfs.OTrunc != 0 && flags.CanWrite() {
		// Truncation invalidates every server's object state: one request
		// per server, each kicked off by its own event, and the caller
		// parks until every server confirmed.
		sys := c.sys
		fan := sys.newFanout()
		for i := range sys.servers {
			fan.add(sys.newCall(opTrunc, c.node, sys.ServerNode(i), path, p.Span()))
		}
		fan.wait(p)
		attr.size = 0
	}
	return &clientFile{
		client: c,
		path:   path,
		flags:  flags,
		attr: vfs.FileAttr{
			Path: path, Size: attr.size, UID: attr.uid, GID: attr.gid, Mode: attr.mode,
		},
	}
}

// Stat implements vfs.Filesystem.
func (c *Client) Stat(p *sim.Proc, path string) (vfs.FileAttr, error) {
	attr, err := c.metaCall(p, c.newMetaCall(p, opStat, path))
	if err != nil {
		return vfs.FileAttr{}, err
	}
	return vfs.FileAttr{Path: path, Size: attr.size, UID: attr.uid, GID: attr.gid, Mode: attr.mode}, nil
}

// Unlink implements vfs.Filesystem.
func (c *Client) Unlink(p *sim.Proc, path string, cred vfs.Cred) error {
	rq := c.newMetaCall(p, opUnlink, path)
	rq.uid, rq.gid = cred.UID, cred.GID
	_, err := c.metaCall(p, rq)
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
// all of them: one request per server, physically-adjacent units batched,
// each kicked off by its own event in server order. The replies are folded
// in arrival order, so the first error is the first to arrive.
func (f *clientFile) transfer(p *sim.Proc, offset, length int64, write bool) (int64, error) {
	sys := f.client.sys
	fan := sys.newFanout()
	fan.pieces = sys.mapRange(fan.pieces[:0], offset, length)
	coalesce(fan.grouped, fan.pieces)
	op := opRead
	if write {
		op = opWrite
	}
	for srv, ranges := range fan.grouped {
		if len(ranges) == 0 {
			continue
		}
		c := sys.newCall(op, f.client.node, sys.ServerNode(srv), f.path, p.Span())
		c.ranges = ranges
		if write {
			for _, r := range ranges {
				c.reqSize += r.length // write data travels with the request
			}
		}
		fan.add(c)
	}
	return fan.wait(p)
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
		rq := f.client.newMetaCall(p, opSetsize, f.path)
		rq.size = f.maxEnd
		_, err := f.client.metaCall(p, rq)
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
