// Package pfs simulates the parallel file system of the paper's testbed:
// files striped in 64 KB units across object storage servers, each server
// backed by a RAID-5 group (the paper: "RAID 5 with a stripe width of 64
// kilobytes across 252 hard drives"), with a metadata server handling opens,
// stats and unlinks.
//
// The package also provides an NFS-like single-server configuration used to
// reproduce the Tracefs compatibility story: the NFS personality supports
// vnode stacking (Tracefs mounts on it), the parallel personality does not.
package pfs

import (
	"fmt"

	"iotaxo/internal/disk"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Port is the network port the PFS protocol listens on.
const Port = 7100

// reqHeader approximates the protocol header bytes per request.
const reqHeader = 128

// Config describes a deployment.
type Config struct {
	Name        string // FS type reported by statfs (e.g. "panfs", "nfs")
	Servers     int    // object storage server count
	StripeUnit  int64  // bytes per stripe unit across servers
	Array       disk.ArrayConfig
	ServerProcs int  // concurrent handlers per server
	Stackable   bool // whether the client supports vnode stacking
	MetaCost    sim.Duration
}

// DefaultParallel approximates the paper's testbed: 12 object servers, each
// a 21-drive RAID-5 group (252 drives total), 64 KB stripes, and a client
// that does NOT support vnode stacking (Tracefs cannot mount on it out of
// the box).
func DefaultParallel() Config {
	return Config{
		Name:       "panfs",
		Servers:    12,
		StripeUnit: 64 << 10,
		Array: disk.ArrayConfig{
			Disks:      21,
			StripeUnit: 64 << 10,
			Disk:       disk.DefaultDisk(),
		},
		ServerProcs: 8,
		Stackable:   false,
		MetaCost:    200 * sim.Microsecond,
	}
}

// DefaultNFS is a single-server file system that stacks fine under Tracefs.
func DefaultNFS() Config {
	return Config{
		Name:       "nfs",
		Servers:    1,
		StripeUnit: 64 << 10,
		Array: disk.ArrayConfig{
			Disks:      5,
			StripeUnit: 64 << 10,
			Disk:       disk.DefaultDisk(),
		},
		ServerProcs: 4,
		Stackable:   true,
		MetaCost:    150 * sim.Microsecond,
	}
}

// fix applies defaults to a partially-specified config.
func (c Config) fix() Config {
	if c.Servers <= 0 {
		c.Servers = 1
	}
	if c.StripeUnit <= 0 {
		c.StripeUnit = 64 << 10
	}
	if c.ServerProcs <= 0 {
		c.ServerProcs = 4
	}
	if c.Array.Disks == 0 {
		c.Array = disk.DefaultArray()
	}
	if c.Name == "" {
		c.Name = "pfs"
	}
	return c
}

// System is one running deployment: a metadata server plus object servers,
// all registered as nodes on the cluster network.
type System struct {
	cfg     Config
	net     *netsim.Network
	env     *sim.Env
	mdsNode string
	servers []*server
	meta    *metaServer

	// tracer, when set, receives one ClassPFSOp record per served request
	// (data servers and the metadata server alike).
	tracer func(*trace.Record)
}

// SetTracer installs (or, with nil fn, removes) a request tracer on the
// deployment. The same sink is also installed as the DISK tracer on every
// object server's RAID group, labelled with the owning server's node, so one
// call arms the two deepest layers of the causal chain.
func (s *System) SetTracer(fn func(*trace.Record)) {
	s.tracer = fn
	for _, srv := range s.servers {
		srv.array.SetTracer(srv.node, fn)
	}
}

// New builds and starts a deployment. Node names are derived from cfg.Name
// so several systems can share one network.
func New(net_ *netsim.Network, cfg Config) *System {
	cfg = cfg.fix()
	s := &System{cfg: cfg, net: net_, env: net_.Env(), mdsNode: cfg.Name + "-mds"}
	net_.AddNode(s.mdsNode)
	s.meta = newMetaServer(s)
	s.meta.start()
	for i := 0; i < cfg.Servers; i++ {
		srv := newServer(s, i)
		s.servers = append(s.servers, srv)
		srv.start()
	}
	return s
}

// Config returns the deployment configuration.
func (s *System) Config() Config { return s.cfg }

// ServerNode returns the node name of object server i.
func (s *System) ServerNode(i int) string { return fmt.Sprintf("%s-oss%d", s.cfg.Name, i) }

// MDSNode returns the metadata server's node name.
func (s *System) MDSNode() string { return s.mdsNode }

// Array returns object server i's RAID group (failure injection in tests).
func (s *System) Array(i int) *disk.Array { return s.servers[i].array }

// extentHash mirrors the vfs digest — both go through internal/fnvhash's
// allocation-free FNV-1a — so end-state comparisons are uniform.
func extentHash(path string, off, n int64) uint64 {
	return fnvhash.Int64(fnvhash.Int64(fnvhash.String(fnvhash.Offset64, path), off), n)
}

// Snapshot aggregates (size, digest, writes) for a path across all object
// servers: the end-state triple integration tests compare.
func (s *System) Snapshot(path string) (size int64, digest uint64, writes int64, ok bool) {
	if _, exists := s.meta.files[path]; !exists {
		return 0, 0, 0, false
	}
	for _, srv := range s.servers {
		if st, ok2 := srv.objects[path]; ok2 {
			if st.maxEnd > size {
				size = st.maxEnd
			}
			digest ^= st.digest
			writes += st.writes
		}
	}
	return size, digest, writes, true
}

// --- striping math ---

// stripeRange is a contiguous server-local byte range assigned to one
// server's object.
type stripeRange struct {
	server int
	phys   int64 // server-local byte position within the object
	length int64
}

// mapRange splits a logical byte range into per-server pieces.
// Logical unit u = off/StripeUnit is stored on server u % Servers at
// server-local position (u/Servers)*StripeUnit + off%StripeUnit, so
// sequential logical I/O stays sequential on each server's object. The
// mapping is invertible: servers reconstruct logical offsets from physical
// positions for digest bookkeeping (see logicalOffset).
func (s *System) mapRange(off, length int64) []stripeRange {
	var out []stripeRange
	su := s.cfg.StripeUnit
	n := int64(s.cfg.Servers)
	for length > 0 {
		u := off / su
		within := off % su
		chunk := su - within
		if chunk > length {
			chunk = length
		}
		out = append(out, stripeRange{
			server: int(u % n),
			phys:   (u/n)*su + within,
			length: chunk,
		})
		off += chunk
		length -= chunk
	}
	return out
}

// logicalOffset inverts the striping map for a server-local position.
func (s *System) logicalOffset(serverIdx int, phys int64) int64 {
	su := s.cfg.StripeUnit
	unitOnServer := phys / su
	within := phys % su
	logicalUnit := unitOnServer*int64(s.cfg.Servers) + int64(serverIdx)
	return logicalUnit*su + within
}

// coalesce merges physically adjacent ranges per server to cut message
// counts, the way real PFS clients batch stripe units into one RPC per
// server.
func coalesce(rs []stripeRange) map[int][]stripeRange {
	grouped := make(map[int][]stripeRange)
	for _, r := range rs {
		list := grouped[r.server]
		if n := len(list); n > 0 && list[n-1].phys+list[n-1].length == r.phys {
			list[n-1].length += r.length
			grouped[r.server] = list
			continue
		}
		grouped[r.server] = append(list, r)
	}
	return grouped
}
