package pfs

import (
	"errors"
	"testing"
	"testing/quick"

	"iotaxo/internal/disk"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// smallConfig is a fast deployment for tests.
func smallConfig() Config {
	return Config{
		Name:       "panfs",
		Servers:    4,
		StripeUnit: 64 << 10,
		Array: disk.ArrayConfig{
			Disks:      5,
			StripeUnit: 64 << 10,
			Disk:       disk.DefaultDisk(),
		},
		ServerProcs: 4,
		Stackable:   false,
		MetaCost:    100 * sim.Microsecond,
	}
}

func testDeployment(seed int64) (*sim.Env, *netsim.Network, *System, *Client) {
	env := sim.NewEnv(seed)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("client0")
	sys := New(net_, smallConfig())
	cl := NewClient(sys, "client0")
	return env, net_, sys, cl
}

func TestOpenWriteCloseSnapshot(t *testing.T) {
	env, _, sys, cl := testDeployment(1)
	env.Go("app", func(p *sim.Proc) {
		f, err := cl.Open(p, "/pfs/out", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{UID: 1})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if n, err := f.WriteAt(p, 0, 256<<10); n != 256<<10 || err != nil {
			t.Errorf("write: n=%d err=%v", n, err)
		}
		if err := f.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	env.Run()
	size, digest, writes, ok := sys.Snapshot("/pfs/out")
	if !ok {
		t.Fatal("file unknown to snapshot")
	}
	if size != 256<<10 {
		t.Fatalf("size = %d, want %d", size, 256<<10)
	}
	if digest == 0 || writes == 0 {
		t.Fatalf("digest=%x writes=%d", digest, writes)
	}
}

func TestWriteStripesAcrossServers(t *testing.T) {
	env, _, sys, cl := testDeployment(1)
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/big", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
		// 16 stripe units: every server should hold data.
		f.WriteAt(p, 0, 16*sys.Config().StripeUnit)
		f.Close(p)
	})
	env.Run()
	for i := 0; i < sys.Config().Servers; i++ {
		if sys.servers[i].objects["/pfs/big"] == nil {
			t.Fatalf("server %d holds no data", i)
		}
	}
}

func TestReadAfterWrite(t *testing.T) {
	env, _, _, cl := testDeployment(1)
	var n int64
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.ORdwr, 0o644, vfs.Cred{})
		f.WriteAt(p, 0, 128<<10)
		n, _ = f.ReadAt(p, 0, 128<<10)
		f.Close(p)
	})
	env.Run()
	if n != 128<<10 {
		t.Fatalf("read n = %d", n)
	}
}

func TestStatSeesSizeAfterClose(t *testing.T) {
	env, _, _, cl := testDeployment(1)
	var before, after vfs.FileAttr
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{UID: 9, GID: 8})
		f.WriteAt(p, 0, 100<<10)
		before, _ = cl.Stat(p, "/pfs/f")
		f.Close(p)
		after, _ = cl.Stat(p, "/pfs/f")
	})
	env.Run()
	if before.Size != 0 {
		t.Fatalf("size visible before close: %d", before.Size)
	}
	if after.Size != 100<<10 || after.UID != 9 || after.GID != 8 {
		t.Fatalf("attr after close: %+v", after)
	}
}

func TestOpenMissingFails(t *testing.T) {
	env, _, _, cl := testDeployment(1)
	var err error
	env.Go("app", func(p *sim.Proc) {
		_, err = cl.Open(p, "/pfs/missing", vfs.ORdonly, 0, vfs.Cred{})
	})
	env.Run()
	if !errors.Is(err, vfs.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnlink(t *testing.T) {
	env, _, sys, cl := testDeployment(1)
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
		f.WriteAt(p, 0, 1000)
		f.Close(p)
		if err := cl.Unlink(p, "/pfs/f", vfs.Cred{}); err != nil {
			t.Errorf("unlink: %v", err)
		}
	})
	env.Run()
	if _, _, _, ok := sys.Snapshot("/pfs/f"); ok {
		t.Fatal("file still known after unlink")
	}
}

func TestTruncateClearsServers(t *testing.T) {
	env, _, sys, cl := testDeployment(1)
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
		f.WriteAt(p, 0, 512<<10)
		f.Close(p)
		f2, _ := cl.Open(p, "/pfs/f", vfs.OWronly|vfs.OTrunc, 0, vfs.Cred{})
		f2.Close(p)
	})
	env.Run()
	size, digest, _, ok := sys.Snapshot("/pfs/f")
	if !ok {
		t.Fatal("file vanished")
	}
	if size != 0 || digest != 0 {
		t.Fatalf("truncate left size=%d digest=%x", size, digest)
	}
}

func TestConcurrentDisjointWritersN1(t *testing.T) {
	// The paper's N-1 pattern: N clients write disjoint regions of one file.
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	const N = 4
	var clients []*Client
	for i := 0; i < N; i++ {
		net_.AddNode(clientName(i))
	}
	sys := New(net_, smallConfig())
	for i := 0; i < N; i++ {
		clients = append(clients, NewClient(sys, clientName(i)))
	}
	const chunk = 256 << 10
	for i := 0; i < N; i++ {
		i := i
		env.Go("writer", func(p *sim.Proc) {
			f, err := clients[i].Open(p, "/pfs/shared", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			f.WriteAt(p, int64(i)*chunk, chunk)
			f.Close(p)
		})
	}
	env.Run()
	size, _, writes, ok := sys.Snapshot("/pfs/shared")
	if !ok || size != N*chunk {
		t.Fatalf("size = %d, want %d", size, N*chunk)
	}
	if writes != N*chunk/(64<<10) {
		t.Fatalf("writes = %d, want %d", writes, N*chunk/(64<<10))
	}
}

func clientName(i int) string {
	return "client" + string(rune('0'+i))
}

func TestEndStateIndependentOfWriterOrder(t *testing.T) {
	// Same extents written in different interleavings must produce identical
	// snapshots: the invariant tracing-overhead comparisons rely on.
	runPattern := func(delays []sim.Duration) (int64, uint64, int64) {
		env := sim.NewEnv(1)
		net_ := netsim.New(env, netsim.GigabitEthernet())
		for i := 0; i < 3; i++ {
			net_.AddNode(clientName(i))
		}
		sys := New(net_, smallConfig())
		for i := 0; i < 3; i++ {
			i := i
			cl := NewClient(sys, clientName(i))
			env.Go("w", func(p *sim.Proc) {
				p.Sleep(delays[i])
				f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
				f.WriteAt(p, int64(i)*100<<10, 100<<10)
				f.Close(p)
			})
		}
		env.Run()
		s, d, w, _ := sys.Snapshot("/pfs/f")
		return s, d, w
	}
	s1, d1, w1 := runPattern([]sim.Duration{0, 0, 0})
	s2, d2, w2 := runPattern([]sim.Duration{5 * sim.Millisecond, 0, 11 * sim.Millisecond})
	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("end state depends on interleaving: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

func TestLargerBlocksFasterPerByte(t *testing.T) {
	// The core phenomenon behind Figures 2-4: bandwidth rises with block
	// size because per-request costs amortize.
	elapsed := func(block int64) sim.Time {
		env, _, _, cl := testDeployment(1)
		const total = 4 << 20
		var end sim.Time
		env.Go("app", func(p *sim.Proc) {
			f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
			for off := int64(0); off < total; off += block {
				f.WriteAt(p, off, block)
			}
			f.Close(p)
			end = p.Now()
		})
		env.Run()
		return end
	}
	small := elapsed(16 << 10)
	large := elapsed(1 << 20)
	if large >= small {
		t.Fatalf("large blocks not faster: %v vs %v", large, small)
	}
}

func TestNFSPersonalityStacks(t *testing.T) {
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("c")
	nfs := New(net_, DefaultNFS())
	cl := NewClient(nfs, "c")
	if !vfs.CanStack(cl) {
		t.Fatal("NFS client should support stacking")
	}
	env2, _, _, pcl := testDeployment(2)
	_ = env2
	if vfs.CanStack(pcl) {
		t.Fatal("parallel client must not support stacking")
	}
	if cl.FSName() != "nfs" {
		t.Fatalf("name = %s", cl.FSName())
	}
}

func TestStatfsPersonality(t *testing.T) {
	env, _, _, cl := testDeployment(1)
	var info vfs.StatfsInfo
	env.Go("app", func(p *sim.Proc) {
		info, _ = cl.Statfs(p)
	})
	env.Run()
	if info.FSType != "panfs" || !info.SupportsPFS {
		t.Fatalf("statfs: %+v", info)
	}
}

func TestServerRAIDFailurePropagates(t *testing.T) {
	env, _, sys, cl := testDeployment(1)
	// Fail two drives in server 0's group: writes hitting it must error.
	sys.Array(0).Disk(0).Fail()
	sys.Array(0).Disk(1).Fail()
	var err error
	env.Go("app", func(p *sim.Proc) {
		f, _ := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
		_, err = f.WriteAt(p, 0, 16*sys.Config().StripeUnit)
	})
	env.Run()
	if err == nil {
		t.Fatal("write through failed RAID group did not error")
	}
}

// Property: mapRange covers the request exactly and the inverse map returns
// the original logical offsets.
func TestStripingRoundTripProperty(t *testing.T) {
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("c")
	sys := New(net_, smallConfig())
	f := func(offRaw uint32, lenRaw uint16) bool {
		off := int64(offRaw) % (1 << 22)
		length := int64(lenRaw)%(1<<18) + 1
		pieces := sys.mapRange(nil, off, length)
		var total int64
		cursor := off
		for _, pc := range pieces {
			logical := sys.logicalOffset(pc.server, pc.phys)
			if logical != cursor {
				return false
			}
			cursor += pc.length
			total += pc.length
		}
		return total == length
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: coalesce preserves total bytes and per-server assignment.
func TestCoalescePreservesBytesProperty(t *testing.T) {
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("c")
	sys := New(net_, smallConfig())
	f := func(offRaw uint32, lenRaw uint32) bool {
		off := int64(offRaw) % (1 << 22)
		length := int64(lenRaw)%(1<<20) + 1
		pieces := sys.mapRange(nil, off, length)
		var rawTotal int64
		for _, pc := range pieces {
			rawTotal += pc.length
		}
		grouped := make([][]stripeRange, sys.Config().Servers)
		coalesce(grouped, pieces)
		var coTotal int64
		for srv, list := range grouped {
			for _, r := range list {
				if r.server != srv {
					return false
				}
				coTotal += r.length
			}
		}
		return rawTotal == coTotal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceReducesMessages(t *testing.T) {
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("c")
	sys := New(net_, smallConfig())
	// A write spanning 8 full rounds of the stripe: 32 units over 4 servers
	// must coalesce to exactly one range per server.
	pieces := sys.mapRange(nil, 0, 32*sys.Config().StripeUnit)
	grouped := make([][]stripeRange, sys.Config().Servers)
	coalesce(grouped, pieces)
	servers := 0
	for srv, list := range grouped {
		if len(list) == 0 {
			continue
		}
		servers++
		if len(list) != 1 {
			t.Fatalf("server %d got %d ranges, want 1", srv, len(list))
		}
	}
	if servers != 4 {
		t.Fatalf("grouped servers = %d", servers)
	}
}
