package pfs

import (
	"testing"

	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// TestPFSCallsAllocateNothing guards the pooled RPC chain: once the call
// and fan-out free lists and the mailbox rings have warmed up, a data
// transfer (one server or a fan-out over four) and a metadata round trip
// allocate no object at all, on the client, the servers or the wire.
func TestPFSCallsAllocateNothing(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		op   func(p *sim.Proc, cl *Client, f vfs.File)
	}{
		{"WriteAt 64KiB DefaultParallel", DefaultParallel(), func(p *sim.Proc, _ *Client, f vfs.File) {
			f.WriteAt(p, 0, 64<<10)
		}},
		{"WriteAt 256KiB 4 servers", smallConfig(), func(p *sim.Proc, _ *Client, f vfs.File) {
			f.WriteAt(p, 0, 256<<10)
		}},
		{"ReadAt 256KiB 4 servers", smallConfig(), func(p *sim.Proc, _ *Client, f vfs.File) {
			f.ReadAt(p, 0, 256<<10)
		}},
		{"Sync", smallConfig(), func(p *sim.Proc, _ *Client, f vfs.File) {
			f.Sync(p)
		}},
		{"Stat", smallConfig(), func(p *sim.Proc, cl *Client, _ vfs.File) {
			cl.Stat(p, "/pfs/f")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(1)
			net_ := netsim.New(env, netsim.GigabitEthernet())
			net_.AddNode("client0")
			cl := NewClient(New(net_, tc.cfg), "client0")
			allocs := -1.0
			env.Go("app", func(p *sim.Proc) {
				f, err := cl.Open(p, "/pfs/f", vfs.OCreate|vfs.ORdwr, 0o644, vfs.Cred{})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				if _, err := f.WriteAt(p, 0, 256<<10); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				op := func() { tc.op(p, cl, f) }
				for i := 0; i < 16; i++ {
					op()
				}
				allocs = testing.AllocsPerRun(100, op)
			})
			env.Run()
			if allocs != 0 {
				t.Fatalf("a warmed-up call allocates %v objects, want 0", allocs)
			}
		})
	}
}

// freeCounts walks the System's free lists.
func freeCounts(sys *System) (calls, fans int) {
	for c := sys.freeCalls; c != nil; c = c.next {
		calls++
	}
	for f := sys.freeFans; f != nil; f = f.next {
		fans++
	}
	return calls, fans
}

// TestCallsReturnToPool: once a run is over, every call and fan-out ever
// allocated is back on its free list, whichever way its requests ended.
func TestCallsReturnToPool(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, p *sim.Proc, sys *System, cl *Client, path string)
	}{
		{"ENOENT", func(t *testing.T, p *sim.Proc, _ *System, cl *Client, path string) {
			if _, err := cl.Open(p, path, vfs.ORdonly, 0, vfs.Cred{}); err == nil {
				t.Error("open of a missing file succeeded")
			}
			if _, err := cl.Stat(p, path); err == nil {
				t.Error("stat of a missing file succeeded")
			}
		}},
		{"RAID failure", func(t *testing.T, p *sim.Proc, sys *System, cl *Client, path string) {
			// Set up as in TestServerRAIDFailurePropagates, once both
			// processes' first writes are in, so reads reach server 0's
			// data too.
			f, _ := cl.Open(p, path, vfs.OCreate|vfs.ORdwr, 0o644, vfs.Cred{})
			f.WriteAt(p, 0, 16*sys.Config().StripeUnit)
			p.Sleep(sim.Second)
			sys.Array(0).Disk(0).Fail()
			sys.Array(0).Disk(1).Fail()
			if _, err := f.WriteAt(p, 0, 16*sys.Config().StripeUnit); err == nil {
				t.Error("write through a failed RAID group did not error")
			}
			if _, err := f.ReadAt(p, 0, 16*sys.Config().StripeUnit); err == nil {
				t.Error("read through a failed RAID group did not error")
			}
			f.Close(p)
		}},
		{"O_TRUNC", func(t *testing.T, p *sim.Proc, _ *System, cl *Client, path string) {
			f, _ := cl.Open(p, path, vfs.OCreate|vfs.OWronly, 0o644, vfs.Cred{})
			f.WriteAt(p, 0, 512<<10)
			f.Close(p)
			f2, err := cl.Open(p, path, vfs.OWronly|vfs.OTrunc, 0, vfs.Cred{})
			if err != nil {
				t.Errorf("truncating open: %v", err)
				return
			}
			if size := f2.Attr().Size; size != 0 {
				t.Errorf("size after O_TRUNC = %d", size)
			}
			f2.Close(p)
			cl.Unlink(p, path, vfs.Cred{})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, _, sys, cl := testDeployment(1)
			// Two processes, so requests overlap and the pool grows past one.
			for _, path := range []string{"/pfs/a", "/pfs/b"} {
				env.Go("app", func(p *sim.Proc) { tc.run(t, p, sys, cl, path) })
			}
			env.Run()
			calls, fans := freeCounts(sys)
			if sys.madeCalls == 0 {
				t.Fatal("no call was made")
			}
			if calls != sys.madeCalls || fans != sys.madeFans {
				t.Fatalf("free lists hold %d/%d calls and %d/%d fan-outs after the run",
					calls, sys.madeCalls, fans, sys.madeFans)
			}
		})
	}
}
