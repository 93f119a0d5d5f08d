package vfs

import (
	"errors"
	"testing"
	"testing/quick"

	"iotaxo/internal/clocks"
	"iotaxo/internal/disk"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

func newTestKernel(env *sim.Env) (*Kernel, *MemFS) {
	k := NewKernel(env, "node1", clocks.New(0, 0), DefaultKernelConfig())
	fs := NewMemFS(env, "ext3", disk.DefaultDisk())
	k.Mount("/", fs)
	return k, fs
}

func inProc(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	env := sim.NewEnv(1)
	env.Go("test", fn)
	env.Run()
}

func TestOpenWriteReadClose(t *testing.T) {
	env := sim.NewEnv(1)
	k, fs := newTestKernel(env)
	pc := k.Spawn(Cred{UID: 500, GID: 100})
	env.Go("app", func(p *sim.Proc) {
		fd, err := pc.Open(p, "/data/file1", OCreate|ORdwr, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if n, err := pc.PWrite(p, fd, 0, 4096); n != 4096 || err != nil {
			t.Errorf("pwrite: n=%d err=%v", n, err)
		}
		if n, err := pc.PRead(p, fd, 0, 4096); n != 4096 || err != nil {
			t.Errorf("pread: n=%d err=%v", n, err)
		}
		if err := pc.Close(p, fd); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	env.Run()
	size, _, writes, ok := fs.Snapshot("/data/file1")
	if !ok || size != 4096 || writes != 1 {
		t.Fatalf("snapshot: size=%d writes=%d ok=%v", size, writes, ok)
	}
}

func TestSequentialWriteAdvancesPosition(t *testing.T) {
	env := sim.NewEnv(1)
	k, fs := newTestKernel(env)
	pc := k.Spawn(Cred{})
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
		pc.Write(p, fd, 100)
		pc.Write(p, fd, 100)
		pc.Write(p, fd, 100)
		pc.Close(p, fd)
	})
	env.Run()
	size, _, _, _ := fs.Snapshot("/f")
	if size != 300 {
		t.Fatalf("size = %d, want 300", size)
	}
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var err error
	env.Go("app", func(p *sim.Proc) {
		_, err = pc.Open(p, "/nope", ORdonly, 0)
	})
	env.Run()
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteOnReadOnlyFD(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var werr, rerr error
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
		pc.Close(p, fd)
		fd, _ = pc.Open(p, "/f", ORdonly, 0)
		_, werr = pc.PWrite(p, fd, 0, 10)
		fdw, _ := pc.Open(p, "/f", OWronly, 0)
		_, rerr = pc.PRead(p, fdw, 0, 10)
	})
	env.Run()
	if !errors.Is(werr, ErrReadOnly) {
		t.Fatalf("write err = %v", werr)
	}
	if !errors.Is(rerr, ErrWriteOnly) {
		t.Fatalf("read err = %v", rerr)
	}
}

func TestBadFD(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var err error
	env.Go("app", func(p *sim.Proc) {
		_, err = pc.PWrite(p, 42, 0, 10)
	})
	env.Run()
	if !errors.Is(err, ErrBadFD) {
		t.Fatalf("err = %v", err)
	}
}

func TestTruncate(t *testing.T) {
	env := sim.NewEnv(1)
	k, fs := newTestKernel(env)
	pc := k.Spawn(Cred{})
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
		pc.PWrite(p, fd, 0, 1000)
		pc.Close(p, fd)
		fd, _ = pc.Open(p, "/f", OWronly|OTrunc, 0)
		pc.Close(p, fd)
	})
	env.Run()
	size, digest, _, _ := fs.Snapshot("/f")
	if size != 0 || digest != 0 {
		t.Fatalf("truncate left size=%d digest=%d", size, digest)
	}
}

func TestShortReadAtEOF(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var n int64
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|ORdwr, 0o644)
		pc.PWrite(p, fd, 0, 100)
		n, _ = pc.PRead(p, fd, 50, 500)
	})
	env.Run()
	if n != 50 {
		t.Fatalf("short read n = %d, want 50", n)
	}
}

func TestUnlinkAndStat(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{UID: 7})
	var statErr error
	var attr FileAttr
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o600)
		pc.PWrite(p, fd, 0, 123)
		pc.Close(p, fd)
		attr, _ = pc.Stat(p, "/f")
		pc.Unlink(p, "/f")
		_, statErr = pc.Stat(p, "/f")
	})
	env.Run()
	if attr.Size != 123 || attr.UID != 7 {
		t.Fatalf("attr = %+v", attr)
	}
	if !errors.Is(statErr, ErrNotExist) {
		t.Fatalf("stat after unlink: %v", statErr)
	}
}

func TestStatfsReportsFSType(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var info StatfsInfo
	env.Go("app", func(p *sim.Proc) {
		info, _ = pc.Statfs(p, "/anything")
	})
	env.Run()
	if info.FSType != "ext3" {
		t.Fatalf("fstype = %q", info.FSType)
	}
}

func TestMountLongestPrefixWins(t *testing.T) {
	env := sim.NewEnv(1)
	k := NewKernel(env, "n", clocks.New(0, 0), DefaultKernelConfig())
	root := NewMemFS(env, "ext3", disk.DefaultDisk())
	scratch := NewMemFS(env, "scratchfs", disk.DefaultDisk())
	k.Mount("/", root)
	k.Mount("/scratch", scratch)
	fs, err := k.Resolve("/scratch/run1/file")
	if err != nil || fs.FSName() != "scratchfs" {
		t.Fatalf("resolve: %v %v", fs, err)
	}
	fs, err = k.Resolve("/etc/hosts")
	if err != nil || fs.FSName() != "ext3" {
		t.Fatalf("resolve: %v %v", fs, err)
	}
}

func TestNoMountError(t *testing.T) {
	env := sim.NewEnv(1)
	k := NewKernel(env, "n", clocks.New(0, 0), DefaultKernelConfig())
	_, err := k.Resolve("/x")
	if !errors.Is(err, ErrNoMount) {
		t.Fatalf("err = %v", err)
	}
}

// recordingHook collects syscall records for hook tests.
type recordingHook struct {
	entered int
	recs    []trace.Record
	cost    sim.Duration
}

func (h *recordingHook) Enter(p *sim.Proc, name string) {
	h.entered++
	if h.cost > 0 {
		p.Sleep(h.cost)
	}
}

func (h *recordingHook) Exit(p *sim.Proc, rec *trace.Record) {
	h.recs = append(h.recs, rec.Clone())
	if h.cost > 0 {
		p.Sleep(h.cost)
	}
}

func TestSyscallHookSeesRecords(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{UID: 11, GID: 22})
	pc.SetRank(3)
	hook := &recordingHook{}
	pc.AttachHook(hook)
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
		pc.PWrite(p, fd, 4096, 8192)
		pc.Close(p, fd)
	})
	env.Run()
	if hook.entered != 3 {
		t.Fatalf("entered = %d, want 3", hook.entered)
	}
	if len(hook.recs) != 3 {
		t.Fatalf("recs = %d, want 3", len(hook.recs))
	}
	w := hook.recs[1]
	if w.Name != "SYS_pwrite" || w.Offset != 4096 || w.Bytes != 8192 || w.Path != "/f" {
		t.Fatalf("write record: %+v", w)
	}
	if w.Rank != 3 || w.UID != 11 || w.Node != "node1" {
		t.Fatalf("identity fields: %+v", w)
	}
	if w.Dur <= 0 {
		t.Fatalf("duration not positive: %v", w.Dur)
	}
}

func TestHookCostSlowsSyscalls(t *testing.T) {
	elapsed := func(withHook bool) sim.Time {
		env := sim.NewEnv(1)
		k, _ := newTestKernel(env)
		pc := k.Spawn(Cred{})
		if withHook {
			pc.AttachHook(&recordingHook{cost: 50 * sim.Microsecond})
		}
		var end sim.Time
		env.Go("app", func(p *sim.Proc) {
			fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
			for i := 0; i < 10; i++ {
				pc.PWrite(p, fd, int64(i*100), 100)
			}
			pc.Close(p, fd)
			end = p.Now()
		})
		env.Run()
		return end
	}
	plain, traced := elapsed(false), elapsed(true)
	if traced <= plain {
		t.Fatalf("hook cost had no effect: %v vs %v", traced, plain)
	}
	// 12 syscalls x 2 stops x 50 µs = 1.2 ms minimum extra.
	if traced-plain < 1200*sim.Microsecond {
		t.Fatalf("hook overhead too small: %v", traced-plain)
	}
}

func TestHookTimestampUsesLocalClock(t *testing.T) {
	env := sim.NewEnv(1)
	k := NewKernel(env, "skewed", clocks.New(5*sim.Second, 0), DefaultKernelConfig())
	fs := NewMemFS(env, "ext3", disk.DefaultDisk())
	k.Mount("/", fs)
	pc := k.Spawn(Cred{})
	hook := &recordingHook{}
	pc.AttachHook(hook)
	env.Go("app", func(p *sim.Proc) {
		pc.Open(p, "/f", OCreate|OWronly, 0o644)
	})
	env.Run()
	if len(hook.recs) == 0 || hook.recs[0].Time < 5*sim.Second {
		t.Fatalf("timestamp not skewed: %+v", hook.recs)
	}
}

func TestMMapBypassesSyscallHooks(t *testing.T) {
	env := sim.NewEnv(1)
	k, fs := newTestKernel(env)
	pc := k.Spawn(Cred{})
	hook := &recordingHook{}
	pc.AttachHook(hook)
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|ORdwr, 0o644)
		region, err := pc.MMap(p, fd, 0, 1<<20)
		if err != nil {
			t.Errorf("mmap: %v", err)
			return
		}
		// 16 stores through the mapping: invisible to the syscall hook.
		for i := 0; i < 16; i++ {
			if err := region.Store(p, int64(i*4096), 4096); err != nil {
				t.Errorf("store: %v", err)
			}
		}
		pc.Close(p, fd)
	})
	env.Run()
	// Hook sees open, mmap, close only.
	var names []string
	for _, r := range hook.recs {
		names = append(names, r.Name)
	}
	if len(hook.recs) != 3 {
		t.Fatalf("hook saw %v, want 3 records", names)
	}
	// But the file system did receive the data.
	size, _, writes, _ := fs.Snapshot("/f")
	if size != 16*4096 || writes != 16 {
		t.Fatalf("mmap data lost: size=%d writes=%d", size, writes)
	}
}

func TestMMapStoreBeyondMapping(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	var err error
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|ORdwr, 0o644)
		region, _ := pc.MMap(p, fd, 0, 4096)
		err = region.Store(p, 4000, 200)
	})
	env.Run()
	if err == nil {
		t.Fatal("expected error for store past end of mapping")
	}
}

func TestDetachHooks(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	hook := &recordingHook{}
	pc.AttachHook(hook)
	if !pc.Traced() {
		t.Fatal("Traced() = false after attach")
	}
	pc.DetachHooks()
	if pc.Traced() {
		t.Fatal("Traced() = true after detach")
	}
	env.Go("app", func(p *sim.Proc) {
		pc.Open(p, "/f", OCreate|OWronly, 0o644)
	})
	env.Run()
	if len(hook.recs) != 0 {
		t.Fatal("detached hook still saw records")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	writeExtents := func(order []int) uint64 {
		env := sim.NewEnv(1)
		k, fs := newTestKernel(env)
		pc := k.Spawn(Cred{})
		env.Go("app", func(p *sim.Proc) {
			fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
			for _, i := range order {
				pc.PWrite(p, fd, int64(i)*1000, 1000)
			}
			pc.Close(p, fd)
		})
		env.Run()
		_, digest, _, _ := fs.Snapshot("/f")
		return digest
	}
	a := writeExtents([]int{0, 1, 2, 3})
	b := writeExtents([]int{3, 1, 0, 2})
	if a != b {
		t.Fatalf("digest order-dependent: %x vs %x", a, b)
	}
	c := writeExtents([]int{0, 1, 2})
	if a == c {
		t.Fatal("different extents produced same digest")
	}
}

// Property: fd numbers are unique among open descriptors.
func TestFDUniquenessProperty(t *testing.T) {
	f := func(nOpen uint8) bool {
		n := int(nOpen)%20 + 1
		env := sim.NewEnv(1)
		k, _ := newTestKernel(env)
		pc := k.Spawn(Cred{})
		ok := true
		env.Go("app", func(p *sim.Proc) {
			seen := make(map[int]bool)
			for i := 0; i < n; i++ {
				fd, err := pc.Open(p, "/f", OCreate|ORdwr, 0o644)
				if err != nil || seen[fd] {
					ok = false
					return
				}
				seen[fd] = true
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSyscallCountAccumulates(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/f", OCreate|OWronly, 0o644)
		pc.PWrite(p, fd, 0, 10)
		pc.Fsync(p, fd)
		pc.Fcntl(p, fd, 1, 0)
		pc.Close(p, fd)
	})
	env.Run()
	if k.SyscallCount != 5 {
		t.Fatalf("SyscallCount = %d, want 5", k.SyscallCount)
	}
}

func TestCanStack(t *testing.T) {
	env := sim.NewEnv(1)
	fs := NewMemFS(env, "ext3", disk.DefaultDisk())
	if !CanStack(fs) {
		t.Fatal("MemFS should stack")
	}
}

func TestAccessorsAndSequentialRead(t *testing.T) {
	env := sim.NewEnv(1)
	k, fs := newTestKernel(env)
	if k.Node() != "node1" || k.Clock() == nil {
		t.Fatal("kernel accessors")
	}
	if _, ok := k.MountedAt("/"); !ok {
		t.Fatal("MountedAt missed root mount")
	}
	if _, ok := k.MountedAt("/nope"); ok {
		t.Fatal("MountedAt invented a mount")
	}
	pc := k.Spawn(Cred{UID: 3, GID: 4})
	pc.SetRank(9)
	if pc.PID() < 10000 || pc.Cred().UID != 3 || pc.Rank() != 9 || pc.Kernel() != k {
		t.Fatal("proc accessors")
	}
	fs.Preload("/preloaded", 1000)
	if got := fs.Paths(); len(got) != 1 || got[0] != "/preloaded" {
		t.Fatalf("paths: %v", got)
	}
	env.Go("app", func(p *sim.Proc) {
		fd, err := pc.Open(p, "/preloaded", ORdonly, 0)
		if err != nil {
			t.Errorf("open preloaded: %v", err)
			return
		}
		// Sequential reads advance the position and stop at EOF.
		if n, _ := pc.Read(p, fd, 600); n != 600 {
			t.Errorf("read1 = %d", n)
		}
		if n, _ := pc.Read(p, fd, 600); n != 400 {
			t.Errorf("read2 = %d", n)
		}
		if n, _ := pc.Read(p, fd, 600); n != 0 {
			t.Errorf("read3 = %d", n)
		}
		pc.Close(p, fd)
	})
	env.Run()
}

func TestMountReplacesSamePrefix(t *testing.T) {
	env := sim.NewEnv(1)
	k := NewKernel(env, "n", clocks.New(0, 0), DefaultKernelConfig())
	a := NewMemFS(env, "first", disk.DefaultDisk())
	b := NewMemFS(env, "second", disk.DefaultDisk())
	k.Mount("/x", a)
	k.Mount("/x", b)
	fs, err := k.Resolve("/x/file")
	if err != nil || fs.FSName() != "second" {
		t.Fatalf("remount: %v %v", fs, err)
	}
}

func TestHandleAttrAndCanStackNonStackable(t *testing.T) {
	env := sim.NewEnv(1)
	k, _ := newTestKernel(env)
	pc := k.Spawn(Cred{})
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/af", OCreate|OWronly, 0o600)
		pc.PWrite(p, fd, 0, 77)
		pc.Fsync(p, fd)
		pc.Close(p, fd)
		attr, err := pc.Stat(p, "/af")
		if err != nil || attr.Size != 77 {
			t.Errorf("attr: %+v %v", attr, err)
		}
	})
	env.Run()
	if !CanStack(fakeNonStackable{}) == false {
		// fakeNonStackable reports false: CanStack must honor it.
	}
	if CanStack(fakeNonStackable{}) {
		t.Fatal("CanStack ignored VNodeStackingSupported=false")
	}
}

type fakeNonStackable struct{ Filesystem }

func (fakeNonStackable) VNodeStackingSupported() bool { return false }
