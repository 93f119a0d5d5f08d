package tracefs

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/anonymize"
	"iotaxo/internal/clocks"
	"iotaxo/internal/disk"
	"iotaxo/internal/netsim"
	"iotaxo/internal/pfs"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

// --- filter language tests ---

func rec(name, path string, bytes_ int64, uid int) trace.Record {
	return trace.Record{Name: name, Path: path, Bytes: bytes_, UID: uid, Class: trace.ClassFSOp}
}

func TestFilterBasics(t *testing.T) {
	cases := []struct {
		src   string
		rec   trace.Record
		match bool
	}{
		{"", rec("VFS_write", "/a", 10, 0), true},
		{"op == write", rec("VFS_write", "/a", 10, 0), true},
		{"op == write", rec("VFS_read", "/a", 10, 0), false},
		{"op != write", rec("VFS_read", "/a", 10, 0), true},
		{"op in {read, write}", rec("VFS_read", "/a", 0, 0), true},
		{"op in {read, write}", rec("VFS_unlink", "/a", 0, 0), false},
		{`path ~ "/pfs/*"`, rec("VFS_write", "/pfs/data/file", 0, 0), true},
		{`path ~ "/pfs/*"`, rec("VFS_write", "/home/file", 0, 0), false},
		{"bytes >= 4096", rec("VFS_write", "/a", 4096, 0), true},
		{"bytes >= 4096", rec("VFS_write", "/a", 4095, 0), false},
		{"bytes < 1K", rec("VFS_write", "/a", 1023, 0), true},
		{"bytes > 1M", rec("VFS_write", "/a", 2<<20, 0), true},
		{"uid == 500", rec("VFS_write", "/a", 0, 500), true},
		{"op == write && bytes >= 100", rec("VFS_write", "/a", 200, 0), true},
		{"op == write && bytes >= 100", rec("VFS_write", "/a", 50, 0), false},
		{"op == read || op == write", rec("VFS_write", "/a", 0, 0), true},
		{"!(op == write)", rec("VFS_read", "/a", 0, 0), true},
		{"!(op == write)", rec("VFS_write", "/a", 0, 0), false},
		{"(op == read || op == write) && bytes > 10", rec("VFS_read", "/a", 11, 0), true},
	}
	for _, c := range cases {
		f, err := CompileFilter(c.src)
		if err != nil {
			t.Fatalf("compile %q: %v", c.src, err)
		}
		if got := f.Match(&c.rec); got != c.match {
			t.Errorf("%q on %s/%d = %v, want %v", c.src, c.rec.Name, c.rec.Bytes, got, c.match)
		}
	}
}

func TestFilterErrors(t *testing.T) {
	for _, src := range []string{
		"bogusfield == 1",
		"op >> write",
		"bytes == ",
		"op in {read",
		"(op == read",
		"op == read extra",
		"bytes ~ \"x\"",
		"op >= 5",
		"bytes in {1,2}",
	} {
		if _, err := CompileFilter(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestFilterSizeSuffixes(t *testing.T) {
	f := MustCompileFilter("bytes == 64K")
	r := rec("VFS_write", "/a", 64<<10, 0)
	if !f.Match(&r) {
		t.Fatal("64K suffix broken")
	}
}

// Property: ! is an involution for arbitrary op names.
func TestFilterNegationProperty(t *testing.T) {
	f1 := MustCompileFilter("op == write")
	f2 := MustCompileFilter("!(op == write)")
	g := func(nameIdx uint8) bool {
		names := []string{"VFS_write", "VFS_read", "VFS_open", "VFS_close"}
		r := rec(names[int(nameIdx)%len(names)], "/x", 0, 0)
		return f1.Match(&r) != f2.Match(&r)
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- stacking tests ---

func newLowerFS(env *sim.Env) *vfs.MemFS {
	return vfs.NewMemFS(env, "ext3", disk.DefaultDisk())
}

func mountOver(t *testing.T, env *sim.Env, cfg Config) (*FS, *vfs.MemFS) {
	t.Helper()
	lower := newLowerFS(env)
	f, err := Mount(lower, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, lower
}

func runApp(t *testing.T, env *sim.Env, k *vfs.Kernel, nWrites int) sim.Duration {
	t.Helper()
	pc := k.Spawn(vfs.Cred{UID: 500, GID: 100})
	var elapsed sim.Duration
	env.Go("app", func(p *sim.Proc) {
		start := p.Now()
		fd, err := pc.Open(p, "/data/file", vfs.OCreate|vfs.ORdwr, 0o644)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := 0; i < nWrites; i++ {
			pc.PWrite(p, fd, int64(i)*4096, 4096)
		}
		pc.PRead(p, fd, 0, 4096)
		pc.Close(p, fd)
		elapsed = p.Now() - start
	})
	env.Run()
	return elapsed
}

func kernelWith(env *sim.Env, fs vfs.Filesystem) *vfs.Kernel {
	k := vfs.NewKernel(env, "n1", clocks.New(0, 0), vfs.DefaultKernelConfig())
	k.Mount("/", fs)
	return k
}

func TestMountRefusesNonStackable(t *testing.T) {
	env := sim.NewEnv(1)
	net_ := netsim.New(env, netsim.GigabitEthernet())
	net_.AddNode("c")
	sys := pfs.New(net_, pfs.DefaultNFS())
	nfsClient := pfs.NewClient(sys, "c")
	if _, err := Mount(nfsClient, DefaultConfig()); err != nil {
		t.Fatalf("NFS should stack: %v", err)
	}

	env2 := sim.NewEnv(1)
	net2 := netsim.New(env2, netsim.GigabitEthernet())
	net2.AddNode("c")
	par := pfs.New(net2, pfs.Config{Name: "panfs", Servers: 2, Stackable: false})
	parClient := pfs.NewClient(par, "c")
	_, err := Mount(parClient, DefaultConfig())
	if !errors.Is(err, vfs.ErrIncompatible) {
		t.Fatalf("parallel FS mounted without force: %v", err)
	}
	// ForceStack models the porting work.
	cfg := DefaultConfig()
	cfg.ForceStack = true
	if _, err := Mount(parClient, cfg); err != nil {
		t.Fatalf("ForceStack failed: %v", err)
	}
}

func TestTracesAllVFSOps(t *testing.T) {
	env := sim.NewEnv(1)
	f, _ := mountOver(t, env, DefaultConfig())
	k := kernelWith(env, f)
	runApp(t, env, k, 4)
	if f.Counters["VFS_open"] != 1 || f.Counters["VFS_write"] != 4 ||
		f.Counters["VFS_read"] != 1 || f.Counters["VFS_close"] != 1 {
		t.Fatalf("counters: %v", f.Counters)
	}
	recs, err := f.TraceRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != int(f.Events) {
		t.Fatalf("decoded %d records, events %d", len(recs), f.Events)
	}
	for _, r := range recs {
		if r.Class != trace.ClassFSOp {
			t.Fatalf("record class %v", r.Class)
		}
	}
}

func TestSeesMMapWritebackUnlikeSyscallTracers(t *testing.T) {
	env := sim.NewEnv(1)
	f, _ := mountOver(t, env, DefaultConfig())
	k := kernelWith(env, f)
	pc := k.Spawn(vfs.Cred{})
	env.Go("app", func(p *sim.Proc) {
		fd, _ := pc.Open(p, "/m", vfs.OCreate|vfs.ORdwr, 0o644)
		region, _ := pc.MMap(p, fd, 0, 1<<20)
		for i := 0; i < 8; i++ {
			region.Store(p, int64(i)*4096, 4096)
		}
		pc.Close(p, fd)
	})
	env.Run()
	if f.Counters["VFS_write"] != 8 {
		t.Fatalf("tracefs missed mmap writeback: %v", f.Counters)
	}
}

func TestGranularityFilterSuppresses(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Filter = MustCompileFilter("op == write && bytes >= 4096")
	f, _ := mountOver(t, env, cfg)
	k := kernelWith(env, f)
	runApp(t, env, k, 4)
	recs, _ := f.TraceRecords()
	for _, r := range recs {
		if r.Name != "VFS_write" {
			t.Fatalf("filter leaked %s", r.Name)
		}
	}
	if f.Suppressed == 0 {
		t.Fatal("nothing suppressed")
	}
	// Counters still aggregate everything.
	if f.Counters["VFS_open"] != 1 {
		t.Fatalf("counters stopped: %v", f.Counters)
	}
}

func TestOverheadOrdering(t *testing.T) {
	// untraced < traced(plain) < traced(+checksum) < traced(+compress+encrypt)
	elapsed := func(cfgp *Config) sim.Duration {
		env := sim.NewEnv(1)
		var target vfs.Filesystem = newLowerFS(env)
		if cfgp != nil {
			f, err := Mount(target, *cfgp)
			if err != nil {
				t.Fatal(err)
			}
			target = f
		}
		k := kernelWith(env, target)
		return runApp(t, env, k, 64)
	}
	base := elapsed(nil)
	plain := DefaultConfig()
	tPlain := elapsed(&plain)
	ck := DefaultConfig()
	ck.Checksum = true
	tCk := elapsed(&ck)
	full := DefaultConfig()
	full.Checksum = true
	full.Compress = true
	full.Encrypt = true
	tFull := elapsed(&full)

	if !(base < tPlain && tPlain < tCk && tCk < tFull) {
		t.Fatalf("overhead ordering violated: base=%v plain=%v checksum=%v full=%v",
			base, tPlain, tCk, tFull)
	}
}

func TestOverheadModest(t *testing.T) {
	// Full tracing on an I/O intensive workload stays within the paper's
	// reported bound (<12.4%) — with margin for our synthetic setup.
	env := sim.NewEnv(1)
	base := runApp(t, env, kernelWith(env, newLowerFS(env)), 256)

	env2 := sim.NewEnv(1)
	f, _ := mountOver(t, env2, DefaultConfig())
	traced := runApp(t, env2, kernelWith(env2, f), 256)

	frac := float64(traced-base) / float64(base)
	if frac <= 0 || frac > 0.124 {
		t.Fatalf("tracefs overhead %.1f%% outside (0, 12.4%%]", frac*100)
	}
}

func TestBufferingReducesOverhead(t *testing.T) {
	run := func(buffer int) sim.Duration {
		env := sim.NewEnv(1)
		cfg := DefaultConfig()
		cfg.Buffer = buffer
		f, _ := mountOver(t, env, cfg)
		return runApp(t, env, kernelWith(env, f), 128)
	}
	unbuffered := run(1)
	buffered := run(128)
	if buffered > unbuffered {
		t.Fatalf("buffering made things slower: %v vs %v", buffered, unbuffered)
	}
}

func TestEncryptedTraceHidesPathsButDecrypts(t *testing.T) {
	env := sim.NewEnv(1)
	cfg := DefaultConfig()
	cfg.Encrypt = true
	cfg.Key = []byte("0123456789abcdef")
	spec, _ := anonymize.ParseSpec("path,uid,gid")
	cfg.EncryptSpec = spec
	f, _ := mountOver(t, env, cfg)
	k := kernelWith(env, f)
	runApp(t, env, k, 4)

	recs, err := f.TraceRecords()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records")
	}
	for _, r := range recs {
		if strings.Contains(r.Path, "/data/") {
			t.Fatalf("path leaked: %q", r.Path)
		}
	}
	// Key holder can reverse (the paper's anonymization caveat).
	e, _ := anonymize.NewEncryptor(spec, cfg.Key)
	pt, err := e.DecryptValue(recs[0].Path)
	if err != nil || pt != "/data/file" {
		t.Fatalf("decrypt: %q %v", pt, err)
	}
	// Stream carries the anonymized flag.
	rd := trace.NewBinaryReader(strings.NewReader(string(f.TraceBinary())))
	rd.Next()
	if rd.Flags()&trace.FlagAnonymized == 0 {
		t.Fatal("anonymized flag missing")
	}
}

func TestCompressionShrinksOutput(t *testing.T) {
	run := func(compress bool) int64 {
		env := sim.NewEnv(1)
		cfg := DefaultConfig()
		cfg.Compress = compress
		f, _ := mountOver(t, env, cfg)
		k := kernelWith(env, f)
		runApp(t, env, k, 256)
		return f.OutputBytes()
	}
	plain := run(false)
	compressed := run(true)
	if compressed >= plain {
		t.Fatalf("compression did not shrink: %d vs %d", compressed, plain)
	}
}

// The columnar emitter must produce the same records as the v1 emitter —
// the format is an output option, not a semantic one — in a smaller stream
// that OpenTrace reads back transparently.
func TestColumnarEmitterMatchesBinary(t *testing.T) {
	run := func(columnar bool) (*FS, []trace.Record) {
		env := sim.NewEnv(1)
		cfg := DefaultConfig()
		cfg.Columnar = columnar
		f, _ := mountOver(t, env, cfg)
		k := kernelWith(env, f)
		runApp(t, env, k, 128)
		recs, err := f.TraceRecords()
		if err != nil {
			t.Fatal(err)
		}
		return f, recs
	}
	fBin, binRecs := run(false)
	fCol, colRecs := run(true)
	if !reflect.DeepEqual(binRecs, colRecs) {
		t.Fatalf("record streams differ: %d vs %d records", len(binRecs), len(colRecs))
	}
	if fCol.OutputBytes() >= fBin.OutputBytes() {
		t.Fatalf("columnar not smaller: %d vs %d bytes", fCol.OutputBytes(), fBin.OutputBytes())
	}
	if format, _ := trace.DetectFormat(bytes.NewReader(fCol.TraceBinary())); format != trace.FormatColumnar {
		t.Fatalf("columnar output detected as %v", format)
	}
}

func TestStatfsReportsLayeredName(t *testing.T) {
	env := sim.NewEnv(1)
	f, _ := mountOver(t, env, DefaultConfig())
	k := kernelWith(env, f)
	pc := k.Spawn(vfs.Cred{})
	var info vfs.StatfsInfo
	env.Go("app", func(p *sim.Proc) {
		info, _ = pc.Statfs(p, "/x")
	})
	env.Run()
	if info.FSType != "tracefs(ext3)" {
		t.Fatalf("fstype = %q", info.FSType)
	}
}

func TestLowerEndStateUnchanged(t *testing.T) {
	// Tracing must not alter what reaches the lower file system.
	env1 := sim.NewEnv(1)
	lower1 := newLowerFS(env1)
	runApp(t, env1, kernelWith(env1, lower1), 16)
	s1, d1, w1, _ := lower1.Snapshot("/data/file")

	env2 := sim.NewEnv(1)
	lower2 := newLowerFS(env2)
	f, err := Mount(lower2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	runApp(t, env2, kernelWith(env2, f), 16)
	s2, d2, w2, _ := lower2.Snapshot("/data/file")

	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("end state differs: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

// Property: the filter compiler never panics on arbitrary source strings.
func TestFilterCompilerFuzzProperty(t *testing.T) {
	f := func(src string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic compiling %q", src)
			}
		}()
		CompileFilter(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: compiled filters never panic evaluating arbitrary records.
func TestFilterMatchFuzzProperty(t *testing.T) {
	filters := []*Filter{
		MustCompileFilter(`op in {read, write} && path ~ "/pfs/*"`),
		MustCompileFilter("bytes >= 1K || uid == 0"),
		MustCompileFilter("!(op == close) && rank >= 0"),
	}
	f := func(name, path string, bytes_ int64, uid, rank int) bool {
		r := trace.Record{Name: name, Path: path, Bytes: bytes_, UID: uid, Rank: rank}
		for _, flt := range filters {
			flt.Match(&r)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
