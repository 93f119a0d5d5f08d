package replay

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/cluster"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func simpleTrace(ranks int) *Trace {
	tr := &Trace{Ranks: ranks, Ops: make([][]Op, ranks), OriginalElapsed: sim.Second}
	for r := 0; r < ranks; r++ {
		tr.Ops[r] = []Op{
			{Kind: OpOpen, Path: "/pfs/replayed", Compute: 10 * sim.Millisecond},
			{Kind: OpWrite, Path: "/pfs/replayed", Offset: int64(r) * 65536, Bytes: 65536},
			{Kind: OpClose, Path: "/pfs/replayed"},
		}
	}
	return tr
}

func TestExecuteWritesExpectedData(t *testing.T) {
	c := testCluster()
	tr := simpleTrace(4)
	res, err := Execute(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || len(res.PerRank) != 4 {
		t.Fatalf("result: %+v", res)
	}
	size, _, writes, ok := c.PFS.Snapshot("/pfs/replayed")
	if !ok || size != 4*65536 || writes != 4 {
		t.Fatalf("snapshot size=%d writes=%d ok=%v", size, writes, ok)
	}
}

func TestComputeGapsDelayElapsed(t *testing.T) {
	withGap := simpleTrace(2)
	withGap.Ops[0][0].Compute = 500 * sim.Millisecond
	noGap := simpleTrace(2)
	noGap.Ops[0][0].Compute = 0

	c1 := testCluster()
	r1, err := Execute(c1, withGap)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster()
	r2, err := Execute(c2, noGap)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed-r2.Elapsed < 400*sim.Millisecond {
		t.Fatalf("compute gap not honored: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
}

func TestDependencyOrdersExecution(t *testing.T) {
	// Rank 1's write must wait for rank 0's write via a dependency edge.
	tr := simpleTrace(2)
	tr.Ops[0][0].Compute = 300 * sim.Millisecond // rank 0 starts late
	tr.Deps = []Dep{{FromRank: 0, FromOp: 1, ToRank: 1, ToOp: 1}}
	c := testCluster()
	res, err := Execute(c, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 cannot finish before rank 0's delayed write.
	if res.PerRank[1] < 300*sim.Millisecond {
		t.Fatalf("dependency ignored: rank1 elapsed %v", res.PerRank[1])
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []func(tr *Trace){
		func(tr *Trace) { tr.Ranks = 0 },
		func(tr *Trace) { tr.Ops = tr.Ops[:1] },
		func(tr *Trace) { tr.Deps = []Dep{{FromRank: 9, ToRank: 0}} },
		func(tr *Trace) { tr.Deps = []Dep{{FromRank: 0, FromOp: 99, ToRank: 1}} },
		func(tr *Trace) { tr.Deps = []Dep{{FromRank: 0, FromOp: 0, ToRank: 1, ToOp: 99}} },
		func(tr *Trace) { tr.Deps = []Dep{{FromRank: 1, FromOp: 0, ToRank: 1, ToOp: 1}} },
	}
	for i, mutate := range cases {
		tr := simpleTrace(2)
		mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestValidateRejectsBadOps covers the op fields a replay file from outside
// can forge: each case must fail Validate, and ParseText too, before
// anything replays it.
func TestValidateRejectsBadOps(t *testing.T) {
	for name, op := range map[string]Op{
		"negative compute":  {Kind: OpWrite, Compute: -1, Bytes: 4096},
		"negative offset":   {Kind: OpWrite, Offset: -4096, Bytes: 4096},
		"negative length":   {Kind: OpRead, Bytes: -1},
		"offset overflow":   {Kind: OpWrite, Offset: 9223372036854775000, Bytes: 4096},
		"unknown kind":      {Kind: OpClose + 1},
		"negative kind":     {Kind: -1},
		"one byte past max": {Kind: OpWrite, Offset: 1<<63 - 1, Bytes: 1},
	} {
		tr := simpleTrace(2)
		tr.Ops[1] = append(tr.Ops[1], op)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: %+v passed Validate", name, op)
		}
	}
	ok := Op{Kind: OpWrite, Offset: 1<<63 - 1 - 4096, Bytes: 4096}
	tr := simpleTrace(1)
	tr.Ops[0] = append(tr.Ops[0], ok)
	if err := tr.Validate(); err != nil {
		t.Errorf("%+v ends at the largest offset and must pass: %v", ok, err)
	}
	for _, src := range []string{
		overflowTrace,
		"# partrace replayable v1 ranks=1 original_elapsed=5\nR0 compute=-5 open \"/f\" off=0 len=0\n",
		"# partrace replayable v1 ranks=1 original_elapsed=5\nR0 compute=0 read \"/f\" off=-1 len=8\n",
		"# partrace replayable v1 ranks=-1 original_elapsed=5\n",
		"# partrace replayable v1 ranks=1048577 original_elapsed=5\n",
	} {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// overflowTrace's write ends past the largest int64 offset.
const overflowTrace = "# partrace replayable v1 ranks=1 original_elapsed=0\n" +
	"R0 compute=0 write \"/pfs/f\" off=9223372036854775000 len=4096\n"

// FuzzParseText holds ParseText to its contract on any input: an error, or
// a trace that passes Validate and whose text form parses back to an equal
// trace.
func FuzzParseText(f *testing.F) {
	tr := simpleTrace(2)
	tr.Deps = []Dep{{FromRank: 0, FromOp: 1, ToRank: 1, ToOp: 2}}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(overflowTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("parsed trace fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := tr.WriteText(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ParseText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written trace does not parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip differs:\n%+v\n%+v", tr, back)
		}
	})
}

func TestTextRoundTrip(t *testing.T) {
	tr := simpleTrace(3)
	tr.Deps = []Dep{{FromRank: 0, FromOp: 1, ToRank: 2, ToOp: 1}}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 3 || got.OpCount() != tr.OpCount() || len(got.Deps) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	if got.OriginalElapsed != tr.OriginalElapsed {
		t.Fatalf("elapsed lost: %v", got.OriginalElapsed)
	}
	if got.Ops[1][1].Offset != 65536 || got.Ops[1][1].Bytes != 65536 {
		t.Fatalf("op fields lost: %+v", got.Ops[1][1])
	}
}

func TestParseTextErrors(t *testing.T) {
	for _, src := range []string{
		"garbage\n",
		"# partrace replayable v1 ranks=2 original_elapsed=5\nR9 compute=0 open \"/f\" off=0 len=0\n",
		"# partrace replayable v1 ranks=1 original_elapsed=5\nR0 compute=0 explode \"/f\" off=0 len=0\n",
		"# partrace replayable v1 ranks=1 original_elapsed=5\nDEP 0:0 -> 5:0\n",
	} {
		if _, err := ParseText(strings.NewReader(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// Property: text round-trip preserves op streams for random small traces.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := int(seed)
		ranks := rng%3 + 1
		tr := &Trace{Ranks: ranks, Ops: make([][]Op, ranks), OriginalElapsed: sim.Duration(seed)}
		kinds := []OpKind{OpOpen, OpWrite, OpRead, OpClose}
		for r := 0; r < ranks; r++ {
			nOps := (rng>>2)%4 + 1
			for i := 0; i < nOps; i++ {
				tr.Ops[r] = append(tr.Ops[r], Op{
					Kind:    kinds[(rng+i)%4],
					Compute: sim.Duration((rng * (i + 1)) % 10000),
					Path:    "/pfs/x",
					Offset:  int64(i * 100),
					Bytes:   int64(rng % 5000),
				})
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteText(&buf); err != nil {
			return false
		}
		got, err := ParseText(&buf)
		if err != nil {
			return false
		}
		if got.OpCount() != tr.OpCount() {
			return false
		}
		for r := range tr.Ops {
			for i := range tr.Ops[r] {
				if got.Ops[r][i] != tr.Ops[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFidelityMetric(t *testing.T) {
	if Fidelity(100, 106) != 0.06 {
		t.Fatalf("fidelity = %v", Fidelity(100, 106))
	}
	if Fidelity(100, 94) != 0.06 {
		t.Fatalf("fidelity abs = %v", Fidelity(100, 94))
	}
	if Fidelity(0, 50) != 0 {
		t.Fatal("zero original should yield 0")
	}
}

func TestOpKindStrings(t *testing.T) {
	for _, k := range []OpKind{OpOpen, OpWrite, OpRead, OpClose} {
		parsed, err := parseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("kind %v round trip failed", k)
		}
	}
	if _, err := parseKind("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestWriteWithoutOpenAutoOpens(t *testing.T) {
	tr := &Trace{
		Ranks:           1,
		Ops:             [][]Op{{{Kind: OpWrite, Path: "/pfs/auto", Bytes: 4096}}},
		OriginalElapsed: sim.Second,
	}
	c := testCluster()
	if _, err := Execute(c, tr); err != nil {
		t.Fatal(err)
	}
	size, _, _, ok := c.PFS.Snapshot("/pfs/auto")
	if !ok || size != 4096 {
		t.Fatalf("auto-open write failed: %d %v", size, ok)
	}
}

func TestFromRecordsBuildsReplayableTrace(t *testing.T) {
	recs := []trace.Record{
		{Time: 0, Dur: sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_open", Path: "/pfs/f"},
		{Time: 5 * sim.Millisecond, Dur: 2 * sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_Barrier"}, // synchronization: excluded from think time
		{Time: 10 * sim.Millisecond, Dur: 3 * sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_write_at", Path: "/pfs/f", Offset: 4096, Bytes: 8192},
		{Time: 20 * sim.Millisecond, Dur: sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_close", Path: "/pfs/f"},
		{Time: 0, Dur: sim.Millisecond, Rank: 1, Class: trace.ClassMPI,
			Name: "MPI_File_open", Path: "/pfs/f"},
		{Time: 2 * sim.Millisecond, Dur: sim.Millisecond, Rank: 1, Class: trace.ClassMPI,
			Name: "MPI_File_read_at", Path: "/pfs/f", Offset: 0, Bytes: 4096},
	}
	tr, err := FromRecords(trace.SliceSource(recs), 30*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ranks != 2 || len(tr.Ops[0]) != 3 || len(tr.Ops[1]) != 2 {
		t.Fatalf("shape: ranks=%d ops=%v", tr.Ranks, tr.Ops)
	}
	// Think time before the write: 10ms start - 1ms open end - 2ms barrier.
	if tr.Ops[0][1].Kind != OpWrite || tr.Ops[0][1].Compute != 7*sim.Millisecond {
		t.Fatalf("write op: %+v", tr.Ops[0][1])
	}
	if tr.OriginalElapsed != 30*sim.Millisecond {
		t.Fatalf("elapsed: %v", tr.OriginalElapsed)
	}
	// The built trace must execute.
	if _, err := Execute(testCluster(), tr); err != nil {
		t.Fatal(err)
	}
}

// TestFromRecordsSyncEndsThinkInterval pins the think-time rule at an
// MPI_File_sync: the sync is an I/O call with no replay op, so it adds no
// op, and the next op's think time runs from the sync's end rather than
// counting the sync as synchronization time.
func TestFromRecordsSyncEndsThinkInterval(t *testing.T) {
	recs := []trace.Record{
		{Time: 0, Dur: sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_open", Path: "/pfs/f"},
		{Time: 3 * sim.Millisecond, Dur: 2 * sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_write_at", Path: "/pfs/f", Bytes: 4096},
		{Time: 8 * sim.Millisecond, Dur: 4 * sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_sync", Path: "/pfs/f"},
		{Time: 14 * sim.Millisecond, Dur: sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_Barrier"},
		{Time: 20 * sim.Millisecond, Dur: sim.Millisecond, Rank: 0, Class: trace.ClassMPI,
			Name: "MPI_File_write_at", Path: "/pfs/f", Offset: 4096, Bytes: 4096},
	}
	tr, err := FromRecords(trace.SliceSource(recs), 0)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []OpKind
	for _, op := range tr.Ops[0] {
		kinds = append(kinds, op.Kind)
	}
	if !slices.Equal(kinds, []OpKind{OpOpen, OpWrite, OpWrite}) {
		t.Fatalf("ops %v, want open, write, write", kinds)
	}
	// 20ms start - 12ms sync end - 1ms barrier.
	if got := tr.Ops[0][2].Compute; got != 7*sim.Millisecond {
		t.Fatalf("think time after the sync: %v, want 7ms", got)
	}
}

func TestFromRecordsRejectsUnranked(t *testing.T) {
	recs := []trace.Record{{Rank: -1, Class: trace.ClassMPI, Name: "MPI_File_open"}}
	if _, err := FromRecords(trace.SliceSource(recs), 0); err == nil {
		t.Fatal("expected error for rankless record")
	}
}

func TestClassifyRoles(t *testing.T) {
	ops := map[string]OpKind{
		"MPI_File_open": OpOpen, "MPI_File_write_at": OpWrite,
		"MPI_File_write": OpWrite, "MPI_File_read_at": OpRead,
		"MPI_File_read": OpRead, "MPI_File_close": OpClose,
		"SYS_open": OpOpen, "SYS_pwrite": OpWrite, "SYS_write": OpWrite,
		"SYS_pread": OpRead, "SYS_read": OpRead, "SYS_close": OpClose,
	}
	for name, want := range ops {
		if c := classify(&trace.Record{Name: name, Ret: "3"}); c.role != RoleOp || c.kind != want {
			t.Errorf("%s -> role %d kind %v, want an op of kind %v", name, c.role, c.kind, want)
		}
	}
	for _, tc := range []struct {
		rec  trace.Record
		want Role
	}{
		{trace.Record{Name: "MPI_File_sync"}, RoleBoundary},
		{trace.Record{Name: "SYS_open", Ret: "-1 vfs: no such file"}, RoleBoundary},
		{trace.Record{Name: "MPI_File_open", Ret: "-1"}, RoleOp},
		{trace.Record{Name: "MPI_Barrier"}, RoleOther},
		{trace.Record{Name: "MPI_File_write_at_all"}, RoleOther},
		{trace.Record{Name: "SYS_fsync"}, RoleOther},
	} {
		if got := Classify(&tc.rec); got != tc.want {
			t.Errorf("%s (ret %q) -> role %d, want %d", tc.rec.Name, tc.rec.Ret, got, tc.want)
		}
	}
}

// TestBuilderReadsOneLevel feeds both builders one rank's ltrace-style
// stream, where each MPI-IO call encloses the system calls it makes. Each
// level must count every I/O once, from its own records only, and anchor the
// rank's first think interval at its own first record.
func TestBuilderReadsOneLevel(t *testing.T) {
	ms := sim.Millisecond
	recs := []trace.Record{
		{Time: 1 * ms, Dur: 4 * ms, Class: trace.ClassMPI, Name: "MPI_File_open", Path: "/pfs/f"},
		{Time: 2 * ms, Dur: ms, Class: trace.ClassSyscall, Name: "SYS_open", Path: "/pfs/f", Ret: "3"},
		{Time: 6 * ms, Dur: ms, Class: trace.ClassMPI, Name: "MPI_Barrier"},
		{Time: 10 * ms, Dur: 4 * ms, Class: trace.ClassMPI, Name: "MPI_File_write_at",
			Path: "/pfs/f", Offset: 8, Bytes: 16},
		{Time: 11 * ms, Dur: 2 * ms, Class: trace.ClassSyscall, Name: "SYS_pwrite",
			Args: []string{"3", "8", "16"}, Offset: 8, Bytes: 16},
		{Time: 15 * ms, Dur: ms, Class: trace.ClassSyscall, Name: "SYS_write",
			Args: []string{"3", "32"}, Bytes: 32},
		{Time: 20 * ms, Dur: ms, Class: trace.ClassMPI, Name: "MPI_File_close", Path: "/pfs/f"},
		{Time: 20 * ms, Dur: ms, Class: trace.ClassSyscall, Name: "SYS_close", Args: []string{"3"}},
	}
	for _, tc := range []struct {
		level trace.EventClass
		want  []Op
	}{
		{trace.ClassMPI, []Op{
			{Kind: OpOpen, Path: "/pfs/f"},
			{Kind: OpWrite, Path: "/pfs/f", Offset: 8, Bytes: 16, Compute: 4 * ms},
			{Kind: OpClose, Path: "/pfs/f", Compute: 6 * ms},
		}},
		{trace.ClassSyscall, []Op{
			{Kind: OpOpen, Path: "/pfs/f"},
			{Kind: OpWrite, Path: "/pfs/f", Offset: 8, Bytes: 16, Compute: 8 * ms},
			{Kind: OpWrite, Path: "/pfs/f", Offset: 0, Bytes: 32, Compute: 2 * ms},
			{Kind: OpClose, Path: "/pfs/f", Compute: 4 * ms},
		}},
	} {
		b := NewBuilder(tc.level, 1)
		for i := range recs {
			if err := b.Add(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		tr, err := b.Trace(0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(tr.Ops[0], tc.want) {
			t.Errorf("level %v: ops %+v, want %+v", tc.level, tr.Ops[0], tc.want)
		}
	}
}

// TestSharedDependencyGate makes three ranks wait on one operation, rank 0's
// late write, and gives rank 3 a second dependency on an operation that
// opened long before rank 3 reaches it. The waiters must wake in wait order
// at the write's instant and the open gate must not block; the pinned
// figures move if a wake leaves its event slot.
func TestSharedDependencyGate(t *testing.T) {
	tr := simpleTrace(4)
	tr.Ops[0][0].Compute = 50 * sim.Millisecond
	tr.Deps = []Dep{
		{FromRank: 0, FromOp: 1, ToRank: 1, ToOp: 1},
		{FromRank: 0, FromOp: 1, ToRank: 2, ToOp: 1},
		{FromRank: 0, FromOp: 1, ToRank: 3, ToOp: 1},
		{FromRank: 1, FromOp: 0, ToRank: 3, ToOp: 2},
	}
	res, err := Execute(testCluster(), tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []sim.Duration{54363064, 58039712, 58249264, 58458816}
	if res.Elapsed != 58458816 || len(res.PerRank) != len(want) {
		t.Fatalf("result %+v, want elapsed 58458816 and per-rank %v", res, want)
	}
	for r, d := range want {
		if res.PerRank[r] != d {
			t.Fatalf("per-rank %v, want %v", res.PerRank, want)
		}
	}
}
