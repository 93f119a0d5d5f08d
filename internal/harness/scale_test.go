package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// --- scheduler ---

func TestSchedulerBoundsConcurrency(t *testing.T) {
	s := newScheduler(3)
	var ran atomic.Int64
	tasks := make([]task, 20)
	for i := range tasks {
		tasks[i].run = func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}
	}
	s.run(tasks)
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d tasks, want 20", got)
	}
	if peak := s.peakConcurrency(); peak < 1 || peak > 3 {
		t.Fatalf("peak concurrency %d, want within [1, 3]", peak)
	}
}

// TestSchedulerSharedBoundAcrossCallers verifies the slot pool is a global
// bound: two concurrent run calls together never exceed the size.
func TestSchedulerSharedBoundAcrossCallers(t *testing.T) {
	s := newScheduler(2)
	mk := func() []task {
		tasks := make([]task, 8)
		for i := range tasks {
			tasks[i].run = func() { time.Sleep(time.Millisecond) }
		}
		return tasks
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(mk())
		}()
	}
	wg.Wait()
	if peak := s.peakConcurrency(); peak > 2 {
		t.Fatalf("peak concurrency %d across concurrent callers, want <= 2", peak)
	}
}

func TestSchedulerEmptyAndZeroSize(t *testing.T) {
	newScheduler(0).run(nil) // must not hang or panic
	s := newScheduler(-1)
	if s.size() != 1 {
		t.Fatalf("size = %d, want floor 1", s.size())
	}
}

func TestSchedulerHeapWatermark(t *testing.T) {
	s := newScheduler(2)
	s.resetPeak()
	var sink [][]byte
	s.run([]task{{run: func() {
		sink = append(sink, make([]byte, 8<<20))
	}}})
	if got := s.peakHeapBytes(); got < 8<<20 {
		t.Fatalf("heap watermark %d after an 8 MiB allocation, want >= 8 MiB", got)
	}
	_ = sink
}

func TestSweepStatsFooterRendersMemory(t *testing.T) {
	s := SweepStats{PeakHeapBytes: 5 << 20}
	if f := s.Footer(); !strings.Contains(f, "heap peak 5.0 MiB") {
		t.Fatalf("footer missing heap peak: %q", f)
	}
}

// TestMatrixSweepNeverExceedsPool is the scheduler-bound regression test
// the bugfix exists for: a full-registry matrix sweep used to launch one
// goroutine (and one live cluster simulation) per framework x workload x
// block x {traced, untraced}; now the instrumented peak must stay at or
// under the shared pool size.
func TestMatrixSweepNeverExceedsPool(t *testing.T) {
	sched.resetPeak()
	if _, err := MatrixSweep(MatrixSmokeOptions()); err != nil {
		t.Fatal(err)
	}
	peak := sched.peakConcurrency()
	if peak < 1 {
		t.Fatal("scheduler saw no tasks")
	}
	if peak > PoolSize() {
		t.Fatalf("peak concurrent simulations %d exceeded pool size %d", peak, PoolSize())
	}
}

func TestScaleSweepNeverExceedsPool(t *testing.T) {
	o := LadderSmokeOptions()
	sched.resetPeak()
	if _, err := Sweep(RankAxis, framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.N1Strided), o); err != nil {
		t.Fatal(err)
	}
	if peak := sched.peakConcurrency(); peak < 1 || peak > PoolSize() {
		t.Fatalf("peak concurrent simulations %d, want within [1, %d]", peak, PoolSize())
	}
}

// --- scaling sweep ---

func TestParseScaleMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ScaleMode
		ok   bool
	}{
		{"weak", WeakScaling, true},
		{"Strong", StrongScaling, true},
		{" strong ", StrongScaling, true},
		{"", WeakScaling, true},
		{"linear", WeakScaling, false},
	} {
		got, ok := ParseScaleMode(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseScaleMode(%q) = %v, %v", c.in, got, ok)
		}
	}
	if WeakScaling.String() != "weak" || StrongScaling.String() != "strong" {
		t.Fatal("ScaleMode.String mismatch")
	}
}

func TestRankLadder(t *testing.T) {
	o := Options{MaxRanks: 512}
	want := []int64{4, 8, 16, 32, 64, 128, 256, 512}
	got := RankAxis.Rungs(o)
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	// A top rung off the doubling grid is still included.
	o.MaxRanks = 48
	got = RankAxis.Rungs(o)
	if got[len(got)-1] != 48 || got[len(got)-2] != 32 {
		t.Fatalf("off-grid ladder = %v", got)
	}
	// Zero defaults.
	if top := RankAxis.Rungs(Options{}); top[len(top)-1] != defaultMaxRanks {
		t.Fatalf("default ladder top = %d", top[len(top)-1])
	}
}

func TestScaleSweepWeakShape(t *testing.T) {
	o := LadderSmokeOptions()
	res, err := Sweep(RankAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
	if err != nil {
		t.Fatal(err)
	}
	ladder := RankAxis.Rungs(o)
	if len(res.Points) != len(ladder) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(ladder))
	}
	for i, p := range res.Points {
		if p.Rung != ladder[i] {
			t.Fatalf("point %d ranks = %d, want %d", i, p.Rung, ladder[i])
		}
		// Weak scaling: per-rank volume is constant along the ladder.
		if p.PerRankBytes != o.PerRankBytes {
			t.Fatalf("weak per-rank = %d at %d ranks, want %d", p.PerRankBytes, p.Rung, o.PerRankBytes)
		}
		// ltrace-style interposition must cost elapsed time at every rung.
		if p.ElapsedOvhFrac <= 0 {
			t.Fatalf("no overhead at %d ranks", p.Rung)
		}
		if p.TraceEvents == 0 {
			t.Fatalf("no events traced at %d ranks", p.Rung)
		}
	}
	out := res.Format()
	for _, want := range []string{"weak scaling", "ranks", "elapsed ovh %", "LANL-Trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "ranks,") || strings.Count(csv, "\n") != len(ladder)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestScaleSweepStrongHalvesPerRank(t *testing.T) {
	o := LadderSmokeOptions()
	o.ScaleMode = StrongScaling
	res, err := Sweep(RankAxis, framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.NToN), o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.Rung == prev.Rung*2 && cur.PerRankBytes > prev.PerRankBytes {
			t.Fatalf("strong scaling per-rank grew: %d ranks = %d bytes, %d ranks = %d bytes",
				prev.Rung, prev.PerRankBytes, cur.Rung, cur.PerRankBytes)
		}
	}
	if !strings.Contains(res.Format(), "strong scaling") {
		t.Fatal("format missing mode")
	}
	checkGolden(t, "scale_strong_tracefs_nn.txt", res.Format())
	checkGolden(t, "scale_strong_tracefs_nn.csv", res.CSV())
}

// TestScaleSweepDeterministic runs the same sweep twice and requires
// byte-identical rendering: rungs run concurrently on the scheduler, so
// each must be an independently seeded simulation with no shared state.
func TestScaleSweepDeterministic(t *testing.T) {
	o := LadderSmokeOptions()
	run := func() string {
		res, err := Sweep(RankAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scale sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestScaleSweepDeterministic4096 is the batched-wake determinism test at
// ladder scale: two identical single-framework sweeps to a 4096-rank top
// rung, each against a fresh cache, must render byte-identically. The
// batched drain events (Mailbox.Put, a rank's arrivals, the mpi.join's
// wake) and the event-chain server paths carry no hidden iteration-order
// or timing dependence, however many waiters one instant accumulates at
// 4096 ranks. Under -race (CI's determinism step) or -short the top rung drops
// to 1024 so the race-detector run stays affordable; the plain `go test`
// run exercises the full 4096 ladder.
func TestScaleSweepDeterministic4096(t *testing.T) {
	o := LadderOptions()
	o.MaxRanks = 4096
	o.PerRankBytes = 256 << 10
	if raceEnabled || testing.Short() {
		o.MaxRanks = 1024
	}
	run := func() string {
		res, err := Sweep(RankAxis, framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("4096-rank scale sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestScaleMatrixCoversRegistry(t *testing.T) {
	o := LadderSmokeOptions()
	o.MaxRanks = 8
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	m, err := SeriesMatrixSweep(RankAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) != len(framework.Names()) {
		t.Fatalf("series = %d, want %d", len(m.Series), len(framework.Names()))
	}
	for i, name := range framework.Names() {
		if m.Series[i].Framework != name {
			t.Fatalf("series %d framework = %q, want %q", i, m.Series[i].Framework, name)
		}
		if len(m.Series[i].Points) != len(RankAxis.Rungs(o)) {
			t.Fatalf("series %d has %d points", i, len(m.Series[i].Points))
		}
	}
	out := m.Format()
	if !strings.Contains(out, "scaling matrix") || strings.Count(out, "# scale:") != len(m.Series) {
		t.Fatalf("matrix format:\n%s", out)
	}
	checkGolden(t, "scale_matrix_smoke.txt", out)
	var csv strings.Builder
	for _, s := range m.Series {
		csv.WriteString("# " + s.Framework + "\n" + s.CSV())
	}
	checkGolden(t, "scale_matrix_smoke.csv", csv.String())
}

func TestStrongScaleFloorsAtOneBlock(t *testing.T) {
	sc := workload.StrongScale(64<<10, 1<<20, 1024)
	if sc.Objects() != 1 {
		t.Fatalf("objects = %d, want floor 1", sc.Objects())
	}
	if got := sc.TotalBytes(1024); got != 1024*(64<<10) {
		t.Fatalf("realized total = %d", got)
	}
	weak := workload.WeakScale(64<<10, 1<<20)
	if weak.Objects() != 16 || weak.TotalBytes(8) != 8<<20 {
		t.Fatalf("weak scale: objects=%d total=%d", weak.Objects(), weak.TotalBytes(8))
	}
}
