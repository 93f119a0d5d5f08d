package harness

import (
	"runtime"
	"testing"

	"iotaxo/internal/framework"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

// watermark samples the runtime goroutine population and the simulation's
// live process count on a virtual-time tick for the whole run, recording the
// peaks. The tick re-arms itself only while other events remain queued, so
// it never keeps the event loop alive on its own.
func watermark(env *sim.Env, peakGoroutines, peakLive *int) {
	watermarkEvery(env, 50*sim.Microsecond, peakGoroutines, peakLive)
}

// watermarkEvery is watermark with a chosen sampling period: the 65536-rank
// run uses a coarser tick so sampling does not dominate its wall time.
func watermarkEvery(env *sim.Env, period sim.Duration, peakGoroutines, peakLive *int) {
	baseline := runtime.NumGoroutine()
	var tick func()
	tick = func() {
		if g := runtime.NumGoroutine() - baseline; g > *peakGoroutines {
			*peakGoroutines = g
		}
		if l := env.LiveProcs(); l > *peakLive {
			*peakLive = l
		}
		if env.Pending() > 0 {
			env.After(period, tick)
		}
	}
	env.After(0, tick)
}

// TestGoroutineWatermark512Ranks is the scalability regression test behind
// the eventized network path: during a full 512-rank matrix cell (untraced
// run plus a traced LANL-Trace run at the scaling ladder's default top
// rung), live goroutines must stay bounded by the simulated process count —
// O(procs), not O(messages) — and message delivery must spawn no
// net.courier process at all. The retired goroutine-per-message engine
// allocated one goroutine and one resume channel per in-flight message,
// which is what kept the 4096-rank ladder out of reach.
func TestGoroutineWatermark512Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("512-rank watermark run skipped in -short mode")
	}
	const ranks = 512
	o := LadderOptions()
	o.Ranks = ranks
	w := workload.PatternWorkload(workload.N1Strided)
	sc := o.scaleRung(ranks)

	// The bound: every simulated process owns one goroutine, so the
	// runtime population above baseline may exceed the live-proc peak only
	// by a small constant (test harness, GC workers). The proc population
	// itself must be a small multiple of ranks + servers, however many
	// messages are in flight (~16 objects x several PFS round trips per
	// rank here).
	const procSlack = 64
	procBound := 4*ranks + 256

	// Untraced half of the matrix cell.
	{
		c := o.newCluster()
		var peakG, peakLive int
		watermark(c.Env, &peakG, &peakLive)
		res := w.Run(c.World, sc)
		if res.Ranks != ranks {
			t.Fatalf("untraced run covered %d ranks, want %d", res.Ranks, ranks)
		}
		verifyWatermark(t, "untraced", c.Env, peakG, peakLive, procBound, procSlack)
	}

	// Traced half: LANL-Trace, the costliest (most message-intensive)
	// single-run framework.
	{
		c := o.newCluster()
		var peakG, peakLive int
		watermark(c.Env, &peakG, &peakLive)
		rep, err := framework.MustLookup("LANL-Trace").Attach(c).Run(w.Spec(sc))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TraceEvents == 0 {
			t.Fatal("traced run produced no events")
		}
		verifyWatermark(t, "traced", c.Env, peakG, peakLive, procBound, procSlack)
	}
}

// TestSpawnGuardMatrixCell is the spawn-regression guard: a full matrix
// cell (untraced baseline plus a traced LANL-Trace run) must spawn exactly
// the processes the workload itself owns — one mpi.rank per rank and one
// mpi.join — and nothing else. Every infrastructure path is a pure event
// chain now: message delivery (retired net.courier), PFS request service
// (retired <node>.worker), metadata service, RAID fan-out (retired raid.io
// children), and client I/O fan-out. This test is what keeps per-request
// and per-message goroutines from silently creeping back in.
func TestSpawnGuardMatrixCell(t *testing.T) {
	const ranks = 256
	o := LadderOptions()
	o.Ranks = ranks
	w := workload.PatternWorkload(workload.N1Strided)
	sc := o.scaleRung(ranks)

	check := func(name string, env *sim.Env) {
		t.Helper()
		spawns := env.Spawns()
		for spawn, n := range spawns {
			if spawn != "mpi.rank" && spawn != "mpi.join" {
				t.Errorf("%s: %d %q procs spawned; infrastructure must spawn none", name, n, spawn)
			}
		}
		if got := spawns["mpi.rank"]; got != ranks {
			t.Errorf("%s: %d mpi.rank procs, want %d", name, got, ranks)
		}
		if total := env.TotalSpawned(); total != ranks+1 {
			t.Errorf("%s: %d total spawns, want ranks+1 = %d (spawns: %v)",
				name, total, ranks+1, spawns)
		}
	}

	{
		c := o.newCluster()
		res := w.Run(c.World, sc)
		if res.Ranks != ranks {
			t.Fatalf("untraced run covered %d ranks, want %d", res.Ranks, ranks)
		}
		check("untraced", c.Env)
	}
	{
		c := o.newCluster()
		rep, err := framework.MustLookup("LANL-Trace").Attach(c).Run(w.Spec(sc))
		if err != nil {
			t.Fatal(err)
		}
		if rep.TraceEvents == 0 {
			t.Fatal("traced run produced no events")
		}
		check("traced", c.Env)
	}
}

// TestGoroutineWatermark65536Ranks is the scaling-ladder acceptance test:
// the 65536-rank single-cell run must complete with the goroutine
// population explained entirely by the workload's own rank processes. The
// simulator infrastructure — nodes, object servers, the metadata server,
// the network, the RAID arrays — contributes zero resident goroutines and
// zero spawns at any rank count: total spawns are exactly ranks+1 (the rank
// programs plus mpi.join), so everything beyond the programs themselves is
// O(nodes+servers) state on the event heap, not goroutines.
func TestGoroutineWatermark65536Ranks(t *testing.T) {
	if testing.Short() {
		t.Skip("65536-rank watermark run skipped in -short mode")
	}
	const ranks = 65536
	o := LadderOptions()
	o.Ranks = ranks
	w := workload.PatternWorkload(workload.N1Strided)
	sc := o.scaleRung(ranks)

	c := o.newCluster()
	var peakG, peakLive int
	watermarkEvery(c.Env, sim.Millisecond, &peakG, &peakLive)
	res := w.Run(c.World, sc)
	if res.Ranks != ranks {
		t.Fatalf("run covered %d ranks, want %d", res.Ranks, ranks)
	}
	// One goroutine per live simulated process plus a small constant; the
	// proc population is the rank programs plus mpi.join, nothing per
	// message, request, or waiter wake.
	const procSlack = 64
	verifyWatermark(t, "untraced", c.Env, peakG, peakLive, ranks+procSlack, procSlack)
	if total := c.Env.TotalSpawned(); total != ranks+1 {
		t.Fatalf("%d total spawns, want ranks+1 = %d (spawns: %v)",
			total, ranks+1, c.Env.Spawns())
	}
}

func verifyWatermark(t *testing.T, name string, env *sim.Env, peakG, peakLive, procBound, procSlack int) {
	t.Helper()
	t.Logf("%s: peak live procs %d, peak goroutines above baseline %d", name, peakLive, peakG)
	if peakLive == 0 {
		t.Fatalf("%s: watermark sampled no live procs", name)
	}
	if peakLive > procBound {
		t.Fatalf("%s: peak live procs %d exceeds O(procs) bound %d", name, peakLive, procBound)
	}
	if peakG > peakLive+procSlack {
		t.Fatalf("%s: peak goroutines %d not bounded by live procs %d + %d",
			name, peakG, peakLive, procSlack)
	}
	if couriers := env.Spawned("net.courier"); couriers != 0 {
		t.Fatalf("%s: %d net.courier procs spawned, want 0", name, couriers)
	}
}
