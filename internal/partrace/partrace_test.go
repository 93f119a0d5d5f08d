package partrace

import (
	"bytes"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

func factory() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func skewedFactory() *cluster.Cluster {
	cfg := cluster.Small()
	return cluster.New(cfg)
}

func params() workload.Params {
	return workload.Params{
		Pattern:      workload.N1Strided,
		BlockSize:    64 << 10,
		NObj:         4,
		Path:         "/pfs/app.out",
		BarrierEvery: 1, // phase-synchronized, as checkpointing apps are
	}
}

func program(p *sim.Proc, r *mpi.Rank) {
	workload.Program(p, r, params(), nil)
}

func TestGenerateProducesValidTrace(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every rank: open + 4 writes + close = 6 ops.
	for rank, ops := range res.Trace.Ops {
		if len(ops) != 6 {
			t.Fatalf("rank %d has %d ops, want 6", rank, len(ops))
		}
		if ops[0].Kind != replay.OpOpen || ops[5].Kind != replay.OpClose {
			t.Fatalf("rank %d op kinds: %v ... %v", rank, ops[0].Kind, ops[5].Kind)
		}
		for k := 1; k <= 4; k++ {
			if ops[k].Kind != replay.OpWrite || ops[k].Bytes != 64<<10 || ops[k].Path != "/pfs/app.out" {
				t.Fatalf("rank %d op %d: %+v", rank, k, ops[k])
			}
		}
	}
}

func TestThrottlingDiscoversDependencies(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	// The workload barriers before and after I/O: throttling rank 0 must
	// shift other ranks' post-barrier ops, yielding edges.
	if res.DepCount == 0 {
		t.Fatal("no dependencies discovered despite barrier coupling")
	}
	for _, d := range res.Trace.Deps {
		if d.FromRank == d.ToRank {
			t.Fatalf("self edge: %+v", d)
		}
		if d.FromRank >= 2 {
			t.Fatalf("edge from unprobed rank: %+v (sampled 2)", d)
		}
	}
}

func TestZeroSamplingNoDepsLowOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampledRanks = 0
	fw := New(cfg)
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.DepCount != 0 || res.Runs != 1 {
		t.Fatalf("deps=%d runs=%d", res.DepCount, res.Runs)
	}
	// Single preload-instrumented run: overhead near zero (the paper: ~0%).
	if ov := res.OverheadFrac(); ov < 0 || ov > 0.10 {
		t.Fatalf("zero-sampling overhead %.1f%%, want ~0%%", ov*100)
	}
}

func TestOverheadGrowsWithSampling(t *testing.T) {
	overhead := func(sampled int) float64 {
		cfg := DefaultConfig()
		cfg.SampledRanks = sampled
		res, err := New(cfg).Generate(factory, program)
		if err != nil {
			t.Fatal(err)
		}
		return res.OverheadFrac()
	}
	o0 := overhead(0)
	o2 := overhead(2)
	o4 := overhead(4)
	if !(o0 < o2 && o2 < o4) {
		t.Fatalf("overhead not increasing: %.2f %.2f %.2f", o0, o2, o4)
	}
	// Two probes means roughly two extra runs (~200%), plus the throttle
	// tax, which weighs heavily on this deliberately tiny workload.
	if o2 < 1.0 || o2 > 7.0 {
		t.Fatalf("2-probe overhead %.0f%%, want roughly 2 extra runs", o2*100)
	}
}

func TestReplayFidelityImprovesWithDeps(t *testing.T) {
	fidelity := func(sampled int) float64 {
		cfg := DefaultConfig()
		cfg.SampledRanks = sampled
		res, err := New(cfg).Generate(factory, program)
		if err != nil {
			t.Fatal(err)
		}
		c := factory()
		rr, err := replay.Execute(c, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return replay.Fidelity(res.Trace.OriginalElapsed, rr.Elapsed)
	}
	full := fidelity(4) // probe all ranks
	if full > 0.15 {
		t.Fatalf("full-sampling fidelity error %.1f%%, want small", full*100)
	}
}

func TestTraceRoundTripsThroughText(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := replay.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OpCount() != res.Trace.OpCount() || len(got.Deps) != len(res.Trace.Deps) {
		t.Fatalf("round trip lost content: %d/%d ops, %d/%d deps",
			got.OpCount(), res.Trace.OpCount(), len(got.Deps), len(res.Trace.Deps))
	}
}

func TestReplayedEndStateMatchesOriginal(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	// Original end state.
	cOrig := factory()
	params().Spec().Run(cOrig.World)
	s1, d1, w1, _ := cOrig.PFS.Snapshot(params().Path)
	// Replayed end state.
	cRep := factory()
	if _, err := replay.Execute(cRep, res.Trace); err != nil {
		t.Fatal(err)
	}
	s2, d2, w2, _ := cRep.PFS.Snapshot(params().Path)
	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("replayed I/O signature differs: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

func TestSkewedClocksStillWork(t *testing.T) {
	// Same-node comparisons cancel skew; generation must succeed and find
	// deps even with skewed/drifting clocks.
	fw := New(DefaultConfig())
	res, err := fw.Generate(skewedFactory, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.DepCount == 0 {
		t.Fatal("skew broke dependency discovery")
	}
}

func TestClassificationMatchesPaper(t *testing.T) {
	fw := AsFramework(DefaultConfig())
	c := fw.Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bool(c.ReplayableTraces) || !bool(c.RevealsDeps) {
		t.Fatalf("classification: %+v", c)
	}
	if fw.Name() != "//TRACE" {
		t.Fatalf("name = %q", fw.Name())
	}
}

// TestSessionMatchesGenerate: the registry session and Generate share one
// pipeline, so on identical clusters the session reports the runs, edges
// and tracing time Generate does, and the replay elapsed time that
// replay.Execute gives for Generate's trace.
func TestSessionMatchesGenerate(t *testing.T) {
	gen, err := New(DefaultConfig()).Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := replay.Execute(factory(), gen.Trace)
	if err != nil {
		t.Fatal(err)
	}
	c := factory()
	if c.Ranks() != 4 {
		t.Fatalf("cell has %d ranks, want 4", c.Ranks())
	}
	rep, err := AsFramework(DefaultConfig()).Attach(c).Run(params().Spec())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ReplayMeasured {
		t.Fatal("session did not replay its trace")
	}
	if rep.Runs != gen.Runs || rep.Deps != gen.DepCount ||
		rep.TracingElapsed != gen.TracingElapsed || rep.ReplayElapsed != rr.Elapsed {
		t.Fatalf("session runs=%d deps=%d tracing=%v replay=%v; Generate runs=%d deps=%d tracing=%v replay=%v",
			rep.Runs, rep.Deps, rep.TracingElapsed, rep.ReplayElapsed,
			gen.Runs, gen.DepCount, gen.TracingElapsed, rr.Elapsed)
	}
}

// TestThrottleCoversEveryIOCall pins which calls a discovery run slows: every
// I/O call, MPI_File_sync included, but only the ones with a replay op are
// numbered as events, so event indices stay the replay trace's op indices.
func TestThrottleCoversEveryIOCall(t *testing.T) {
	env := sim.NewEnv(1)
	h := &ioHook{throttle: sim.Millisecond}
	env.Go("rank", func(p *sim.Proc) {
		for _, name := range []string{"MPI_File_open", "MPI_Barrier", "MPI_File_write_at", "MPI_File_sync", "MPI_File_close"} {
			h.Enter(p, name)
			h.Exit(p, &trace.Record{Class: trace.ClassMPI, Name: name})
		}
	})
	if end := env.Run(); end != 4*sim.Millisecond || len(h.events) != 3 {
		t.Fatalf("throttled to %v with %d events, want 4ms (4 I/O calls) and 3 events (3 ops)", end, len(h.events))
	}
}
