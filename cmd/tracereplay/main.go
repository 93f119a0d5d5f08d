// Command tracereplay drives the //TRACE pipeline end to end: trace a
// parallel application with throttling-based dependency discovery, save the
// replayable trace, replay it as a pseudo-application on a fresh simulated
// cluster, and report replay fidelity.
//
// Usage:
//
//	tracereplay -np 8 -sampled 2 -o app.trace
//	tracereplay -replay app.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

func main() {
	np := flag.Int("np", 8, "number of MPI ranks")
	sampled := flag.Int("sampled", 2, "ranks probed with throttling (-1 = all)")
	size := flag.Int64("size", 256<<10, "bytes per write call")
	nobj := flag.Int("nobj", 8, "objects per rank")
	barrierEvery := flag.Int("barrier-every", 2, "barrier every k objects")
	out := flag.String("o", "", "write the replayable trace to this file")
	replayPath := flag.String("replay", "", "replay an existing trace file instead of generating one")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracereplay: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}

	factory := func() *cluster.Cluster {
		cfg := cluster.Default()
		cfg.ComputeNodes = *np
		cfg.Seed = *seed
		return cluster.New(cfg)
	}

	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			fail(err)
		}
		tr, err := replay.ParseText(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		res, err := replay.Execute(factory(), tr)
		if err != nil {
			fail(err)
		}
		fmt.Printf("replayed %d ops across %d ranks\n", tr.OpCount(), tr.Ranks)
		fmt.Printf("original elapsed : %v\n", tr.OriginalElapsed)
		fmt.Printf("replayed elapsed : %v\n", res.Elapsed)
		fmt.Printf("fidelity error   : %.1f%%\n", replay.Fidelity(tr.OriginalElapsed, res.Elapsed)*100)
		return
	}

	params := workload.Params{
		Pattern:      workload.N1Strided,
		BlockSize:    *size,
		NObj:         *nobj,
		Path:         "/pfs/app.out",
		BarrierEvery: *barrierEvery,
	}
	program := func(p *sim.Proc, r *mpi.Rank) { workload.Program(p, r, params, nil) }

	cfg := partrace.DefaultConfig()
	cfg.SampledRanks = *sampled
	fw := partrace.New(cfg)
	fmt.Printf("generating replayable trace (%d ranks, %d probe runs)...\n", *np, *sampled)
	gen, err := fw.Generate(factory, program)
	if err != nil {
		fail(err)
	}
	fmt.Printf("application runs : %d\n", gen.Runs)
	fmt.Printf("untraced elapsed : %v\n", gen.UntracedElapsed)
	fmt.Printf("tracing elapsed  : %v (overhead %.0f%%)\n", gen.TracingElapsed, gen.OverheadFrac()*100)
	fmt.Printf("dependencies     : %d edges\n", gen.DepCount)
	fmt.Printf("trace ops        : %d\n", gen.Trace.OpCount())

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		err = gen.Trace.WriteText(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("trace written    : %s\n", *out)
	}

	res, err := replay.Execute(factory(), gen.Trace)
	if err != nil {
		fail(err)
	}
	fmt.Printf("replayed elapsed : %v\n", res.Elapsed)
	fmt.Printf("fidelity error   : %.1f%%\n", replay.Fidelity(gen.Trace.OriginalElapsed, res.Elapsed)*100)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracereplay:", err)
	os.Exit(1)
}
