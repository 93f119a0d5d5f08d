// Replayfidelity: the //TRACE pipeline end to end, sweeping the sampling
// knob to show the fidelity/overhead trade-off the paper describes:
// "//TRACE provides for user-control over replay accuracy by using sampling
// for their node-throttling technique", with elapsed overhead "ranging
// between ~0% to 205%" and replay fidelity "as low as 6%".
package main

import (
	"bytes"
	"fmt"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

func main() {
	const ranks = 8
	factory := func() *cluster.Cluster {
		cfg := cluster.Default()
		cfg.ComputeNodes = ranks
		return cluster.New(cfg)
	}
	params := workload.Params{
		Pattern:      workload.N1Strided,
		BlockSize:    256 << 10,
		NObj:         8,
		Path:         "/pfs/app.out",
		BarrierEvery: 2,
	}
	program := func(p *sim.Proc, r *mpi.Rank) { workload.Program(p, r, params, nil) }

	fmt.Printf("%8s %6s %12s %8s %16s %16s\n",
		"sampled", "runs", "overhead %", "deps", "replay elapsed", "fidelity err %")
	for _, sampled := range []int{0, 1, 2, 4, ranks} {
		cfg := partrace.DefaultConfig()
		cfg.SampledRanks = sampled
		gen, err := partrace.New(cfg).Generate(factory, program)
		if err != nil {
			panic(err)
		}
		res, err := replay.Execute(factory(), gen.Trace)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%8d %6d %12.0f %8d %16v %16.1f\n",
			sampled, gen.Runs, gen.OverheadFrac()*100, gen.DepCount,
			res.Elapsed, replay.Fidelity(gen.Trace.OriginalElapsed, res.Elapsed)*100)
	}

	// Show that the replayable trace is a portable, human-readable
	// artifact: serialize, parse back, and verify the replayed application
	// reproduces the original I/O signature byte for byte.
	cfg := partrace.DefaultConfig()
	cfg.SampledRanks = ranks
	gen, err := partrace.New(cfg).Generate(factory, program)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := gen.Trace.WriteText(&buf); err != nil {
		panic(err)
	}
	fmt.Printf("\nreplayable trace: %d bytes of human-readable text; first lines:\n", buf.Len())
	for i, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if i > 5 {
			fmt.Println("...")
			break
		}
		fmt.Printf("  %s\n", line)
	}

	parsed, err := replay.ParseText(&buf)
	if err != nil {
		panic(err)
	}
	orig := factory()
	params.Spec().Run(orig.World)
	oSize, oDigest, oWrites, _ := orig.PFS.Snapshot(params.Path)
	rep := factory()
	if _, err := replay.Execute(rep, parsed); err != nil {
		panic(err)
	}
	rSize, rDigest, rWrites, _ := rep.PFS.Snapshot(params.Path)
	fmt.Printf("\nI/O signature: original (size=%d digest=%x writes=%d)\n", oSize, oDigest, oWrites)
	fmt.Printf("               replayed (size=%d digest=%x writes=%d)\n", rSize, rDigest, rWrites)
	if oSize == rSize && oDigest == rDigest && oWrites == rWrites {
		fmt.Println("               identical - the pseudo-application reproduces the original I/O")
	}
}
