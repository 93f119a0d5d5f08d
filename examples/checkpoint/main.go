// Checkpoint: the workload class the paper's intro motivates — a parallel
// scientific application periodically dumping state to the parallel file
// system — measured untraced and under each of the three surveyed tracing
// frameworks, demonstrating the taxonomy's central trade-offs:
//
//   - LANL-Trace works out of the box but costs the most wall time;
//   - Tracefs is cheap but cannot mount over the parallel file system
//     without porting work (the paper's compatibility finding);
//   - //TRACE is cheap per run but needs extra runs to discover
//     dependencies.
package main

import (
	"errors"
	"fmt"

	"iotaxo/internal/cluster"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/pfs"
	"iotaxo/internal/sim"
	"iotaxo/internal/tracefs"
	"iotaxo/internal/vfs"
	"iotaxo/internal/workload"
)

func newCluster() *cluster.Cluster {
	cfg := cluster.Default()
	cfg.ComputeNodes = 8
	return cluster.New(cfg)
}

// checkpointParams: each rank writes 8 x 256 KiB strided blocks per
// checkpoint, with a barrier between checkpoints.
var checkpointParams = workload.Params{
	Pattern:      workload.N1Strided,
	BlockSize:    256 << 10,
	NObj:         8,
	Path:         "/pfs/checkpoint.ckpt",
	BarrierEvery: 2,
}

func program(p *sim.Proc, r *mpi.Rank) {
	workload.Program(p, r, checkpointParams, nil)
}

func main() {
	fmt.Println("checkpoint workload:", checkpointParams.CommandLine())

	// 1. Untraced baseline.
	base := checkpointParams.Spec().Run(newCluster().World)
	fmt.Printf("\n%-28s elapsed %-14v bandwidth %6.1f MB/s\n",
		"untraced:", base.Elapsed, base.BandwidthBps()/1e6)

	// 2. LANL-Trace (ltrace mode).
	c := newCluster()
	lt := lanltrace.New(lanltrace.DefaultConfig())
	rep := lt.Run(c.World, checkpointParams.CommandLine(), program)
	fmt.Printf("%-28s elapsed %-14v overhead %5.1f%%  (%d events)\n",
		"LANL-Trace (ltrace):", rep.Elapsed,
		100*float64(rep.Elapsed-base.Elapsed)/float64(base.Elapsed), rep.TraceEvents)

	// 3. Tracefs: demonstrate the compatibility finding, then measure it
	// where it does mount (on a node's local file system via ForceStack it
	// would need porting; here we show the refusal).
	pc := pfs.NewClient(c.PFS, cluster.NodeName(0))
	_, err := tracefs.Mount(pc, tracefs.DefaultConfig())
	if errors.Is(err, vfs.ErrIncompatible) {
		fmt.Printf("%-28s %v\n", "Tracefs on parallel FS:", err)
	}
	forced := tracefs.DefaultConfig()
	forced.ForceStack = true
	if _, err := tracefs.Mount(pc, forced); err == nil {
		fmt.Printf("%-28s mounts after simulated porting work (ForceStack)\n", "Tracefs (forced):")
	}

	// 4. //TRACE with two probe runs.
	pt := partrace.New(partrace.DefaultConfig())
	gen, err := pt.Generate(newCluster, program)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%-28s total %-16v overhead %5.0f%%  (%d runs, %d dependency edges)\n",
		"//TRACE (2 probes):", gen.TracingElapsed, gen.OverheadFrac()*100, gen.Runs, gen.DepCount)

	fmt.Println("\nconclusion: pick by requirement, as the taxonomy advises —")
	fmt.Println("  fast setup + parallel FS  -> LANL-Trace (pay elapsed time)")
	fmt.Println("  rich features + low cost  -> Tracefs (pay porting/installation)")
	fmt.Println("  replayable + dependencies -> //TRACE (pay extra runs)")
}
