// Quickstart: build a small simulated cluster, run an MPI-IO application
// under LANL-Trace, and print the three outputs the framework produces
// (Figure 1 of the paper): raw per-process traces, aggregate barrier timing
// for skew/drift accounting, and the call summary.
package main

import (
	"fmt"
	"maps"
	"slices"

	"iotaxo/internal/cluster"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
)

func main() {
	// A 4-node testbed: gigabit network, RAID-5 parallel file system,
	// per-node clocks with realistic skew and drift.
	cfg := cluster.Small()
	c := cluster.New(cfg)

	// The application: every rank writes four 64 KiB blocks to a shared
	// file at rank-strided offsets, bracketed by barriers.
	app := func(p *sim.Proc, r *mpi.Rank) {
		r.Init(p)
		r.Barrier(p)
		f, err := r.FileOpen(p, "/pfs/quickstart.out", mpi.ModeCreate|mpi.ModeWronly)
		if err != nil {
			panic(err)
		}
		for i := 0; i < 4; i++ {
			off := int64(i*c.Ranks()+r.RankID()) * 65536
			if _, err := f.WriteAt(p, off, 65536); err != nil {
				panic(err)
			}
		}
		f.Close(p)
		r.Barrier(p)
	}

	// Trace it with LANL-Trace in ltrace mode (library + system calls).
	fw := lanltrace.New(lanltrace.DefaultConfig())
	rep := fw.Run(c.World, "/quickstart.exe", app)

	fmt.Println("=== Raw trace data (rank 0) ===")
	fmt.Print(rep.RawTraceText(0))

	fmt.Println("\n=== Aggregate timing information ===")
	fmt.Print(rep.AggregateTimingText())

	fmt.Println("\n=== Call summary ===")
	fmt.Print(rep.CallSummaryText())

	// The timing job exists to correct clock skew and drift: show the
	// per-node estimates it yields.
	fmt.Println("\n=== Clock estimates from the barrier timing job ===")
	est, err := rep.ClockEstimates()
	if err != nil {
		panic(err)
	}
	for _, node := range slices.Sorted(maps.Keys(est)) {
		fmt.Printf("%-18s %v\n", node, est[node])
	}

	fmt.Printf("\napplication elapsed (traced): %v, trace volume: %d bytes in %d events\n",
		rep.Elapsed, rep.TraceBytes, rep.TraceEvents)
}
