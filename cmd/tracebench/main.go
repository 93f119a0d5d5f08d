// Command tracebench regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	tracebench                  # everything, scaled-down sizes
//	tracebench -exp fig2        # one experiment
//	tracebench -exp fig2 -csv   # CSV series for plotting
//	tracebench -full            # paper-scale data volumes (slow)
//	tracebench -bench-json BENCH_sweep.json   # cold/warm cache benchmark
//	tracebench -bench-codec BENCH_codec.json  # v1 vs v2 trace codec benchmark
//
// Experiments: fig1 fig2 fig3 fig4 overheads elapsed tracefs ptrace
// collective matrix scaling servers table1 table2 all. The matrix and
// table2 experiments sweep every registered framework (see
// internal/framework) against every registered workload scenario (see
// internal/workload); use -quick to keep them CI-friendly, or -workload to
// restrict the workload axis. The scaling experiment holds block size fixed
// and sweeps rank counts (-max-ranks, -scale-mode weak|strong,
// -ranks-per-node for multi-rank placement) for every registered framework;
// the servers experiment fixes the job and sweeps the parallel file
// system's object server count instead (-max-servers). Both default to the
// N-1 strided workload; -workload all sweeps the whole registry.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iotaxo/internal/core"
	"iotaxo/internal/harness"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig1..fig4, overheads, elapsed, tracefs, ptrace, collective, matrix, scaling, servers, table1, table2, all)")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables (figures and scaling)")
	full := flag.Bool("full", false, "paper-scale data volumes (very slow)")
	quick := flag.Bool("quick", false, "tiny volumes (CI-friendly)")
	ranks := flag.Int("ranks", 0, "override rank count")
	mode := flag.String("mode", "ltrace", "LANL-Trace mode for overhead runs: strace | ltrace")
	seed := flag.Int64("seed", 1, "simulation seed")
	wlName := flag.String("workload", "", "restrict matrix/table2/scaling to one registered workload (default: all; scaling: N-1 strided, 'all' for the registry)")
	scaleMode := flag.String("scale-mode", "weak", "scaling mode for -exp scaling: weak | strong")
	maxRanks := flag.Int("max-ranks", 0, "top rung of the -exp scaling rank ladder, e.g. 4096 (default 512, 16 with -quick)")
	maxServers := flag.Int("max-servers", 0, "top rung of the -exp servers object-server ladder (default 16, 4 with -quick)")
	ranksPerNode := flag.Int("ranks-per-node", 1, "MPI ranks placed per compute node for -exp scaling/servers (placement axis)")
	cacheDir := flag.String("cache-dir", harness.DefaultCacheDir(), "directory for the persisted simulation-result cache (empty = in-memory only)")
	noCache := flag.Bool("no-cache", false, "disable the persisted simulation-result cache (in-run baseline sharing still applies)")
	benchJSON := flag.String("bench-json", "", "run the cold/warm cache benchmark and write the snapshot to this file, then exit (nonzero if warm output diverges)")
	benchLadder := flag.String("bench-ladder", "", "run the rank-ladder benchmark (wall time + peak heap per rung up to -max-ranks, default 65536) and write the JSON snapshot to this file, then exit")
	benchCodec := flag.String("bench-codec", "", "run the trace-codec benchmark (v1 vs v2 size, scan throughput, index pruning) and write the JSON snapshot to this file, then exit (nonzero on a format regression)")
	poolMem := flag.String("pool-mem", "", "memory budget for the simulation worker pool, e.g. 2GB or 512MB (empty = unlimited)")
	flag.Parse()

	if budget, err := harness.ParseMemBudget(*poolMem); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
		os.Exit(2)
	} else {
		harness.SetPoolMemBudget(budget)
	}

	if *benchLadder != "" {
		runBenchLadder(*benchLadder, *maxRanks)
		return
	}
	if *benchCodec != "" {
		runBenchCodec(*benchCodec)
		return
	}
	if *benchJSON != "" {
		runBench(*benchJSON)
		return
	}

	cache := harness.NewCache(*cacheDir)
	if *noCache {
		cache = harness.NewCache("")
	}

	o := harness.DefaultOptions()
	if *full {
		o = harness.FullOptions()
	}
	if *quick {
		o = harness.QuickOptions()
	}
	if *ranks > 0 {
		o.Ranks = *ranks
	}
	if *mode == "strace" {
		o.Mode = lanltrace.ModeStrace
	}
	o.Seed = *seed
	o.Cache = cache
	if *wlName != "" && *wlName != "all" {
		w, ok := workload.ByName(*wlName)
		if !ok {
			fmt.Fprintf(os.Stderr, "tracebench: unknown workload %q (have all, %s)\n",
				*wlName, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
		o.Workloads = []workload.Workload{w}
	}

	// The ladder experiments have their own options: block size held
	// fixed, one testbed axis swept instead — ranks (scaling) or PFS object
	// servers (servers).
	ladder := func(id string, ax harness.Axis) harness.SeriesMatrix {
		base := harness.LadderOptions()
		if *quick {
			base = harness.LadderSmokeOptions()
		}
		if *full {
			// Paper-scale per-rank volume; with the default 512-rank ladder
			// this is an overnight run, like -full everywhere else.
			base.PerRankBytes = harness.FullOptions().PerRankBytes
		}
		base.Seed = *seed
		base.Cache = cache
		lo, err := harness.ResolveLadderOptions(base, *scaleMode, *maxRanks, *maxServers, *ranks, *ranksPerNode, *wlName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracebench: %v\n", err)
			os.Exit(2)
		}
		res, err := harness.SeriesMatrixSweep(ax, lo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracebench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, res.Stats.Footer())
		return res
	}

	// matrix and table2 render the same MatrixSweep; compute it once when
	// -exp all asks for both.
	var matrixCache *harness.MatrixResult
	matrix := func() harness.MatrixResult {
		if matrixCache == nil {
			m, err := harness.MatrixSweep(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tracebench: matrix: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, m.Stats.Footer())
			matrixCache = &m
		}
		return *matrixCache
	}

	run := func(id string) {
		switch id {
		case "fig1":
			f1 := harness.Figure1(o)
			fmt.Println("# Figure 1: LANL-Trace sample outputs")
			fmt.Println("\n## Raw Trace Data (rank 0, first lines)")
			fmt.Print(f1.Raw)
			fmt.Println("\n## Aggregate Timing Information")
			fmt.Print(f1.Timing)
			fmt.Println("\n## Call Summary")
			fmt.Print(f1.Summary)
		case "fig2":
			emitFigure(harness.Figure2(o), *csv)
		case "fig3":
			emitFigure(harness.Figure3(o), *csv)
		case "fig4":
			emitFigure(harness.Figure4(o), *csv)
		case "overheads":
			fmt.Print(harness.InTextOverheads(o).Format())
		case "elapsed":
			fmt.Print(harness.ElapsedRange(o).Format())
		case "tracefs":
			fmt.Print(harness.TracefsExperiment(o).Format())
		case "ptrace":
			fmt.Print(harness.ParallelTraceExperiment(o).Format())
		case "collective":
			fmt.Print(harness.CollectiveAblation(o).Format())
		case "matrix":
			fmt.Println("# Framework x workload overhead matrix (every registered framework x every registered workload)")
			fmt.Print(matrix().Format())
		case "scaling", "servers":
			ax, heading := harness.RankAxis, "ranks"
			if id == "servers" {
				ax, heading = harness.ServerAxis, "PFS object servers"
			}
			res := ladder(id, ax)
			if *csv {
				for _, s := range res.Series {
					fmt.Printf("# %s on %s (%s%s)\n%s", s.Framework, s.Workload, s.Setting, s.Placement(), s.CSV())
				}
				return
			}
			fmt.Printf("# Overhead vs %s (every registered framework)\n", heading)
			fmt.Print(res.Format())
		case "table1":
			fmt.Println("# Table 1: summary table template")
			fmt.Print(core.Table1Template())
		case "table2":
			fmt.Println("# Table 2: classification summary with measured overheads (every registered framework)")
			fmt.Print(matrix().RenderComparison())
		default:
			fmt.Fprintf(os.Stderr, "tracebench: unknown experiment %q\n", id)
			os.Exit(2)
		}
	}

	if *exp == "all" {
		for _, id := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "overheads", "elapsed", "tracefs", "ptrace", "collective", "matrix", "scaling", "servers", "table2"} {
			fmt.Printf("\n%s\n", strings.Repeat("=", 78))
			run(id)
		}
		return
	}
	run(*exp)
}

// runBench measures the memoizing sweep engine itself: a cold then warm
// full-registry matrix smoke sweep against a fresh cache, written as one
// JSON snapshot (the in-repo BENCH_sweep.json trajectory point). Exits
// nonzero if the warm run diverged from the cold run — a caching bug, not
// a performance regression.
func runBench(path string) {
	snap, err := harness.BenchSweep()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, []byte(snap.JSON()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "# bench: cold %.0fms (%d executed), warm %.0fms (%d executed, %d cached), identical=%v -> %s\n",
		snap.Cold.WallMS, snap.Cold.Executed, snap.Warm.WallMS, snap.Warm.Executed,
		snap.Warm.MemHits+snap.Warm.DiskHits, snap.Identical, path)
	if !snap.Identical {
		fmt.Fprintln(os.Stderr, "tracebench: bench: warm sweep output diverged from cold sweep")
		os.Exit(1)
	}
}

// runBenchLadder measures the engine's rank-scaling trajectory: the
// single-cell ladder timed rung by rung (wall time + peak heap), written as
// the in-repo BENCH_ladder.json snapshot. maxRanks caps the top rung (0 =
// the full 65536-rank ladder); CI runs the 16384 smoke.
func runBenchLadder(path string, maxRanks int) {
	if maxRanks <= 0 {
		maxRanks = 65536
	}
	snap, err := harness.BenchLadder(maxRanks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench-ladder: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, []byte(snap.JSON()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench-ladder: %v\n", err)
		os.Exit(1)
	}
	for _, r := range snap.Rungs {
		fmt.Fprintf(os.Stderr, "# ladder: %6d ranks  %9.0f ms  heap peak %7.1f MB\n", r.Ranks, r.WallMS, r.PeakHeapMB)
	}
	fmt.Fprintf(os.Stderr, "# ladder: %d rungs (%s on %s, %s scaling) -> %s\n",
		len(snap.Rungs), snap.Framework, snap.Workload, snap.Mode, path)
}

// runBenchCodec measures the two trace codecs against each other on the
// full-registry matrix streams and probes the v2 block index, written as the
// in-repo BENCH_codec.json snapshot. Exits nonzero if a run fails or the
// snapshot misses an acceptance bar (size ratio, pruning fraction) — a
// format regression, not a performance blip.
func runBenchCodec(path string) {
	snap, err := harness.BenchCodec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench-codec: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, []byte(snap.JSON()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench-codec: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "# codec: %d records, v1 %.1f B/rec, v2 %.1f B/rec (%.2fx, %.2fx deflated); index decoded %d/%d blocks; passed=%v -> %s\n",
		snap.TotalRecords, snap.V1PerRecord, snap.V2PerRecord, snap.SizeRatio, snap.SizeRatioComp,
		snap.IndexDecoded, snap.IndexBlocks, snap.Passed, path)
	if !snap.Passed {
		fmt.Fprintln(os.Stderr, "tracebench: bench-codec: snapshot failed an acceptance bar")
		os.Exit(1)
	}
}

func emitFigure(fig harness.Series, csv bool) {
	if csv {
		fmt.Print(fig.CSV())
		return
	}
	fmt.Print(fig.Format())
}
