// Command tracebench regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	tracebench                  # everything, scaled-down sizes
//	tracebench -exp fig2        # one experiment
//	tracebench -exp fig2 -csv   # CSV series for plotting
//	tracebench -full            # paper-scale data volumes (slow)
//	tracebench -bench sweep                   # cold/warm cache benchmark -> BENCH_sweep.json
//	tracebench -bench ladder -max-ranks 16384 # rank ladder -> BENCH_ladder.json
//	tracebench -bench codec out.json          # v1 vs v2 trace codec benchmark -> out.json
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
	bench := flag.String("bench", "", "run one benchmark (sweep | ladder | codec; ladder climbs to -max-ranks, default 65536), write its JSON snapshot to the file argument (default BENCH_<name>.json), then exit (nonzero if it fails or misses a bar)")
	flag.Parse()

	if *bench == "" && flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracebench: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}
	if *bench != "" {
		if flag.NArg() > 1 {
			fmt.Fprintf(os.Stderr, "tracebench: -bench takes one file argument, got %q (flags go before it)\n", flag.Args())
			os.Exit(2)
		}
		writeBench(*bench, flag.Arg(0), *maxRanks)
		return
	}

	cache := harness.NewCache(*cacheDir)

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

// writeBench runs the named benchmark and writes its snapshot to path
// (default BENCH_<name>.json). It exits nonzero if the run fails or the
// snapshot misses a bar; a snapshot that misses one is still written.
func writeBench(name, path string, maxRanks int) {
	benches := map[string]func() (harness.Snapshot, error){
		"sweep":  harness.BenchSweep,
		"ladder": func() (harness.Snapshot, error) { return harness.BenchLadder(maxRanks) },
		"codec":  harness.BenchCodec,
	}
	run, ok := benches[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "tracebench: unknown bench %q (have sweep, ladder, codec)\n", name)
		os.Exit(2)
	}
	if path == "" {
		path = "BENCH_" + name + ".json"
	}
	snap, err := run()
	if err == nil {
		err = os.WriteFile(path, []byte(snap.JSON()), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracebench: bench %s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s; passed=%v -> %s\n", snap.Payload.Summary(), snap.Passed, path)
	for _, b := range snap.Bars {
		if !b.Pass {
			fmt.Fprintf(os.Stderr, "tracebench: bench %s: bar %s failed: %g %s %g\n", name, b.Name, b.Value, b.Op, b.Limit)
		}
	}
	if !snap.Passed {
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
