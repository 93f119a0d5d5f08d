// Command mpi-io-test is the simulated counterpart of LANL's mpi_io_test
// synthetic benchmark, with the same core parameters the paper's Figure 1
// shows (-type, -strided, -size, -nobj), extended with a tracer selector.
//
// Usage:
//
//	mpi-io-test -np 32 -strided 1 -size 65536 -nobj 64
//	mpi-io-test -np 32 -type 2 -size 1048576 -nobj 16 -tracer ltrace -show summary
package main

import (
	"flag"
	"fmt"
	"os"

	"iotaxo/internal/analysis"
	"iotaxo/internal/cluster"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/multilayer"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

func main() {
	np := flag.Int("np", 32, "number of MPI ranks (one per node)")
	typ := flag.Int("type", 1, "1 = shared file (N-1), 2 = file per process (N-N)")
	strided := flag.Int("strided", 0, "1 = strided placement within the shared file")
	size := flag.Int64("size", 65536, "bytes per write call")
	nobj := flag.Int("nobj", 16, "objects written per rank")
	barrier := flag.Int("barrier-every", 0, "insert a barrier every k objects (0 = none)")
	collective := flag.Bool("collective", false, "use MPI_File_write_at_all (two-phase collective I/O)")
	readBack := flag.Bool("readback", false, "read every object back after the write phase")
	tracer := flag.String("tracer", "none", "tracer: none | strace | ltrace | multilayer")
	show := flag.String("show", "", "with a tracer: raw | timing | summary (comma separated)")
	traceOut := flag.String("trace-out", "", "with a tracer: directory for per-rank raw trace files")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpi-io-test: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}

	pattern := workload.N1NonStrided
	switch {
	case *typ == 2:
		pattern = workload.NToN
	case *strided == 1:
		pattern = workload.N1Strided
	}
	params := workload.Params{
		Pattern:      pattern,
		BlockSize:    *size,
		NObj:         *nobj,
		Path:         "/pfs/mpi_io_test.out",
		BarrierEvery: *barrier,
		Collective:   *collective,
		ReadBack:     *readBack,
	}

	spec := params.Spec()

	cfg := cluster.Default()
	cfg.ComputeNodes = *np
	cfg.Seed = *seed
	c := cluster.New(cfg)

	switch *tracer {
	case "none":
		res := spec.Run(c.World)
		printResult(res)
	case "strace", "ltrace":
		var fcfg lanltrace.Config
		if *tracer == "strace" {
			fcfg = lanltrace.StraceConfig()
		} else {
			fcfg = lanltrace.DefaultConfig()
		}
		fw := lanltrace.New(fcfg)
		perRank := make([]workload.RankStats, c.Ranks())
		rep := fw.Run(c.World, spec.CommandLine, func(p *sim.Proc, r *mpi.Rank) {
			spec.Program(p, r, &perRank[r.RankID()])
		})
		res := spec.ResultFromStats(rep.Elapsed, perRank)
		printResult(res)
		fmt.Printf("tracer           : LANL-Trace (%s), %d events, %d trace bytes\n",
			fw.Mode(), rep.TraceEvents, rep.TraceBytes)
		if *traceOut != "" {
			if err := os.MkdirAll(*traceOut, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "mpi-io-test:", err)
				os.Exit(1)
			}
			for rank := range rep.PerRank {
				path := fmt.Sprintf("%s/rank%03d.trace", *traceOut, rank)
				if err := os.WriteFile(path, []byte(rep.RawTraceText(rank)), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "mpi-io-test:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("raw traces       : %d files under %s\n", len(rep.PerRank), *traceOut)
		}
		for _, what := range splitComma(*show) {
			switch what {
			case "raw":
				fmt.Println("\n--- raw trace (rank 0) ---")
				fmt.Print(rep.RawTraceText(0))
			case "timing":
				fmt.Println("\n--- aggregate timing ---")
				fmt.Print(rep.AggregateTimingText())
			case "summary":
				fmt.Println("\n--- call summary ---")
				fmt.Print(rep.CallSummaryText())
			default:
				fmt.Fprintf(os.Stderr, "mpi-io-test: unknown -show item %q\n", what)
			}
		}
	case "multilayer":
		ml := multilayer.Attach(c)
		perRank := make([]workload.RankStats, c.Ranks())
		elapsed := c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
			spec.Program(p, r, &perRank[r.RankID()])
		})
		res := spec.ResultFromStats(elapsed, perRank)
		printResult(res)
		fmt.Println("\n--- multi-layer latency attribution ---")
		fmt.Print(ml.Analyze().Format())
		fmt.Println("\n--- cross-layer latency slicing ---")
		sl, err := analysis.SliceSource(ml.AllSource(), 3)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpi-io-test:", err)
			os.Exit(1)
		}
		fmt.Print(sl.Format())
		if *traceOut != "" {
			if err := writeMergedTrace(*traceOut, ml); err != nil {
				fmt.Fprintln(os.Stderr, "mpi-io-test:", err)
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "mpi-io-test: unknown tracer %q\n", *tracer)
		os.Exit(2)
	}
}

// writeMergedTrace stores all six layers' records as one columnar (v2) trace
// with span columns, ready for tracequery -slice.
func writeMergedTrace(dir string, ml *multilayer.Session) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := dir + "/multilayer.col"
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewColumnarWriter(f, trace.ColumnarOptions{})
	n, err := trace.Copy(w, ml.AllSource())
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("merged trace     : %d records -> %s\n", n, path)
	return nil
}

func printResult(res workload.Result) {
	fmt.Printf("pattern          : %s\n", res.Params.Pattern)
	fmt.Printf("command line     : %s\n", res.Params.CommandLine())
	fmt.Printf("ranks            : %d\n", res.Ranks)
	fmt.Printf("total bytes      : %d (%.1f MiB)\n", res.Bytes, float64(res.Bytes)/(1<<20))
	fmt.Printf("elapsed          : %v\n", res.Elapsed)
	fmt.Printf("I/O phase        : %v\n", res.IOElapsed)
	fmt.Printf("aggregate BW     : %.1f MB/s\n", res.BandwidthBps()/1e6)
	if res.BytesRead > 0 {
		fmt.Printf("read-back BW     : %.1f MB/s (%d bytes)\n", res.ReadBandwidthBps()/1e6, res.BytesRead)
	}
}

func splitComma(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
