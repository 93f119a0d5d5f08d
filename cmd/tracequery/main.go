// Command tracequery answers analysis questions against a columnar (v2)
// trace without a full scan: the footer block index prunes blocks outside
// the query's time window, rank range, or event classes, and only the
// surviving blocks are decoded — fanned out over a worker pool.
//
// This is the query side of the taxonomy's storage axis: a row-ordered (v1)
// trace must be read end to end to answer "bytes written by ranks 900-1000
// between t=10s and t=20s"; the v2 index makes that a handful of block
// decodes. Non-columnar inputs are rejected with a pointer at traceconv.
//
// Usage:
//
//	tracequery -in trace.col                          # whole-trace summary
//	tracequery -in trace.col -ranks 900-1000 -from 10 -to 20
//	tracequery -in trace.col -class mpi,syscall -summary
//	tracequery -in trace.col -ranks 0 -print -limit 20
//	tracequery -in trace.col -slice                   # cross-layer latency slicing
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"iotaxo/internal/analysis"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

type options struct {
	in       string
	from, to float64
	ranks    string
	class    string
	offset   string
	minbytes int64
	span     string
	workers  int
	summary  bool
	print    bool
	slice    bool
	paths    int
	limit    int
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "columnar (v2) trace file")
	flag.Float64Var(&o.from, "from", math.Inf(-1), "window start in seconds")
	flag.Float64Var(&o.to, "to", math.Inf(1), "window end in seconds")
	flag.StringVar(&o.ranks, "ranks", "", "rank range lo-hi (or a single rank)")
	flag.StringVar(&o.class, "class", "", "event classes, comma-separated (syscall,libcall,mpi,fsop)")
	flag.StringVar(&o.offset, "offset", "", "file-offset range lo-hi (block stats prune non-overlapping blocks)")
	flag.Int64Var(&o.minbytes, "minbytes", 0, "only records moving at least this many bytes")
	flag.StringVar(&o.span, "span", "", "causal span range lo-hi (or a single span id)")
	flag.IntVar(&o.workers, "workers", 0, "decode worker goroutines (0 = GOMAXPROCS)")
	flag.BoolVar(&o.summary, "summary", false, "print a per-call summary table")
	flag.BoolVar(&o.print, "print", false, "print matching records instead of aggregates")
	flag.BoolVar(&o.slice, "slice", false, "cross-layer latency slicing over causal spans")
	flag.IntVar(&o.paths, "paths", 3, "critical-path breakdowns to print with -slice")
	flag.IntVar(&o.limit, "limit", 0, "stop -print after this many records (0 = all)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "tracequery: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}

	if o.in == "" {
		fmt.Fprintln(os.Stderr, "tracequery: -in is required")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracequery:", err)
		os.Exit(1)
	}
}

// buildQuery translates the flag values into a block-prunable predicate.
func buildQuery(o options) (trace.Query, error) {
	q := trace.MatchAll()
	if !math.IsInf(o.from, -1) || !math.IsInf(o.to, 1) {
		lo, hi := q.TimeMin, q.TimeMax
		if !math.IsInf(o.from, -1) {
			lo = sim.Time(o.from * float64(sim.Second))
		}
		if !math.IsInf(o.to, 1) {
			hi = sim.Time(o.to * float64(sim.Second))
		}
		if lo > hi {
			return q, fmt.Errorf("-from %g is after -to %g", o.from, o.to)
		}
		q = q.WithWindow(lo, hi)
	}
	if o.ranks != "" {
		lo, hi, err := parseRanks(o.ranks)
		if err != nil {
			return q, err
		}
		q = q.WithRanks(lo, hi)
	}
	if o.class != "" {
		for _, s := range strings.Split(o.class, ",") {
			c, err := trace.ParseClass(strings.TrimSpace(s))
			if err != nil {
				return q, err
			}
			q = q.WithClasses(c)
		}
	}
	if o.offset != "" {
		lo, hi, err := parseRange(o.offset)
		if err != nil {
			return q, fmt.Errorf("-offset: %w", err)
		}
		q = q.WithOffsetRange(lo, hi)
	}
	if o.minbytes > 0 {
		q = q.WithMinBytes(o.minbytes)
	}
	if o.span != "" {
		lo, hi, err := parseRange(o.span)
		if err != nil || lo < 0 {
			return q, fmt.Errorf("-span: bad range %q", o.span)
		}
		q = q.WithSpanRange(uint64(lo), uint64(hi))
	}
	return q, nil
}

// parseRange accepts "lo-hi" or a single value.
func parseRange(s string) (lo, hi int64, err error) {
	if a, b, ok := strings.Cut(s, "-"); ok {
		lo, err = strconv.ParseInt(strings.TrimSpace(a), 10, 64)
		if err == nil {
			hi, err = strconv.ParseInt(strings.TrimSpace(b), 10, 64)
		}
		if err == nil && lo > hi {
			err = fmt.Errorf("range %q is inverted", s)
		}
		return lo, hi, err
	}
	lo, err = strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	return lo, lo, err
}

// parseRanks accepts "lo-hi" or a single rank.
func parseRanks(s string) (lo, hi int, err error) {
	if a, b, ok := strings.Cut(s, "-"); ok {
		lo, err = strconv.Atoi(strings.TrimSpace(a))
		if err == nil {
			hi, err = strconv.Atoi(strings.TrimSpace(b))
		}
		if err == nil && lo > hi {
			err = fmt.Errorf("rank range %q is inverted", s)
		}
		return lo, hi, err
	}
	lo, err = strconv.Atoi(strings.TrimSpace(s))
	return lo, lo, err
}

func run(o options, stdout io.Writer) error {
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	format, _ := trace.DetectFormat(io.NewSectionReader(f, 0, st.Size()))
	if format != trace.FormatColumnar {
		return fmt.Errorf("%s is a %s trace; indexed queries need the columnar format — convert with: traceconv -in %s -to v2 -out %s.col",
			o.in, format, o.in, o.in)
	}
	cr, err := trace.NewColumnarReader(f, st.Size())
	if err != nil {
		return err
	}

	q, err := buildQuery(o)
	if err != nil {
		return err
	}

	if o.print {
		return printRecords(cr, q, o, stdout)
	}
	if o.slice {
		return sliceRecords(cr, q, o, stdout)
	}

	stats, scan, err := analysis.ColumnarIOStats(cr, q, o.workers)
	if err != nil {
		return err
	}
	var sum *analysis.CallSummary
	if o.summary {
		// Second indexed pass; the block cache is the OS page cache.
		if sum, _, err = analysis.ColumnarSummary(cr, q, o.workers); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "trace: %d records in %d blocks (%d bytes)\n",
		cr.NumRecords(), cr.NumBlocks(), st.Size())
	fmt.Fprintf(stdout, "query: %s\n", describeQuery(o))
	fmt.Fprintf(stdout, "matched: %d records, %d I/O calls\n", scan.RecordsMatched, stats.Calls)
	fmt.Fprintf(stdout, "bytes: %d total (%d read / %d written)\n",
		stats.Bytes, stats.ReadBytes, stats.WriteBytes)
	fmt.Fprintf(stdout, "time in I/O: %s across %d distinct paths\n",
		stats.TimeInIO, len(stats.DistinctPath))
	pct := 100.0
	if scan.BlocksTotal > 0 {
		pct = 100 * float64(scan.BlocksDecoded) / float64(scan.BlocksTotal)
	}
	fmt.Fprintf(stdout, "scan: decoded %d of %d blocks (%.1f%%), read %d of %d file bytes%s\n",
		scan.BlocksDecoded, scan.BlocksTotal, pct, scan.BytesRead, st.Size(),
		statsPruned(scan))
	if sum != nil {
		fmt.Fprint(stdout, sum.Format())
	}
	return nil
}

// describeQuery renders the active predicate for the report header.
func describeQuery(o options) string {
	var parts []string
	if !math.IsInf(o.from, -1) || !math.IsInf(o.to, 1) {
		parts = append(parts, fmt.Sprintf("window %g-%gs", o.from, o.to))
	}
	if o.ranks != "" {
		parts = append(parts, "ranks "+o.ranks)
	}
	if o.class != "" {
		parts = append(parts, "class "+o.class)
	}
	if o.offset != "" {
		parts = append(parts, "offset "+o.offset)
	}
	if o.minbytes > 0 {
		parts = append(parts, fmt.Sprintf("bytes >= %d", o.minbytes))
	}
	if o.span != "" {
		parts = append(parts, "span "+o.span)
	}
	if len(parts) == 0 {
		return "all records"
	}
	return strings.Join(parts, ", ")
}

// printRecords streams matching records as text lines.
func printRecords(cr *trace.ColumnarReader, q trace.Query, o options, stdout io.Writer) error {
	s := cr.Scan(q, o.workers)
	defer s.Close()
	n := 0
	for {
		if o.limit > 0 && n >= o.limit {
			break
		}
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s rank=%d %s = %s <%s>%s\n",
			trace.FormatLocalTime(rec.Time), rec.Rank, rec.CallString(), rec.Ret, rec.Dur,
			spanSuffix(rec))
		n++
	}
	stats := s.Stats()
	fmt.Fprintf(stdout, "# %d records printed, decoded %d of %d blocks%s\n",
		n, stats.BlocksDecoded, stats.BlocksTotal, statsPruned(stats))
	return nil
}

// spanSuffix renders a record's causal span compactly; span-less records
// (old traces) render exactly as before.
func spanSuffix(rec trace.Record) string {
	if !rec.HasSpan() {
		return ""
	}
	return fmt.Sprintf(" [s%d<p%d]", rec.Span, rec.Parent)
}

// statsPruned reports span/offset/bytes column pruning when it fired.
func statsPruned(s trace.ScanStats) string {
	if s.BlocksPrunedByStats == 0 {
		return ""
	}
	return fmt.Sprintf(", %d pruned by column stats", s.BlocksPrunedByStats)
}

// sliceRecords drains the matching records and prints the cross-layer
// latency slicing report.
func sliceRecords(cr *trace.ColumnarReader, q trace.Query, o options, stdout io.Writer) error {
	s := cr.Scan(q, o.workers)
	defer s.Close()
	var recs []trace.Record
	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		recs = append(recs, rec)
	}
	sl := analysis.SliceRecords(recs, o.paths)
	fmt.Fprint(stdout, sl.Format())
	stats := s.Stats()
	fmt.Fprintf(stdout, "# sliced %d records, decoded %d of %d blocks%s\n",
		len(recs), stats.BlocksDecoded, stats.BlocksTotal, statsPruned(stats))
	return nil
}
