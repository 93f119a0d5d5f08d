// Command traceconv inspects and converts trace files between the formats
// the taxonomy distinguishes — text, row-ordered binary (v1), and columnar
// (v2) — and runs anonymization passes over them: the workflow behind LANL's
// anonymized trace releases.
//
// The tool is a single streaming pass: records are pulled from the input
// decoder, through the optional anonymization transform, and pushed into the
// statistics folds and the output encoder one at a time. Memory stays
// O(block), not O(trace), so multi-gigabyte traces convert in constant
// space.
//
// Usage:
//
//	traceconv -in raw.trace -stats
//	traceconv -in raw.trace -to v1 -out trace.bin -compress
//	traceconv -in trace.bin -to v2 -out trace.col
//	traceconv -in trace.col -to text -out back.trace
//	traceconv -in raw.trace -anonymize path,uid,gid -mode randomize -out anon.trace
//	traceconv -in raw.trace -anonymize path -mode encrypt -key 0123456789abcdef -out enc.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iotaxo/internal/analysis"
	"iotaxo/internal/anonymize"
	"iotaxo/internal/trace"
)

// options carries the parsed flag set; run is pure in terms of it so tests
// drive conversions without a subprocess.
type options struct {
	in, out, to               string
	compress                  bool
	spans                     bool
	blockRecs                 int
	stats                     bool
	anonSpec, mode, key, salt string
}

func main() {
	var o options
	flag.StringVar(&o.in, "in", "", "input trace file (text, v1 binary, or v2 columnar; auto-detected)")
	flag.StringVar(&o.out, "out", "", "output file (default stdout)")
	flag.StringVar(&o.to, "to", "", "convert to format: v1 | v2 | text (aliases: binary = v1, columnar = v2)")
	flag.BoolVar(&o.compress, "compress", false, "compress binary/columnar output")
	flag.BoolVar(&o.spans, "spans", false, "encode causal span fields in v1 output (v2 stores them automatically)")
	flag.IntVar(&o.blockRecs, "block", 0, "records per output block (0 = format default: 512 for v1, 4096 for v2)")
	flag.BoolVar(&o.stats, "stats", false, "print a call summary and I/O statistics")
	flag.StringVar(&o.anonSpec, "anonymize", "", "fields to anonymize (e.g. path,uid,gid or all)")
	flag.StringVar(&o.mode, "mode", "randomize", "anonymization mode: randomize | encrypt")
	flag.StringVar(&o.key, "key", "", "AES key for -mode encrypt (16/24/32 bytes)")
	flag.StringVar(&o.salt, "salt", "iotaxo", "salt for -mode randomize")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "traceconv: unexpected arguments %q (every option is a flag, and flags go first)\n", flag.Args())
		os.Exit(2)
	}

	if o.in == "" {
		fmt.Fprintln(os.Stderr, "traceconv: -in is required")
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "traceconv:", err)
		os.Exit(1)
	}
}

// normalizeTarget folds format aliases onto the canonical names.
func normalizeTarget(target string) string {
	switch target {
	case "binary":
		return "v1"
	case "columnar":
		return "v2"
	}
	return target
}

// run is the whole conversion: one streaming pass from the input decoder
// through the optional anonymizer into the statistics folds and re-encoder.
func run(o options, stdout, stderr io.Writer) error {
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	src, format, err := trace.OpenAuto(f)
	if err != nil {
		return err
	}
	input := src // keep the decoder handle for its block count

	// Optional anonymization transform in the stream.
	anonymized := false
	if o.anonSpec != "" {
		spec, err := anonymize.ParseSpec(o.anonSpec)
		if err != nil {
			return err
		}
		var a anonymize.Anonymizer
		switch o.mode {
		case "randomize":
			a = anonymize.NewRandomizer(spec, []byte(o.salt))
		case "encrypt":
			if o.key == "" {
				return fmt.Errorf("-mode encrypt requires -key")
			}
			enc, err := anonymize.NewEncryptor(spec, []byte(o.key))
			if err != nil {
				return err
			}
			a = enc
		default:
			return fmt.Errorf("unknown -mode %q", o.mode)
		}
		src = trace.TransformSource(src, anonymize.Transform(a))
		anonymized = true
	}

	// Assemble the sink fan-out: statistics folds and/or the re-encoder.
	var sinks []trace.Sink
	sum := analysis.NewCallSummary()
	ioStats := analysis.NewIOStats()
	if o.stats {
		sinks = append(sinks, sum.Sink(), ioStats.Sink())
	}

	target := normalizeTarget(o.to)
	if target == "" && anonymized {
		if format == trace.FormatUnknown {
			target = "text" // empty input: emit a valid (empty) text trace
		} else {
			target = normalizeTarget(format.String()) // keep input format
		}
	}
	var encOut blockEncoder
	var closeOut func() error
	switch target {
	case "":
		if !o.stats {
			return nil // nothing to do
		}
	case "text":
		w, cl, err := openOut(o.out)
		if err != nil {
			return err
		}
		closeOut = cl
		sinks = append(sinks, trace.NewTextSink(w))
	case "v1":
		w, cl, err := openOut(o.out)
		if err != nil {
			return err
		}
		closeOut = cl
		encOut = trace.NewBinaryWriter(w, trace.BinaryOptions{
			Compress:        o.compress,
			Anonymized:      anonymized,
			Spans:           o.spans,
			RecordsPerBlock: o.blockRecs,
		})
		sinks = append(sinks, encOut)
	case "v2":
		w, cl, err := openOut(o.out)
		if err != nil {
			return err
		}
		closeOut = cl
		encOut = trace.NewColumnarWriter(w, trace.ColumnarOptions{
			Compress:        o.compress,
			Anonymized:      anonymized,
			RecordsPerBlock: o.blockRecs,
		})
		sinks = append(sinks, encOut)
	default:
		return fmt.Errorf("unknown -to format %q", target)
	}

	// The single streaming pass.
	dst := trace.TeeSink(sinks...)
	records, err := trace.Copy(dst, src)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if closeOut != nil {
		if cerr := closeOut(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}

	if o.stats {
		fmt.Fprintf(stdout, "# %d records (%s input%s)\n", records, format, blockNote(input))
		fmt.Fprint(stdout, sum.Format())
		fmt.Fprintf(stdout, "# I/O: %d calls, %d bytes (%d read / %d written), %d distinct paths\n",
			ioStats.Calls, ioStats.Bytes, ioStats.ReadBytes, ioStats.WriteBytes,
			len(ioStats.DistinctPath))
	}
	if target != "" {
		fmt.Fprintf(stderr, "traceconv: %d records -> %s%s\n",
			records, target, writeNote(encOut))
	}
	return nil
}

// blockEncoder is what both binary encoders report about their output.
type blockEncoder interface {
	trace.Sink
	BlocksWritten() int64
	BytesWritten() int64
}

// blockNote reports the input decoder's block count when it has one.
func blockNote(src trace.Source) string {
	if br, ok := src.(interface{ BlocksRead() int64 }); ok {
		return fmt.Sprintf(", %d blocks", br.BlocksRead())
	}
	return ""
}

// writeNote reports the output encoder's block and byte counts.
func writeNote(w blockEncoder) string {
	if w == nil {
		return ""
	}
	return fmt.Sprintf(" (%d blocks, %d bytes)", w.BlocksWritten(), w.BytesWritten())
}

func openOut(path string) (io.Writer, func() error, error) {
	if path == "" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}
