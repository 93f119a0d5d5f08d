package harness

// This file is the trace-codec trajectory: BenchCodec runs the full
// workload registry under LANL-Trace at smoke scale, encodes every cell's
// real record stream in both trace formats (v1 row-ordered, v2 columnar),
// and packages bytes-per-record, scan throughput, and the block index's
// pruning power as a Snapshot. `tracebench -bench codec` writes it to
// BENCH_codec.json, committed beside the code so format regressions (size
// ratio, decoded-block fraction) show up in review diffs.

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"iotaxo/internal/lanltrace"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// CodecRow is one workload's size comparison: the same record stream
// encoded by both codecs, plain and compressed.
type CodecRow struct {
	Workload     string `json:"workload"`
	Records      int64  `json:"records"`
	V1Bytes      int64  `json:"v1_bytes"`
	V2Bytes      int64  `json:"v2_bytes"`
	V1Compressed int64  `json:"v1_compressed"`
	V2Compressed int64  `json:"v2_compressed"`
}

// CodecPayload is the codec bench's measurements: v1-vs-v2 size on the
// full-registry matrix streams, scan throughput, and index pruning.
type CodecPayload struct {
	Framework string `json:"framework"`
	Ranks     int    `json:"ranks"`

	Rows []CodecRow `json:"rows"`

	TotalRecords   int64   `json:"total_records"`
	V1PerRecord    float64 `json:"v1_bytes_per_record"`
	V2PerRecord    float64 `json:"v2_bytes_per_record"`
	SizeRatio      float64 `json:"size_ratio"`            // v1 / v2, plain
	SizeRatioComp  float64 `json:"size_ratio_compressed"` // v1 / v2, deflated
	V1DecodeMBps   float64 `json:"v1_decode_mbps"`
	V2ScanMBps     float64 `json:"v2_scan_mbps"`        // full record materialization
	V2ColumnMBps   float64 `json:"v2_column_scan_mbps"` // bytes+durs columns only
	V1DecodeKrps   float64 `json:"v1_decode_krps"`      // records/s: the MB/s divide by each format's size
	V2ScanKrps     float64 `json:"v2_scan_krps"`        // and v2 is ~3x smaller, so only these compare
	IndexRanks     int     `json:"index_ranks"`
	IndexBlocks    int     `json:"index_blocks"`
	IndexDecoded   int     `json:"index_blocks_decoded"`
	IndexFraction  float64 `json:"index_decoded_fraction"`
	IndexedMatched int64   `json:"indexed_records_matched"`
}

// Summary renders the sizes, rates and pruning on one line.
func (p CodecPayload) Summary() string {
	return fmt.Sprintf("# codec: %d records, v1 %.1f B/rec, v2 %.1f B/rec (%.2fx, %.2fx deflated); v1 decode %.0fk rec/s, v2 scan %.0fk rec/s; index decoded %d/%d blocks",
		p.TotalRecords, p.V1PerRecord, p.V2PerRecord, p.SizeRatio, p.SizeRatioComp,
		p.V1DecodeKrps, p.V2ScanKrps, p.IndexDecoded, p.IndexBlocks)
}

// codecBenchOptions is the codec bench's scale: the smoke matrix cluster
// shape, but at 64 KB blocks over 4 MB per rank so every workload emits
// thousands of records — enough stream for the columnar dictionaries to
// amortize, while each run stays well under a second.
func codecBenchOptions() Options {
	o := MatrixSmokeOptions()
	o.PerRankBytes = 4 << 20
	o.BlockSizes = []int64{64 << 10}
	return o
}

// matrixRecords runs one registry workload under LANL-Trace at smoke scale
// and returns the real merged record stream.
func matrixRecords(o Options, w workload.Workload) ([]trace.Record, error) {
	sess := o.lanlFramework().Attach(o.newCluster())
	if _, err := sess.Run(w.Spec(o.scaleFor(o.BlockSizes[0]))); err != nil {
		return nil, err
	}
	rep := sess.(interface{ Report() *lanltrace.Report }).Report()
	recs := rep.AllRecords()
	// The bench compares the codecs on the classic record corpus. Causal
	// spans are stripped: v1 only carries them behind an opt-in flag, so
	// leaving them in would charge the span columns to v2 alone and skew
	// the ratio.
	for i := range recs {
		recs[i].Span, recs[i].Parent = 0, 0
	}
	return recs, nil
}

// encodeV1 / encodeV2 report the encoded size of recs.
func encodeV1(recs []trace.Record, compress bool) ([]byte, error) {
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf, trace.BinaryOptions{Compress: compress})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func encodeV2(recs []trace.Record, compress bool) ([]byte, error) {
	var buf bytes.Buffer
	w := trace.NewColumnarWriter(&buf, trace.ColumnarOptions{Compress: compress})
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// mbps converts an encoded size and wall time into scan throughput.
func mbps(encoded int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(encoded) / 1e6 / wall.Seconds()
}

// krps converts a record count and wall time into thousands of records per
// second.
func krps(records int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(records) / 1e3 / wall.Seconds()
}

// codecScanRounds is how many times the throughput probe runs each scan:
// enough that, under a load that keeps a 2-vCPU host busy, each scan still
// gets some runs to itself.
const codecScanRounds = 100

// indexRankTrace builds the 4096-rank rank-major trace the pruning probe
// queries: real-shaped write records, one block per 512.
func indexRankTrace(ranks, perRank int) ([]byte, error) {
	var buf bytes.Buffer
	w := trace.NewColumnarWriter(&buf, trace.ColumnarOptions{})
	i := 0
	for rank := 0; rank < ranks; rank++ {
		for k := 0; k < perRank; k++ {
			r := trace.Record{
				Time: sim.Time(i) * sim.Microsecond, Dur: 20 * sim.Microsecond,
				Node: fmt.Sprintf("cn%04d", rank/8), Rank: rank, PID: 4000 + rank,
				Class: trace.ClassSyscall, Name: "SYS_write", Ret: "65536",
				Path:   fmt.Sprintf("/pfs/out/rank%04d.dat", rank),
				Offset: int64(k) << 16, Bytes: 1 << 16,
			}
			if err := w.Write(&r); err != nil {
				return nil, err
			}
			i++
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// BenchCodec measures the two trace codecs against each other on the full
// workload registry's real record streams, then probes the v2 block index
// with a rank-range query on a 4096-rank trace. An error means a run or an
// encode failed. Its bars are the format's acceptance bars: v2 at least 3x
// smaller than v1, the pruning probe decoding at most 20% of the blocks and
// matching exactly its ranks' records, and a v2 full scan at least as fast
// as a v1 decode in records per second.
func BenchCodec() (Snapshot, error) {
	o := codecBenchOptions()
	p := CodecPayload{
		Framework: o.lanlFramework().Name(),
		Ranks:     o.Ranks,
	}

	var all []trace.Record
	var v1Total, v2Total, v1CompTotal, v2CompTotal int64
	for _, w := range workload.All() {
		recs, err := matrixRecords(o, w)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%s: %w", w.Name(), err)
		}
		v1, err := encodeV1(recs, false)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%s: v1 encode: %w", w.Name(), err)
		}
		v2, err := encodeV2(recs, false)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%s: v2 encode: %w", w.Name(), err)
		}
		v1c, err := encodeV1(recs, true)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%s: v1 compress: %w", w.Name(), err)
		}
		v2c, err := encodeV2(recs, true)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%s: v2 compress: %w", w.Name(), err)
		}
		p.Rows = append(p.Rows, CodecRow{
			Workload: w.Name(), Records: int64(len(recs)),
			V1Bytes: int64(len(v1)), V2Bytes: int64(len(v2)),
			V1Compressed: int64(len(v1c)), V2Compressed: int64(len(v2c)),
		})
		p.TotalRecords += int64(len(recs))
		v1Total += int64(len(v1))
		v2Total += int64(len(v2))
		v1CompTotal += int64(len(v1c))
		v2CompTotal += int64(len(v2c))
		all = append(all, recs...)
	}
	if p.TotalRecords == 0 {
		return Snapshot{}, fmt.Errorf("registry produced no records")
	}
	p.V1PerRecord = float64(v1Total) / float64(p.TotalRecords)
	p.V2PerRecord = float64(v2Total) / float64(p.TotalRecords)
	p.SizeRatio = float64(v1Total) / float64(v2Total)
	p.SizeRatioComp = float64(v1CompTotal) / float64(v2CompTotal)

	// Scan throughput over the combined stream.
	v1All, err := encodeV1(all, false)
	if err != nil {
		return Snapshot{}, err
	}
	v2All, err := encodeV2(all, false)
	if err != nil {
		return Snapshot{}, err
	}
	cr, err := trace.NewColumnarReader(bytes.NewReader(v2All), int64(len(v2All)))
	if err != nil {
		return Snapshot{}, err
	}
	var colBytes int64
	columnScan := func(v *trace.BlockView, rows []int) error {
		bs, err := v.Bytes()
		if err != nil {
			return err
		}
		durs, err := v.Durs()
		if err != nil {
			return err
		}
		for _, i := range rows {
			colBytes += bs[i] + int64(durs[i])
		}
		return nil
	}
	// The scans run interleaved, one run each per round, and every rate
	// keeps its scan's fastest of codecScanRounds runs: the host's other
	// work only ever slows a run down, and on a busy host it slows most
	// of them, so a median would time the load (the v2 scan's worker pool
	// most of all), not the codec.
	v1Wall, v2Wall, colWall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range codecScanRounds {
		start := time.Now()
		n1, err := trace.Copy(discardSink{}, trace.NewBinaryReader(bytes.NewReader(v1All)))
		if err != nil {
			return Snapshot{}, fmt.Errorf("v1 decode: %w", err)
		}
		v1Wall = min(v1Wall, time.Since(start))
		start = time.Now()
		n2, err := trace.Copy(discardSink{}, cr.Scan(trace.MatchAll(), 0))
		if err != nil {
			return Snapshot{}, fmt.Errorf("v2 scan: %w", err)
		}
		v2Wall = min(v2Wall, time.Since(start))
		if n1 != n2 || n1 != p.TotalRecords {
			return Snapshot{}, fmt.Errorf("scan counts diverge: v1 %d, v2 %d, encoded %d", n1, n2, p.TotalRecords)
		}
		start = time.Now()
		if _, err := cr.ScanViews(trace.MatchAll(), 0, columnScan); err != nil {
			return Snapshot{}, fmt.Errorf("v2 column scan: %w", err)
		}
		colWall = min(colWall, time.Since(start))
	}
	p.V1DecodeMBps = mbps(len(v1All), v1Wall)
	p.V2ScanMBps = mbps(len(v2All), v2Wall)
	p.V2ColumnMBps = mbps(len(v2All), colWall)
	p.V1DecodeKrps = krps(p.TotalRecords, v1Wall)
	p.V2ScanKrps = krps(p.TotalRecords, v2Wall)

	// Index pruning probe: ranks 900-1000 of a 4096-rank rank-major trace.
	const probeRanks, perRank, lo, hi = 4096, 8, 900, 1000
	idxTrace, err := indexRankTrace(probeRanks, perRank)
	if err != nil {
		return Snapshot{}, err
	}
	icr, err := trace.NewColumnarReader(bytes.NewReader(idxTrace), int64(len(idxTrace)))
	if err != nil {
		return Snapshot{}, err
	}
	q := trace.MatchAll().WithRanks(lo, hi)
	scan, err := icr.ScanViews(q, 0, func(v *trace.BlockView, rows []int) error { return nil })
	if err != nil {
		return Snapshot{}, fmt.Errorf("indexed query: %w", err)
	}
	p.IndexRanks = probeRanks
	p.IndexBlocks = scan.BlocksTotal
	p.IndexDecoded = scan.BlocksDecoded
	p.IndexFraction = float64(scan.BlocksDecoded) / float64(scan.BlocksTotal)
	p.IndexedMatched = scan.RecordsMatched

	return newSnapshot("codec-matrix", p,
		Bar{Name: "size_ratio", Value: p.SizeRatio, Op: ">=", Limit: 3.0},
		Bar{Name: "index_decoded_fraction", Value: p.IndexFraction, Op: "<=", Limit: 0.20},
		Bar{Name: "indexed_records_matched", Value: float64(p.IndexedMatched), Op: "==", Limit: (hi - lo + 1) * perRank},
		Bar{Name: "v2_scan_krps", Value: p.V2ScanKrps, Op: ">=", Limit: p.V1DecodeKrps},
	), nil
}

// discardSink counts records through Copy without keeping them.
type discardSink struct{}

func (discardSink) Write(*trace.Record) error { return nil }
func (discardSink) Close() error              { return nil }
