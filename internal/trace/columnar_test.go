package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

// normalizeArgs maps empty Args to nil so DeepEqual ignores the nil-vs-empty
// distinction, like the v1 round-trip tests.
func normalizeArgs(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		if len(out[i].Args) == 0 {
			out[i].Args = nil
		}
	}
	return out
}

// writeColumnar encodes recs into a Closed v2 stream.
func writeColumnar(t *testing.T, recs []Record, opts ColumnarOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, opts)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestColumnarRoundTrip(t *testing.T) {
	in := normalizeArgs(randomRecords(1000, 42))
	for _, compress := range []bool{false, true} {
		data := writeColumnar(t, in, ColumnarOptions{Compress: compress, RecordsPerBlock: 64})
		out, err := NewColumnarSource(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if !reflect.DeepEqual(in, normalizeArgs(out)) {
			t.Fatalf("compress=%v: round trip mismatch", compress)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the v2 golden files under testdata/ instead of comparing")

// columnarGoldenCases are the v2 encodings pinned byte-for-byte in
// testdata, written from goldenRecords in blocks of 512 (three blocks, the
// last one partial) so every block after the first shows that the encoder
// and the compressor restart cleanly. Span-less cases strip the spans, as
// the v1 goldens do.
var columnarGoldenCases = []struct {
	file  string
	opts  ColumnarOptions
	spans bool
}{
	{"v2_plain.col", ColumnarOptions{RecordsPerBlock: 512}, false},
	{"v2_compressed.col", ColumnarOptions{RecordsPerBlock: 512, Compress: true}, false},
	{"v2_spans.col", ColumnarOptions{RecordsPerBlock: 512}, true},
}

// TestColumnarGolden pins the v2 wire format: encoding goldenRecords must
// reproduce each golden file exactly, and each file must decode back to
// the records it was written from. go test -run ColumnarGolden -update
// rewrites the files after a deliberate format change.
func TestColumnarGolden(t *testing.T) {
	for _, tc := range columnarGoldenCases {
		t.Run(tc.file, func(t *testing.T) {
			recs := goldenRecords()
			if !tc.spans {
				recs = stripSpans(recs)
			}
			var buf bytes.Buffer
			w := NewColumnarWriter(&buf, tc.opts)
			if err := WriteAll(w, recs); err != nil {
				t.Fatal(err)
			}
			if w.BlocksWritten() != 3 || w.BytesWritten() != int64(buf.Len()) {
				t.Fatalf("blocks = %d, bytes = %d for a %d-byte buffer, want 3 blocks",
					w.BlocksWritten(), w.BytesWritten(), buf.Len())
			}
			path := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("encoding differs from golden (%d vs %d bytes)", buf.Len(), len(want))
			}
			got, err := NewColumnarSource(bytes.NewReader(want)).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizeArgs(recs), normalizeArgs(got)) {
				t.Fatal("golden does not decode to its records")
			}
		})
	}
}

func TestColumnarAutodetect(t *testing.T) {
	rec := sampleRecord()
	data := writeColumnar(t, []Record{rec}, ColumnarOptions{})
	recs, format, err := readAuto(bytes.NewReader(data))
	if err != nil || format != FormatColumnar || len(recs) != 1 {
		t.Fatalf("columnar auto: %v %v %d", err, format, len(recs))
	}
	if FormatColumnar.String() != "columnar" {
		t.Fatal("format string")
	}
}

func TestColumnarFlagsExposed(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, ColumnarOptions{Compress: true, Anonymized: true})
	w.Write(&rec)
	w.Close()
	src := NewColumnarSource(bytes.NewReader(buf.Bytes()))
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if src.Flags()&FlagCompressed == 0 || src.Flags()&FlagAnonymized == 0 {
		t.Fatalf("flags = %b", src.Flags())
	}
	cr, err := NewColumnarReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if cr.Flags() != src.Flags() {
		t.Fatalf("reader flags %b != source flags %b", cr.Flags(), src.Flags())
	}
}

func TestColumnarEmptyStream(t *testing.T) {
	data := writeColumnar(t, nil, ColumnarOptions{})
	recs, err := NewColumnarSource(bytes.NewReader(data)).ReadAll()
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if cr.NumBlocks() != 0 || cr.NumRecords() != 0 {
		t.Fatalf("blocks=%d records=%d", cr.NumBlocks(), cr.NumRecords())
	}
	s := cr.Scan(MatchAll(), 2)
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// A stream that was Flushed but never Closed has no footer: it must stay
// readable sequentially and be rejected by the indexed reader.
func TestColumnarFlushWithoutClose(t *testing.T) {
	in := normalizeArgs(randomRecords(100, 7))
	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, ColumnarOptions{RecordsPerBlock: 16})
	for i := range in {
		if err := w.Write(&in[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out, err := NewColumnarSource(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, normalizeArgs(out)) {
		t.Fatal("flush-only stream round trip mismatch")
	}
	if _, err := NewColumnarReader(bytes.NewReader(buf.Bytes()), int64(buf.Len())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("indexed open of unclosed stream: err = %v, want ErrCorrupt", err)
	}
}

// Mirror of TestBinaryDetectsCorruption: any flipped byte — payload, block
// header, or footer — must surface as ErrCorrupt on a sequential read (or,
// for trailer bytes, at least fail the indexed open below).
func TestColumnarDetectsCorruption(t *testing.T) {
	rec := sampleRecord()
	recs := make([]Record, 32)
	for i := range recs {
		recs[i] = rec
		recs[i].Time = sim.Time(i) * sim.Second
	}
	clean := writeColumnar(t, recs, ColumnarOptions{RecordsPerBlock: 8})
	data := append([]byte(nil), clean...)
	data[len(data)/2] ^= 0xFF
	if _, err := NewColumnarSource(bytes.NewReader(data)).ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}

	// Flip every single byte past the stream header in turn: sequential read
	// or indexed open must notice each one (flag-byte flips excepted, as in
	// v1 where flags are also unprotected).
	for off := columnarHeaderLen; off < len(clean); off++ {
		data := append([]byte(nil), clean...)
		data[off] ^= 0xFF
		_, seqErr := NewColumnarSource(bytes.NewReader(data)).ReadAll()
		_, idxErr := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
		if seqErr == nil && idxErr == nil {
			t.Fatalf("flipped byte %d of %d undetected", off, len(clean))
		}
	}
}

func TestColumnarDetectsTruncation(t *testing.T) {
	rec := sampleRecord()
	recs := make([]Record, 32)
	for i := range recs {
		recs[i] = rec
	}
	clean := writeColumnar(t, recs, ColumnarOptions{RecordsPerBlock: 8})
	// Cut at several depths: inside the trailer, the index, and data blocks.
	for _, cut := range []int{5, trailerLen, trailerLen + 10, len(clean) / 2} {
		data := clean[:len(clean)-cut]
		if _, err := NewColumnarSource(bytes.NewReader(data)).ReadAll(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrCorrupt", cut, err)
		}
		if _, err := NewColumnarReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: indexed err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestColumnarBadMagic(t *testing.T) {
	if _, err := NewColumnarSource(bytes.NewReader([]byte("NOTATRACEFILE"))).Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := NewColumnarReader(bytes.NewReader([]byte("NOTATRACEFILEPADDEDOUTTOSIXTYTWOBYTESLONGxxxxxxxxxxxxxxxxxxxxx")), 62); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("indexed err = %v, want ErrCorrupt", err)
	}
}

func TestColumnarTrailingGarbage(t *testing.T) {
	data := writeColumnar(t, []Record{sampleRecord()}, ColumnarOptions{})
	data = append(data, 0xde, 0xad)
	if _, err := NewColumnarSource(bytes.NewReader(data)).ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// Property: the columnar source never panics on arbitrary input.
func TestColumnarSourceFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %x", data)
			}
		}()
		NewColumnarSource(bytes.NewReader(data)).ReadAll()
		NewColumnarReader(bytes.NewReader(data), int64(len(data)))
		withMagic := append(append([]byte(nil), columnarMagic[:]...), data...)
		NewColumnarSource(bytes.NewReader(withMagic)).ReadAll()
		NewColumnarReader(bytes.NewReader(withMagic), int64(len(withMagic)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// queryRecords is the brute-force reference: filter materialized records.
func queryRecords(recs []Record, q Query) []Record {
	var out []Record
	for i := range recs {
		if q.Matches(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// Property: for random time windows, rank ranges, and class sets, an indexed
// scan that skips blocks returns exactly what a full scan filters.
func TestColumnarIndexedQueryMatchesFullScan(t *testing.T) {
	in := normalizeArgs(randomRecords(3000, 99))
	for _, compress := range []bool{false, true} {
		data := writeColumnar(t, in, ColumnarOptions{Compress: compress, RecordsPerBlock: 128})
		cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 50; trial++ {
			q := MatchAll()
			if rng.Intn(2) == 0 {
				lo := sim.Time(rng.Int63n(1e15))
				q = q.WithWindow(lo, lo+sim.Time(rng.Int63n(1e15)))
			}
			if rng.Intn(2) == 0 {
				lo := rng.Intn(64) - 1
				q = q.WithRanks(lo, lo+rng.Intn(16))
			}
			if rng.Intn(3) == 0 {
				q = q.WithClasses(EventClass(rng.Intn(int(numClasses))))
			}
			scan := cr.Scan(q, 4)
			got, err := Collect(scan)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := queryRecords(in, q)
			if !reflect.DeepEqual(normalizeArgs(got), normalizeArgs(want)) {
				t.Fatalf("trial %d (compress=%v): scan returned %d records, brute force %d, or order/content mismatch",
					trial, compress, len(got), len(want))
			}
			st := scan.Stats()
			if st.RecordsMatched != int64(len(want)) {
				t.Fatalf("trial %d: stats.RecordsMatched=%d want %d", trial, st.RecordsMatched, len(want))
			}
			if st.BlocksDecoded > st.BlocksTotal {
				t.Fatalf("trial %d: decoded %d of %d blocks", trial, st.BlocksDecoded, st.BlocksTotal)
			}
		}
	}
}

// The acceptance-criteria shape: a rank-major 4096-rank trace, querying
// ranks 900-1000, must decode at most 20% of the blocks.
func TestColumnarIndexSkipsBlocksAt4096Ranks(t *testing.T) {
	const ranks, perRank = 4096, 16
	recs := make([]Record, 0, ranks*perRank)
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < perRank; i++ {
			recs = append(recs, Record{
				Time: sim.Time(i) * sim.Millisecond, Dur: 10 * sim.Microsecond,
				Node: fmt.Sprintf("n%04d", rank/8), Rank: rank, PID: 1000 + rank,
				Class: ClassSyscall, Name: "SYS_write", Ret: "65536",
				Path:   fmt.Sprintf("/pfs/out/rank%04d.dat", rank),
				Offset: int64(i) * 65536, Bytes: 65536,
			})
		}
	}
	data := writeColumnar(t, recs, ColumnarOptions{RecordsPerBlock: 512})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	q := MatchAll().WithRanks(900, 1000)
	scan := cr.Scan(q, 0)
	got, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if want := 101 * perRank; len(got) != want {
		t.Fatalf("got %d records, want %d", len(got), want)
	}
	st := scan.Stats()
	if st.BlocksTotal != ranks*perRank/512 {
		t.Fatalf("BlocksTotal = %d", st.BlocksTotal)
	}
	if frac := float64(st.BlocksDecoded) / float64(st.BlocksTotal); frac > 0.20 {
		t.Fatalf("query decoded %d of %d blocks (%.0f%%), want <= 20%%",
			st.BlocksDecoded, st.BlocksTotal, frac*100)
	}
	if st.BytesRead >= int64(len(data))/5 {
		t.Fatalf("query read %d of %d bytes", st.BytesRead, len(data))
	}
}

// ScanViews must visit exactly the rows Scan yields, in order, without
// materializing records.
func TestColumnarScanViewsMatchesScan(t *testing.T) {
	in := randomRecords(2000, 13)
	data := writeColumnar(t, in, ColumnarOptions{Compress: true, RecordsPerBlock: 256})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	q := MatchAll().WithRanks(0, 31).WithClasses(ClassSyscall, ClassMPI)
	var viaViews struct {
		n     int64
		bytes int64
		time  int64
	}
	st, err := cr.ScanViews(q, 3, func(v *BlockView, rows []int) error {
		bs, err := v.Bytes()
		if err != nil {
			return err
		}
		ds, err := v.Durs()
		if err != nil {
			return err
		}
		for _, i := range rows {
			viaViews.n++
			viaViews.bytes += bs[i]
			viaViews.time += ds[i]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var viaScan struct {
		n     int64
		bytes int64
		time  int64
	}
	for _, r := range queryRecords(in, q) {
		viaScan.n++
		viaScan.bytes += r.Bytes
		viaScan.time += int64(r.Dur)
	}
	if viaViews != viaScan {
		t.Fatalf("view aggregation %+v != record aggregation %+v", viaViews, viaScan)
	}
	if st.RecordsMatched != viaScan.n {
		t.Fatalf("stats.RecordsMatched=%d want %d", st.RecordsMatched, viaScan.n)
	}
}

// Early Close must not deadlock or leak the pool (mirror of the parallel
// reader's early-close test).
func TestColumnarScanEarlyClose(t *testing.T) {
	in := randomRecords(5000, 3)
	data := writeColumnar(t, in, ColumnarOptions{RecordsPerBlock: 64})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		scan := cr.Scan(MatchAll(), 4)
		if _, err := scan.Next(); err != nil {
			t.Fatal(err)
		}
		scan.Close()
	}
}

// Columnar encoding must be several times smaller than v1 on realistic
// repetitive traces — the format's reason to exist.
func TestColumnarSmallerThanBinary(t *testing.T) {
	recs := make([]Record, 8192)
	for i := range recs {
		rank := i % 64
		recs[i] = Record{
			Time: sim.Time(i) * 50 * sim.Microsecond, Dur: 120 * sim.Microsecond,
			Node: fmt.Sprintf("cn%03d", rank/4), Rank: rank, PID: 4000 + rank,
			Class: ClassSyscall, Name: "SYS_write",
			Args: []string{"3", "65536"}, Ret: "65536",
			Path:   fmt.Sprintf("/pfs/out/rank%03d/part-%04d.dat", rank, i%8),
			Offset: int64(i/64) * 65536, Bytes: 65536, UID: 1001, GID: 100,
		}
	}
	var v1, v1c bytes.Buffer
	w1 := NewBinaryWriter(&v1, BinaryOptions{})
	w1c := NewBinaryWriter(&v1c, BinaryOptions{Compress: true})
	for i := range recs {
		w1.Write(&recs[i])
		w1c.Write(&recs[i])
	}
	w1.Close()
	w1c.Close()
	v2 := writeColumnar(t, recs, ColumnarOptions{})
	v2c := writeColumnar(t, recs, ColumnarOptions{Compress: true})
	if v1.Len() < 3*len(v2) {
		t.Fatalf("v2 plain not 3x smaller: v1=%d v2=%d", v1.Len(), len(v2))
	}
	if v1c.Len() < 2*len(v2c) {
		t.Fatalf("v2 compressed not 2x smaller: v1c=%d v2c=%d", v1c.Len(), len(v2c))
	}
}

// Property: single-record columnar encode/decode is the identity.
func TestColumnarRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomRecord(rng)
		var buf bytes.Buffer
		w := NewColumnarWriter(&buf, ColumnarOptions{})
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Close()
		out, err := NewColumnarSource(bytes.NewReader(buf.Bytes())).ReadAll()
		if err != nil || len(out) != 1 {
			return false
		}
		a, b := normalizeArgs([]Record{in}), normalizeArgs(out)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The block views must expose direction bits identical to recomputing
// Record.Direction, and lazily decoded columns must agree with records.
func TestColumnarViewColumnsAgreeWithRecords(t *testing.T) {
	in := randomRecords(600, 21)
	data := writeColumnar(t, in, ColumnarOptions{RecordsPerBlock: 100})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	idx := 0
	_, err = cr.ScanViews(MatchAll(), 2, func(v *BlockView, rows []int) error {
		dirs, err := v.Dirs()
		if err != nil {
			return err
		}
		names, err := v.Names()
		if err != nil {
			return err
		}
		offs, err := v.Offsets()
		if err != nil {
			return err
		}
		for _, i := range rows {
			r := &in[idx]
			if dirs[i] != r.Direction() {
				return fmt.Errorf("row %d: dir %v != %v", idx, dirs[i], r.Direction())
			}
			if names[i] != r.Name || offs[i] != r.Offset {
				return fmt.Errorf("row %d: column mismatch", idx)
			}
			idx++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if idx != len(in) {
		t.Fatalf("visited %d rows, want %d", idx, len(in))
	}
}

// rowsFromColumns is the model of materializeRows: row i of a block, built
// from the per-column accessors.
func rowsFromColumns(t *testing.T, v *BlockView, rows []int) []Record {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	times, err := v.Times()
	must(err)
	durs, err := v.Durs()
	must(err)
	nodes, err := v.Nodes()
	must(err)
	ranks, err := v.Ranks()
	must(err)
	pids, err := v.PIDs()
	must(err)
	classes, err := v.Classes()
	must(err)
	names, err := v.Names()
	must(err)
	args, err := v.Args()
	must(err)
	rets, err := v.Rets()
	must(err)
	paths, err := v.Paths()
	must(err)
	offsets, err := v.Offsets()
	must(err)
	bytesc, err := v.Bytes()
	must(err)
	uids, err := v.UIDs()
	must(err)
	gids, err := v.GIDs()
	must(err)
	spans, err := v.Spans()
	must(err)
	parents, err := v.Parents()
	must(err)
	out := make([]Record, len(rows))
	for k, i := range rows {
		out[k] = Record{
			Time: sim.Time(times[i]), Dur: sim.Duration(durs[i]), Node: nodes[i],
			Rank: int(ranks[i]), PID: int(pids[i]), Class: classes[i], Name: names[i],
			Args: args[i], Ret: rets[i], Path: paths[i], Offset: offsets[i], Bytes: bytesc[i],
			UID: int(uids[i]), GID: int(gids[i]), Span: uint64(spans[i]), Parent: uint64(parents[i]),
		}
	}
	return out
}

// TestMaterializeRowsMatchesColumns checks the one row path against the
// per-column accessors on random row subsets of every block, and against
// the records written. The stream mixes blocks with and without spans, and
// args that ride inline as integers with args from the dictionary.
func TestMaterializeRowsMatchesColumns(t *testing.T) {
	in := randomRecords(900, 61)
	for i := range in {
		if i%3 == 0 {
			in[i].Args = append(in[i].Args, strconv.Itoa(i*4096), "-7", "65536")
		}
	}
	in = append(withSpans(in[:450], 62), in[450:]...)
	in = normalizeArgs(in)
	data := writeColumnar(t, in, ColumnarOptions{RecordsPerBlock: 100})
	cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	base, spanless := 0, 0
	_, err = cr.ScanViews(MatchAll(), 2, func(v *BlockView, all []int) error {
		if v.secs[colSpans] == nil {
			spanless++
		}
		subsets := [][]int{nil, all, {0}, {v.Len() - 1}}
		for range 8 {
			var rows []int
			p := rng.Float64()
			for _, i := range all {
				if rng.Float64() < p {
					rows = append(rows, i)
				}
			}
			subsets = append(subsets, rows)
		}
		for _, rows := range subsets {
			want := rowsFromColumns(t, v, rows)
			// got walks every section of a view with nothing cached; reused
			// reads the int columns rowsFromColumns decoded from v's caches.
			fresh := &BlockView{count: v.count, classMask: v.classMask, dirMask: v.dirMask, secs: v.secs}
			got, err := materializeRows(fresh, rows, nil)
			if err != nil {
				return err
			}
			// Records written over a slice of other records must not keep
			// any of their fields.
			dirty := make([]Record, len(rows))
			for k := range dirty {
				dirty[k] = in[(base+k*7)%len(in)]
				dirty[k].Args = []string{"stale"}
			}
			reused, err := materializeRows(v, rows, dirty)
			if err != nil {
				return err
			}
			if len(got) != len(rows) || len(rows) > 0 && (!reflect.DeepEqual(got, want) || !reflect.DeepEqual(reused, want)) {
				return fmt.Errorf("block at row %d: rows %v differ from the column accessors", base, rows)
			}
			for k, i := range rows {
				if !reflect.DeepEqual(normalizeArgs(got[k:k+1]), in[base+i:base+i+1]) {
					return fmt.Errorf("row %d: %+v, wrote %+v", base+i, got[k], in[base+i])
				}
			}
		}
		base += v.Len()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if base != len(in) || spanless == 0 || spanless == cr.NumBlocks() {
		t.Fatalf("visited %d of %d rows; %d of %d blocks span-less, want some", base, len(in), spanless, cr.NumBlocks())
	}
}

// TestUnmatchedCorruptRowFails checks that materializing a block validates
// every row, not only those a query selects: a corrupt value in a row the
// query does not match still fails Scan and ColumnarSource with ErrCorrupt.
func TestUnmatchedCorruptRowFails(t *testing.T) {
	recs := make([]Record, 8)
	for i := range recs {
		recs[i] = sampleRecord()
		recs[i].Rank = i
		recs[i].Dur = 300 * sim.Microsecond
	}
	clean := writeColumnar(t, recs, ColumnarOptions{RecordsPerBlock: 8})
	for _, tc := range []struct {
		name    string
		col     byte
		corrupt func(sec []byte)
	}{
		// The last row's path indexes past the dictionary.
		{"dict-index", colPaths, func(sec []byte) { sec[7] = 0x7f }},
		// The last row's duration never terminates.
		{"truncated-varint", colDurs, func(sec []byte) { sec[len(sec)-1] |= 0x80 }},
		// The last row's argument tag indexes past the dictionary.
		{"arg-index", colArgs, func(sec []byte) { sec[len(sec)-1] = 0x7e }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), clean...)
			hb := data[columnarHeaderLen : columnarHeaderLen+blockHeaderLen]
			h, err := parseBlockHeader(hb)
			if err != nil {
				t.Fatal(err)
			}
			payload := data[columnarHeaderLen+blockHeaderLen:][:h.payloadLen]
			v, err := parseBlockView(payload, h)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(v.secs[tc.col]) // the section aliases data
			binary.LittleEndian.PutUint32(hb[12:], blockCRC(hb, payload))

			cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			s := cr.Scan(MatchAll().WithRanks(0, 3), 1)
			n := 0
			for err == nil {
				_, err = s.Next()
				n++
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan of rows 0-3: err = %v after %d records, want ErrCorrupt", err, n-1)
			}
			if _, err := NewColumnarSource(bytes.NewReader(data)).ReadAll(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("sequential read: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzColumnarReader checks the v2 random-access reader's contract on
// arbitrary input: NewColumnarReader, an indexed Scan and ScanViews yield
// records or views until io.EOF or an error wrapping ErrCorrupt, never
// panic, and never allocate by a length or count the input does not back.
// A mutated file rarely keeps its footer index CRC valid, so data (after a
// first byte choosing a plain or a compressed trace) is also installed as
// that trace's footer index, with a valid CRC: that reaches the index
// parser, its stats extension and the block pruning they drive. The seeds
// are both traces, six golden records in blocks of two, and their index
// payloads.
func FuzzColumnarReader(f *testing.F) {
	var bases [2][]byte // stream header and data blocks, without the index
	for i, compress := range []bool{false, true} {
		var buf bytes.Buffer
		opts := ColumnarOptions{RecordsPerBlock: 2, Compress: compress}
		if err := WriteAll(NewColumnarWriter(&buf, opts), goldenRecords()[:6]); err != nil {
			f.Fatal(err)
		}
		file := buf.Bytes()
		end := len(file) - trailerLen
		idxOff := end - int(binary.LittleEndian.Uint32(file[end:]))
		bases[i] = file[:idxOff]
		index := file[idxOff+blockHeaderLen : end]
		want, err := NewColumnarReader(bytes.NewReader(file), int64(len(file)))
		if err != nil {
			f.Fatal(err)
		}
		rebuilt := withIndex(bases[i], index)
		got, err := NewColumnarReader(bytes.NewReader(rebuilt), int64(len(rebuilt)))
		if err != nil || !reflect.DeepEqual(got.Index(), want.Index()) {
			f.Fatalf("withIndex does not rebuild the trace from its own index: %v", err)
		}
		f.Add(file)
		f.Add(append([]byte{byte(i)}, index...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkColumnarReader(t, data)
		if len(data) > 0 {
			checkColumnarReader(t, withIndex(bases[data[0]&1], data[1:]))
		}
	})
}

// withIndex frames payload as the footer index block after base, with a
// valid CRC and trailer.
func withIndex(base, payload []byte) []byte {
	hdr := packBlockHeader(blockIndex, BlockMeta{}, len(payload), 0)
	binary.LittleEndian.PutUint32(hdr[12:], blockCRC(hdr[:], payload))
	out := append(append(append([]byte(nil), base...), hdr[:]...), payload...)
	out = binary.LittleEndian.AppendUint32(out, uint32(blockHeaderLen+len(payload)))
	return append(out, columnarTail[:]...)
}

// checkColumnarReader opens data as a v2 trace and runs one query, pruned
// by the rank ranges and the offset stats, through Scan and through
// ScanViews (materializing every matched row). It fails on an error other
// than io.EOF or one wrapping ErrCorrupt, and on 64 MiB of allocation.
func checkColumnarReader(t *testing.T, data []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	check := func(what string, err error) {
		if err != nil && err != io.EOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want io.EOF or ErrCorrupt", what, err)
		}
	}
	c, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	check("open", err)
	if err == nil {
		q := MatchAll().WithRanks(1, 6).WithOffsetRange(0, 1<<40)
		s := c.Scan(q, 1)
		for err == nil {
			_, err = s.Next()
		}
		check("scan", err)
		_, err = c.ScanViews(q, 1, func(v *BlockView, rows []int) error {
			_, err := materializeRows(v, rows, nil)
			return err
		})
		check("scan views", err)
	}
	runtime.ReadMemStats(&after)
	// Far above what a fuzz-sized input decodes to, far below what a
	// forged block length or record count claims.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
		t.Fatalf("%d-byte input allocated %d bytes", len(data), alloc)
	}
}
