package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
)

func sampleRecord() Record {
	return Record{
		Time:  39587*sim.Second + 92996*sim.Microsecond,
		Dur:   34 * sim.Microsecond,
		Node:  "host13.lanl.gov",
		Rank:  7,
		PID:   10378,
		Class: ClassSyscall,
		Name:  "SYS_open",
		Args:  []string{`"/etc/hosts"`, "0", "438"},
		Ret:   "3",
		Path:  "/etc/hosts",
	}
}

func TestFormatLocalTimeMatchesFigure1Style(t *testing.T) {
	// 10:59:47.092996 from Figure 1.
	ts := sim.Time((10*3600+59*60+47)*int64(sim.Second) + 92996*int64(sim.Microsecond))
	if got := FormatLocalTime(ts); got != "10:59:47.092996" {
		t.Fatalf("got %q", got)
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextSink(&buf)
	in := sampleRecord()
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `SYS_open("/etc/hosts", 0, 438) = 3 <0.000034>`) {
		t.Fatalf("unexpected text:\n%s", out)
	}
	recs, err := Collect(NewTextReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	got := recs[0]
	if got.Name != in.Name || got.Ret != in.Ret || got.Dur != in.Dur {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
	if got.Node != "host13.lanl.gov" || got.Rank != 7 || got.PID != 10378 {
		t.Fatalf("header context lost: %+v", got)
	}
	if got.Path != "/etc/hosts" {
		t.Fatalf("path not inferred: %q", got.Path)
	}
	if got.Class != ClassSyscall {
		t.Fatalf("class = %v", got.Class)
	}
}

func TestTextParserInfersIOFields(t *testing.T) {
	src := `# node=n1 rank=2 pid=55
00:00:01.000000 SYS_pwrite(3, 65536, 32768) = 32768 <0.000100>
00:00:02.000000 MPI_File_write_at(0, 1048576, 4096) = 4096 <0.000200>
00:00:03.000000 MPI_Barrier(92) = 0 <0.001000>
`
	recs, err := Collect(NewTextReader(strings.NewReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Offset != 65536 || recs[0].Bytes != 32768 {
		t.Fatalf("pwrite fields: %+v", recs[0])
	}
	if recs[1].Class != ClassMPI || recs[1].Offset != 1048576 || recs[1].Bytes != 4096 {
		t.Fatalf("mpi fields: %+v", recs[1])
	}
	if recs[2].IsIO() {
		t.Fatal("barrier classified as IO")
	}
}

func TestTextParserErrors(t *testing.T) {
	bad := []string{
		"garbage line without timestamp",
		"00:00:01.000000 no_parens = 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\" = 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\") 0 <0.0>",
		"00:00:01.000000 SYS_open(\"x\") = 0",
	}
	for _, line := range bad {
		_, err := Collect(NewTextReader(strings.NewReader(line + "\n")))
		if err == nil {
			t.Errorf("no error for %q", line)
		}
	}
}

func TestTextQuotedCommaArgs(t *testing.T) {
	src := "00:00:01.000000 SYS_open(\"/a,b(c).txt\", 0, 438) = 3 <0.000010>\n"
	recs, err := Collect(NewTextReader(strings.NewReader(src)))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Path != "/a,b(c).txt" {
		t.Fatalf("path = %q", recs[0].Path)
	}
	if len(recs[0].Args) != 3 {
		t.Fatalf("args = %v", recs[0].Args)
	}
}

func randomRecord(rng *rand.Rand) Record {
	names := []string{"SYS_write", "SYS_read", "MPI_Barrier", "MPI_File_write_at", "VFS_write", "libc_puts"}
	var args []string
	for i := 0; i < rng.Intn(4); i++ {
		args = append(args, string(rune('a'+rng.Intn(26))))
	}
	return Record{
		Time:   sim.Time(rng.Int63n(1e15)),
		Dur:    sim.Duration(rng.Int63n(1e10)),
		Node:   "node" + string(rune('0'+rng.Intn(10))),
		Rank:   rng.Intn(64) - 1,
		PID:    rng.Intn(1 << 15),
		Class:  EventClass(rng.Intn(int(numClasses))),
		Name:   names[rng.Intn(len(names))],
		Args:   args,
		Ret:    "0",
		Path:   "/scratch/file",
		Offset: rng.Int63n(1 << 40),
		Bytes:  rng.Int63n(1 << 30),
		UID:    rng.Intn(1 << 16),
		GID:    rng.Intn(1 << 16),
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var in []Record
	for i := 0; i < 1000; i++ {
		in = append(in, randomRecord(rng))
	}
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{Compress: compress, RecordsPerBlock: 64})
		for i := range in {
			if err := w.Write(&in[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out, err := Collect(NewBinaryReader(&buf))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if len(out) != len(in) {
			t.Fatalf("compress=%v: got %d records, want %d", compress, len(out), len(in))
		}
		for i := range in {
			a, b := in[i], out[i]
			// Args nil vs empty slice normalization.
			if len(a.Args) == 0 {
				a.Args = nil
			}
			if len(b.Args) == 0 {
				b.Args = nil
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("compress=%v: record %d mismatch:\n%+v\n%+v", compress, i, a, b)
			}
		}
	}
}

// goldenRecords is the deterministic record set behind the v1 goldens in
// testdata: a trace-like mix of syscall, MPI and VFS calls over a few ranks.
func goldenRecords() []Record {
	rng := rand.New(rand.NewSource(1))
	names := []string{"SYS_write", "SYS_read", "SYS_lseek", "MPI_File_write_at", "MPI_Barrier", "VFS_write"}
	out := make([]Record, 1300)
	for i := range out {
		rank := rng.Intn(8)
		r := Record{
			Time:  sim.Time(i) * 37 * sim.Microsecond,
			Dur:   sim.Duration(rng.Intn(500)) * sim.Microsecond,
			Node:  fmt.Sprintf("n%d", rank/4),
			Rank:  rank,
			PID:   4000 + rank,
			Class: EventClass(rng.Intn(int(numClasses))),
			Name:  names[rng.Intn(len(names))],
			Ret:   "0",
		}
		if r.Name != "MPI_Barrier" {
			r.Path = fmt.Sprintf("/pfs/out.%d", rank)
			r.Offset = int64(i) * 65536
			r.Bytes = 65536
			r.Ret = "65536"
			r.Args = []string{fmt.Sprint(3 + rank%2), "65536"}
			r.UID, r.GID = 500, 500
		}
		out[i] = r
	}
	return withSpans(out, 2)
}

// goldenCases are the v1 encodings pinned byte-for-byte in testdata: three
// blocks of the default 512 records (the last one partial), with and
// without compression and span fields.
var goldenCases = []struct {
	file string
	opts BinaryOptions
}{
	{"v1_plain.bin", BinaryOptions{}},
	{"v1_compressed.bin", BinaryOptions{Compress: true}},
	{"v1_spans.bin", BinaryOptions{Spans: true}},
	{"v1_spans_compressed.bin", BinaryOptions{Compress: true, Spans: true}},
}

// TestBinaryGolden pins the v1 wire format: encoding goldenRecords must
// reproduce each golden file exactly, and each file must decode back to
// the records it was written from.
func TestBinaryGolden(t *testing.T) {
	recs := goldenRecords()
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := NewBinaryWriter(&buf, tc.opts)
			if err := WriteAll(w, recs); err != nil {
				t.Fatal(err)
			}
			if w.BlocksWritten() != 3 || w.BytesWritten() != int64(buf.Len()) {
				t.Fatalf("blocks = %d, bytes = %d for a %d-byte buffer, want 3 blocks",
					w.BlocksWritten(), w.BytesWritten(), buf.Len())
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("encoding differs from golden (%d vs %d bytes)", buf.Len(), len(want))
			}
			got, err := Collect(NewBinaryReader(bytes.NewReader(want)))
			if err != nil {
				t.Fatal(err)
			}
			wantRecs := recs
			if !tc.opts.Spans {
				wantRecs = stripSpans(recs)
			}
			if !reflect.DeepEqual(normalizeArgs(wantRecs), normalizeArgs(got)) {
				t.Fatal("golden does not decode to its records")
			}
		})
	}
}

func TestBinaryCompressionShrinksRepetitiveTraces(t *testing.T) {
	rec := sampleRecord()
	var plain, comp bytes.Buffer
	wp := NewBinaryWriter(&plain, BinaryOptions{})
	wc := NewBinaryWriter(&comp, BinaryOptions{Compress: true})
	for i := 0; i < 2000; i++ {
		if err := wp.Write(&rec); err != nil {
			t.Fatal(err)
		}
		if err := wc.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	wp.Close()
	wc.Close()
	if comp.Len() >= plain.Len()/2 {
		t.Fatalf("compression ineffective: %d vs %d", comp.Len(), plain.Len())
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{RecordsPerBlock: 8})
	rec := sampleRecord()
	for i := 0; i < 32; i++ {
		if err := w.Write(&rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data := buf.Bytes()
	// Flip a byte in the middle of the stream (inside some block payload).
	data[len(data)/2] ^= 0xFF
	_, err := Collect(NewBinaryReader(bytes.NewReader(data)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBinaryDetectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{RecordsPerBlock: 8})
	rec := sampleRecord()
	for i := 0; i < 32; i++ {
		w.Write(&rec)
	}
	w.Close()
	data := buf.Bytes()[:buf.Len()-5]
	_, err := Collect(NewBinaryReader(bytes.NewReader(data)))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// mkBlocks encodes `blocks` blocks of `perBlock` records each.
func mkBlocks(t *testing.T, blocks, perBlock int, compress bool) []byte {
	t.Helper()
	recs := randomRecords(blocks*perBlock, 37)
	var buf bytes.Buffer
	if err := WriteAll(NewBinaryWriter(&buf, BinaryOptions{Compress: compress, RecordsPerBlock: perBlock}), recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// blockOffsets walks the frame headers and returns each block's start.
func blockOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	pos := 9 // magic + flags
	for pos < len(data) {
		offs = append(offs, pos)
		plen := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 8 + plen
	}
	return offs
}

// Mid-stream CRC corruption must yield every record of the blocks before
// the bad one, then ErrCorrupt.
func TestReadersMidStreamCRCCorruption(t *testing.T) {
	const perBlock = 16
	data := mkBlocks(t, 4, perBlock, false)
	offs := blockOffsets(t, data)
	if len(offs) != 4 {
		t.Fatalf("expected 4 blocks, found %d", len(offs))
	}
	// Flip a byte inside block 2's payload.
	bad := append([]byte(nil), data...)
	bad[offs[2]+8] ^= 0xFF

	t.Run("serial", func(t *testing.T) {
		r := NewBinaryReader(bytes.NewReader(bad))
		recs, err := Collect(r)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(recs) != 2*perBlock {
			t.Fatalf("got %d records before the corrupt block, want %d", len(recs), 2*perBlock)
		}
		checkErrSticks(t, r, err)
	})
}

// checkErrSticks checks that a source which returned err keeps returning
// it, with no record: it neither reads on past a corrupt block nor turns
// the corruption into a clean io.EOF.
func checkErrSticks(t *testing.T, src Source, err error) {
	t.Helper()
	for i := range 3 {
		rec, again := src.Next()
		if again != err || !reflect.DeepEqual(rec, Record{}) {
			t.Fatalf("Next %d after %v: record %+v, err = %v", i+1, err, rec, again)
		}
	}
}

// ... and truncation mid-block behaves the same way.
func TestReadersMidStreamTruncation(t *testing.T) {
	const perBlock = 16
	data := mkBlocks(t, 4, perBlock, true)
	offs := blockOffsets(t, data)
	// Cut the stream in the middle of block 3's payload.
	cut := data[:offs[3]+10]

	t.Run("serial", func(t *testing.T) {
		r := NewBinaryReader(bytes.NewReader(cut))
		recs, err := Collect(r)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if len(recs) != 3*perBlock {
			t.Fatalf("got %d records before truncation, want %d", len(recs), 3*perBlock)
		}
		checkErrSticks(t, r, err)
	})
}

func TestBinaryBadMagic(t *testing.T) {
	_, err := NewBinaryReader(strings.NewReader("NOTATRACEFILE")).Next()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{})
	w.Close()
	recs, err := Collect(NewBinaryReader(&buf))
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

func TestBinaryFlagsExposed(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{Compress: true, Anonymized: true})
	rec := sampleRecord()
	w.Write(&rec)
	w.Close()
	r := NewBinaryReader(&buf)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Flags()&FlagCompressed == 0 || r.Flags()&FlagAnonymized == 0 {
		t.Fatalf("flags = %b", r.Flags())
	}
}

// Property: binary encode/decode is the identity on records.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomRecord(rng)
		var buf bytes.Buffer
		w := NewBinaryWriter(&buf, BinaryOptions{})
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Close()
		out, err := Collect(NewBinaryReader(&buf))
		if err != nil || len(out) != 1 {
			return false
		}
		a, b := in, out[0]
		if len(a.Args) == 0 {
			a.Args = nil
		}
		if len(b.Args) == 0 {
			b.Args = nil
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: text writer output always parses back with matching name/ret/dur
// for well-formed records.
func TestTextRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomRecord(rng)
		in.Time = sim.Time(rng.Int63n(int64(24 * 3600 * sim.Second)))
		// Text format carries microsecond resolution only.
		in.Time = in.Time / 1000 * 1000
		in.Dur = in.Dur / 1000 * 1000
		var buf bytes.Buffer
		w := NewTextSink(&buf)
		if err := w.Write(&in); err != nil {
			return false
		}
		w.Flush()
		out, err := Collect(NewTextReader(&buf))
		if err != nil || len(out) != 1 {
			return false
		}
		got := out[0]
		return got.Name == in.Name && got.Ret == in.Ret &&
			got.Dur == in.Dur && got.Time == in.Time &&
			got.Node == in.Node && got.Rank == in.Rank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClassStringRoundTrip(t *testing.T) {
	for c := EventClass(0); c < numClasses; c++ {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("class %v round trip: %v %v", c, got, err)
		}
	}
	if _, err := ParseClass("bogus"); err == nil {
		t.Fatal("expected error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sampleRecord()
	c := r.Clone()
	c.Args[0] = "mutated"
	if r.Args[0] == "mutated" {
		t.Fatal("Clone shares Args")
	}
}

func TestEstimatedTextSizePositive(t *testing.T) {
	r := sampleRecord()
	if r.EstimatedTextSize() <= 0 {
		t.Fatal("estimate not positive")
	}
}

func TestTextReaderEOFBehavior(t *testing.T) {
	r := NewTextReader(strings.NewReader(""))
	_, err := r.Next()
	if err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

// readAuto drains OpenAuto into a slice.
func readAuto(r io.Reader) ([]Record, Format, error) {
	src, format, err := OpenAuto(r)
	if err != nil {
		return nil, format, err
	}
	recs, err := Collect(src)
	return recs, format, err
}

func TestReadAutoDetectsBoth(t *testing.T) {
	rec := sampleRecord()
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin, BinaryOptions{})
	bw.Write(&rec)
	bw.Close()
	recs, format, err := readAuto(&bin)
	if err != nil || format != FormatBinary || len(recs) != 1 {
		t.Fatalf("binary auto: %v %v %d", err, format, len(recs))
	}

	var txt bytes.Buffer
	tw := NewTextSink(&txt)
	tw.Write(&rec)
	tw.Flush()
	recs, format, err = readAuto(&txt)
	if err != nil || format != FormatText || len(recs) != 1 {
		t.Fatalf("text auto: %v %v %d", err, format, len(recs))
	}
}

func TestReadAutoEmpty(t *testing.T) {
	_, format, _ := OpenAuto(strings.NewReader(""))
	if format != FormatUnknown {
		t.Fatalf("format = %v", format)
	}
	if FormatUnknown.String() != "unknown" || FormatText.String() != "text" || FormatBinary.String() != "binary" {
		t.Fatal("format strings")
	}
}

// Property: the binary reader never panics on arbitrary input; it returns
// records or an error.
func TestBinaryReaderFuzzProperty(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %x", data)
			}
		}()
		Collect(NewBinaryReader(bytes.NewReader(data)))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Also with a valid header followed by garbage.
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf, BinaryOptions{})
	rec := sampleRecord()
	w.Write(&rec)
	w.Close()
	data := append(buf.Bytes(), 0xde, 0xad, 0xbe, 0xef, 0x01)
	if _, err := Collect(NewBinaryReader(bytes.NewReader(data))); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// hostileInputs are v1 streams whose length prefixes claim far more data
// than the input holds. A reader that sizes an allocation by such a prefix
// before checking what is actually there allocates the claimed size.
var hostileInputs = []struct {
	name string
	data []byte
}{
	// A block header claiming a 1 GiB payload, and no payload.
	{"block-length-1GiB", append(binaryMagic[:], 0, 0x00, 0x00, 0x00, 0x40, 0, 0, 0, 0)},
	// One valid block whose first record's Node string claims 16 MiB:
	// Time, Dur, then len(Node) = 1<<24.
	{"string-length-16MiB", frameStream(0, []byte{0x00, 0x00, 0x80, 0x80, 0x80, 0x08})},
}

// frameStream wraps payload as a v1 stream of one block with a valid CRC.
func frameStream(flags byte, payload []byte) []byte {
	out := append(binaryMagic[:], flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestBinaryReaderBoundsAllocations checks that the reader's allocations
// are bounded by the bytes actually present, not by a length prefix.
func TestBinaryReaderBoundsAllocations(t *testing.T) {
	for _, tc := range hostileInputs {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Collect(NewBinaryReader(bytes.NewReader(tc.data)))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d-byte input allocated %d bytes", len(tc.data), alloc)
			}
		})
	}
}

// FuzzBinaryReader checks the v1 reader's contract on arbitrary input:
// every Next returns a record, io.EOF, or an error wrapping ErrCorrupt,
// and never panics. The seeds encode the first golden records with each
// golden case's options, in blocks of three: the full golden files are
// large enough that minimizing every new input mutated from them would use
// up a short fuzzing run.
func FuzzBinaryReader(f *testing.F) {
	recs := goldenRecords()[:6]
	for _, tc := range goldenCases {
		opts := tc.opts
		opts.RecordsPerBlock = 3
		var buf bytes.Buffer
		if err := WriteAll(NewBinaryWriter(&buf, opts), recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, tc := range hostileInputs {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBinaryReader(t, data)
		// A mutation rarely keeps a block CRC valid, so also read data as
		// one valid block (flags from its first byte): that reaches
		// decompression and record decoding.
		if len(data) > 0 {
			checkBinaryReader(t, frameStream(data[0], data[1:]))
		}
	})
}

// FuzzOpenAuto checks the format-sniffing entry point on arbitrary input:
// OpenAuto (through DetectFormat) picks a decoder, and draining it yields
// records until io.EOF or an error. It must never panic, and never allocate
// by a length or count the input does not back. The seeds are a few golden
// records as text, v1 and v2, plain and compressed, two records per block.
func FuzzOpenAuto(f *testing.F) {
	recs := goldenRecords()[:4]
	for _, sink := range []func(io.Writer) Sink{
		func(w io.Writer) Sink { return NewTextSink(w) },
		func(w io.Writer) Sink { return NewBinaryWriter(w, BinaryOptions{RecordsPerBlock: 2}) },
		func(w io.Writer) Sink { return NewColumnarWriter(w, ColumnarOptions{RecordsPerBlock: 2}) },
		func(w io.Writer) Sink {
			return NewColumnarWriter(w, ColumnarOptions{RecordsPerBlock: 2, Compress: true})
		},
	} {
		var buf bytes.Buffer
		if err := WriteAll(sink(&buf), recs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, _, err := OpenAuto(bytes.NewReader(data))
		for err == nil {
			_, err = src.Next()
		}
		runtime.ReadMemStats(&after)
		// Far above what a fuzz-sized input decodes to, far below what
		// a forged length prefix (up to 1 GiB) or record count claims.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Fatalf("%d-byte input allocated %d bytes", len(data), alloc)
		}
	})
}

// FuzzTextReader checks the text parser on arbitrary input: draining a
// TextReader yields records until io.EOF or an error. It must never panic,
// and never allocate far beyond what the input backs. The seed is a few
// golden records as text, plus a header line and a malformed line; a large
// seed would make the fuzzer spend its time minimizing.
func FuzzTextReader(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteAll(NewTextSink(&buf), goldenRecords()[:4]); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# node=n0 rank=3 pid=42\n10:00:00.000001 SYS_write(3, \"a,b\", 4) = 4 <0.000010>\n"))
	f.Add([]byte("10:00:00.5 MPI_File_open((\"x\") = <1.2>\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewTextReader(bytes.NewReader(data))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		runtime.ReadMemStats(&after)
		// The reader's 64 KiB line buffer may grow to its 1 MiB line
		// limit, and parsing adds a small multiple of the input.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
			t.Fatalf("%d-byte input allocated %d bytes", len(data), alloc)
		}
	})
}

// checkBinaryReader drains a reader over data, failing on any error other
// than io.EOF or one wrapping ErrCorrupt.
func checkBinaryReader(t *testing.T, data []byte) {
	r := NewBinaryReader(bytes.NewReader(data))
	for {
		_, err := r.Next()
		if err == nil {
			continue
		}
		if err != io.EOF && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want io.EOF or ErrCorrupt", err)
		}
		return
	}
}

// Property: the text parser never panics on arbitrary lines.
func TestTextReaderFuzzProperty(t *testing.T) {
	f := func(line string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("panic on %q", line)
			}
		}()
		Collect(NewTextReader(strings.NewReader(line + "\n")))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
