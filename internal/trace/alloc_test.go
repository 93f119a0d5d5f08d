package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"iotaxo/internal/sim"
)

// Allocation guards for the codec's hot paths. Each bound is far below what
// allocating per record, per string or per claimed count would cost, and
// far above the few allocations per reader, writer or block that remain.

// repeatedRecords returns n records whose strings come from small sets, so
// a 512-record v1 block of them holds few distinct strings, and no args.
func repeatedRecords(n int) (recs []Record, distinct int) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	names := []string{"SYS_write", "SYS_read", "SYS_lseek"}
	paths := []string{"/pfs/a", "/pfs/b"}
	rets := []string{"0", "65536"}
	recs = make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Time: sim.Time(i) * sim.Microsecond, Rank: i % 4, PID: 100,
			Node: nodes[i%len(nodes)], Name: names[i%len(names)],
			Path: paths[i%len(paths)], Ret: rets[i%len(rets)],
			Offset: int64(i) << 16, Bytes: 65536,
		}
	}
	return recs, len(nodes) + len(names) + len(paths) + len(rets)
}

// TestBinaryReaderInternsStrings checks that draining a v1 block allocates
// each distinct string once, not each string of each record.
func TestBinaryReaderInternsStrings(t *testing.T) {
	recs, distinct := repeatedRecords(512)
	var buf bytes.Buffer
	if err := WriteAll(NewBinaryWriter(&buf, BinaryOptions{}), recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		r := NewBinaryReader(bytes.NewReader(data))
		n := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n++
		}
		if n != len(recs) || r.BlocksRead() != 1 {
			t.Fatalf("read %d records in %d blocks, want %d in 1", n, r.BlocksRead(), len(recs))
		}
	})
	// The constant covers the reader, its block buffer's growth and its
	// intern map.
	if limit := float64(distinct + 24); allocs > limit {
		t.Fatalf("draining %d records with %d distinct strings allocated %.0f times, want <= %.0f",
			len(recs), distinct, allocs, limit)
	}
}

// countSink counts records and retains nothing.
type countSink struct{ n int }

func (s *countSink) Write(*Record) error { s.n++; return nil }
func (s *countSink) Close() error        { return nil }

// TestCopyAllocatesOnce checks that Copy's record escapes once per call,
// not once per record.
func TestCopyAllocatesOnce(t *testing.T) {
	recs := randomRecords(1000, 3)
	sink := &countSink{}
	for _, n := range []int{10, len(recs)} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Copy(sink, SliceSource(recs[:n])); err != nil {
				t.Fatal(err)
			}
		})
		// One for the source, one for the record.
		if allocs > 2 {
			t.Fatalf("Copy of %d records allocated %.0f times, want <= 2", n, allocs)
		}
	}
}

// TestColumnarWriterAllocatesNothingPerRecord checks that an uncompressed
// v2 writer past its first block reuses its column buffers, dictionary and
// maps: a whole block of records costs only the few allocations of writing
// it out. The records carry distinct numeric args, which ride inline.
func TestColumnarWriterAllocatesNothingPerRecord(t *testing.T) {
	const perBlock = 256
	recs, _ := repeatedRecords(perBlock)
	for i := range recs {
		recs[i].Args = []string{"3", strconv.FormatInt(recs[i].Offset+1<<20, 10), "65536"}
	}
	w := NewColumnarWriter(io.Discard, ColumnarOptions{RecordsPerBlock: perBlock})
	block := func() {
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	block() // the first block sizes the buffers
	allocs := testing.AllocsPerRun(10, block)
	if allocs > 4 {
		t.Fatalf("a block of %d records allocated %.0f times, want <= 4 (none per record)", perBlock, allocs)
	}
	if got := w.BlocksWritten(); got != 12 {
		t.Fatalf("blocks written = %d, want 12", got)
	}
}

// TestBinaryReaderForgedArgcBounded checks that a record whose argc claims
// 65535 args, in a block holding a few dozen bytes of them, allocates by the
// bytes present, not by the claim or by growing the list an arg at a time.
func TestBinaryReaderForgedArgcBounded(t *testing.T) {
	// A first block with a long string sizes the reader's buffers.
	var first bytes.Buffer
	big := sampleRecord()
	big.Path = string(bytes.Repeat([]byte("p"), 512))
	encodeRecord(&first, &big, false)
	// Time, Dur, Node "", Rank, PID, Class, Name "", argc 65535, then 33
	// empty args and the end of the block. Sized by the bytes present, the
	// list takes 33*16 bytes; grown an arg at a time, it would reach 64
	// entries, 1 KiB alone.
	forged := append([]byte{0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03}, make([]byte, 33)...)
	data := frameStream(0, first.Bytes())
	data = append(data, frameStream(0, forged)[len(binaryMagic)+1:]...)

	// The fewest bytes over a few tries, so a pool the runtime emptied
	// (fmt's printer state, say) is not charged to the reader.
	least := uint64(1 << 62)
	for range 5 {
		r := NewBinaryReader(bytes.NewReader(data))
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 1<<10 {
		t.Fatalf("forged argc allocated %d bytes, want < 1 KiB", least)
	}
}

// forgedCountTrace returns a Closed, compressed v2 trace of one data block
// whose header and index entry claim count records, with a valid CRC over a
// payload of an empty dictionary and a times column of count zero bytes,
// which deflate to a few hundred bytes. Every other column is missing.
func forgedCountTrace(t *testing.T, count int) []byte {
	t.Helper()
	payload := []byte{colDict, 1, 0, colTimes}
	payload = binary.AppendUvarint(payload, uint64(count))
	payload = append(payload, make([]byte, count)...)

	var buf bytes.Buffer
	w := NewColumnarWriter(&buf, ColumnarOptions{Compress: true})
	if err := w.start(); err != nil {
		t.Fatal(err)
	}
	if err := w.writeBlock(BlockMeta{Count: count, ClassMask: 1, HasStats: true}, payload); err != nil {
		t.Fatal(err)
	}
	stored := w.index[0].Len - blockHeaderLen
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if stored > 1<<10 {
		t.Fatalf("forged block stores %d bytes, want a short one", stored)
	}
	return buf.Bytes()
}

// TestForgedRecordCountBounded checks that a block claiming far more records
// than its columns hold fails before anything is sized by the claim: the
// sequential reader and a match-all scan allocate by the block's bytes, not
// by a record per claimed row (about 73 MB here).
func TestForgedRecordCountBounded(t *testing.T) {
	const count = 400_000
	data := forgedCountTrace(t, count)
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"source", func() error {
			_, err := Collect(NewColumnarSource(bytes.NewReader(data)))
			return err
		}},
		{"scan", func() error {
			cr, err := NewColumnarReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				return err
			}
			_, err = Copy(&countSink{}, cr.Scan(MatchAll(), 1))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
				t.Fatalf("a block claiming %d records in %d stored bytes allocated %d bytes, want < 8 MiB", count, len(data), alloc)
			}
		})
	}
}

// TestDirectionMatchesLowerCase checks Direction's in-place case folding
// against lower-casing the name first, on ASCII and non-ASCII names.
func TestDirectionMatchesLowerCase(t *testing.T) {
	reference := func(name string) IODir {
		if _, ok := writeOps[name]; ok {
			return DirWrite
		}
		if _, ok := readOps[name]; ok {
			return DirRead
		}
		lower := strings.ToLower(name)
		switch {
		case strings.Contains(lower, "write"):
			return DirWrite
		case strings.Contains(lower, "read") && !strings.Contains(lower, "readdir"):
			return DirRead
		}
		return DirNone
	}
	for _, name := range []string{
		"", "SYS_write", "SYS_open", "NFS_READ", "ReadDir", "MPI_File_Read_all", "fwRITE",
		"readdir", "rea", "wri", "xREADx", "READDIRwrite", "ÉcRiTe_write", "İread", "Ｒead", "wrİte",
	} {
		r := Record{Name: name}
		if got, want := r.Direction(), reference(name); got != want {
			t.Errorf("Direction(%q) = %v, want %v", name, got, want)
		}
	}
}
