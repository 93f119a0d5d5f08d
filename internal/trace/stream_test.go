package trace

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

func randomRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Record, n)
	for i := range out {
		out[i] = randomRecord(rng)
	}
	return out
}

func TestSliceSourceCollectRoundTrip(t *testing.T) {
	in := randomRecords(100, 7)
	out, err := Collect(SliceSource(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("slice -> source -> collect not identity")
	}
}

func TestEmptySource(t *testing.T) {
	if _, err := EmptySource().Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	recs, err := Collect(EmptySource())
	if err != nil || len(recs) != 0 {
		t.Fatalf("recs=%d err=%v", len(recs), err)
	}
}

// The satellite requirement: the slice pipeline and the Source/Sink
// pipeline must produce byte-identical text output.
func TestStreamingTextEquivalence(t *testing.T) {
	recs := randomRecords(200, 11)
	for i := range recs {
		recs[i].Node, recs[i].Rank, recs[i].PID = "n0", 3, 44
	}

	// Slice pipeline (the seed's shape): loop over records, write each.
	var slicePath bytes.Buffer
	w := NewTextSink(&slicePath)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()

	// Streaming pipeline: source -> sink pump.
	var streamPath bytes.Buffer
	sink := NewTextSink(&streamPath)
	if _, err := Copy(sink, SliceSource(recs)); err != nil {
		t.Fatal(err)
	}
	sink.Close()

	if !bytes.Equal(slicePath.Bytes(), streamPath.Bytes()) {
		t.Fatal("text output differs between slice and streaming pipelines")
	}
}

// ... and byte-identical binary output, for both plain and compressed.
func TestStreamingBinaryEquivalence(t *testing.T) {
	recs := randomRecords(500, 13)
	for _, compress := range []bool{false, true} {
		opts := BinaryOptions{Compress: compress, RecordsPerBlock: 64}

		var slicePath bytes.Buffer
		w := NewBinaryWriter(&slicePath, opts)
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()

		var streamPath bytes.Buffer
		if err := WriteAll(NewBinaryWriter(&streamPath, opts), recs); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(slicePath.Bytes(), streamPath.Bytes()) {
			t.Fatalf("compress=%v: binary output differs between slice and streaming pipelines", compress)
		}
	}
}

func TestTransformSourceFiltersAndMutates(t *testing.T) {
	recs := []Record{
		{Name: "SYS_write", Bytes: 10},
		{Name: "MPI_Barrier"},
		{Name: "SYS_read", Bytes: 5},
	}
	onlyIO := Transform(func(r *Record) (bool, error) { return r.IsIO(), nil })
	double := Transform(func(r *Record) (bool, error) {
		r.Bytes *= 2
		return true, nil
	})
	out, err := Collect(TransformSource(SliceSource(recs), CloneTransform, onlyIO, double))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Bytes != 20 || out[1].Bytes != 10 {
		t.Fatalf("out = %+v", out)
	}
	// CloneTransform must have protected the input slice.
	if recs[0].Bytes != 10 {
		t.Fatal("transform mutated the source slice")
	}
}

func TestTransformSinkDropsRecords(t *testing.T) {
	var got []Record
	dst := SinkFunc(func(r *Record) error {
		got = append(got, r.Clone())
		return nil
	})
	sink := TransformSink(dst, func(r *Record) (bool, error) { return r.Bytes > 0, nil })
	recs := []Record{{Name: "a", Bytes: 1}, {Name: "b"}, {Name: "c", Bytes: 2}}
	if err := WriteAll(sink, recs); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "c" {
		t.Fatalf("got = %+v", got)
	}
}

func TestChainSources(t *testing.T) {
	a := []Record{{Name: "a1"}, {Name: "a2"}}
	b := []Record{{Name: "b1"}}
	out, err := Collect(ChainSources(SliceSource(a), EmptySource(), SliceSource(b)))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range out {
		names = append(names, r.Name)
	}
	if !reflect.DeepEqual(names, []string{"a1", "a2", "b1"}) {
		t.Fatalf("names = %v", names)
	}
}

func TestMergeSourcesOrdersByTime(t *testing.T) {
	a := []Record{{Name: "a", Time: 1}, {Name: "a", Time: 5}, {Name: "a", Time: 9}}
	b := []Record{{Name: "b", Time: 2}, {Name: "b", Time: 5}}
	c := []Record{{Name: "c", Time: 0}}
	out, err := Collect(MergeSources(SliceSource(a), SliceSource(b), SliceSource(c)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6 {
		t.Fatalf("len = %d", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Time < out[i-1].Time {
			t.Fatalf("out of order at %d: %+v", i, out)
		}
	}
	// Stability across the equal timestamps: source a before source b.
	if out[3].Time != 5 || out[3].Name != "a" || out[4].Name != "b" {
		t.Fatalf("unstable merge: %+v", out)
	}
}

func TestTeeSinkFansOut(t *testing.T) {
	var n1, n2 int64
	s1 := SinkFunc(func(r *Record) error { n1++; return nil })
	s2 := SinkFunc(func(r *Record) error { n2++; return nil })
	recs := randomRecords(17, 3)
	if err := WriteAll(TeeSink(s1, s2), recs); err != nil {
		t.Fatal(err)
	}
	if n1 != 17 || n2 != 17 {
		t.Fatalf("n1=%d n2=%d", n1, n2)
	}
}

func TestCopyReturnsCount(t *testing.T) {
	n, err := Copy(SinkFunc(func(r *Record) error { return nil }), SliceSource(randomRecords(31, 5)))
	if err != nil || n != 31 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestOpenAutoStreamsBothFormats(t *testing.T) {
	recs := randomRecords(50, 21)

	var bin bytes.Buffer
	if err := WriteAll(NewBinaryWriter(&bin, BinaryOptions{RecordsPerBlock: 8}), recs); err != nil {
		t.Fatal(err)
	}
	src, format, err := OpenAuto(&bin)
	if err != nil || format != FormatBinary {
		t.Fatalf("format=%v err=%v", format, err)
	}
	got, err := Collect(src)
	if err != nil || len(got) != len(recs) {
		t.Fatalf("got %d records, err=%v", len(got), err)
	}
	if br, ok := src.(interface{ BlocksRead() int64 }); !ok || br.BlocksRead() != 7 {
		t.Fatalf("blocks read: %v", ok)
	}

	var txt bytes.Buffer
	tw := NewTextSink(&txt)
	rec := sampleRecord()
	tw.Write(&rec)
	tw.Close()
	src, format, err = OpenAuto(&txt)
	if err != nil || format != FormatText {
		t.Fatalf("format=%v err=%v", format, err)
	}
	if got, err := Collect(src); err != nil || len(got) != 1 {
		t.Fatalf("text stream: %d records, err=%v", len(got), err)
	}
}

func TestTextSinkLazyHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewTextSink(&buf)
	rec := sampleRecord()
	if err := w.Write(&rec); err != nil {
		t.Fatal(err)
	}
	w.Close()
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("node=host13.lanl.gov rank=7 pid=10378")) {
		t.Fatalf("lazy header missing context:\n%s", out)
	}
}
