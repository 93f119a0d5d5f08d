package trace

import (
	"container/heap"
	"io"
)

// This file is the streaming pipeline layer: every producer of trace data in
// the repository exposes a Source (a pull iterator of Records), every
// consumer accepts them through a Sink (a push consumer), and Transforms
// compose between the two. Whole-trace []Record slices remain available as
// thin wrappers (Collect, SliceSource) for callers that genuinely need
// random access, but the pipeline itself never materializes more than one
// record (or, for the block codec, one block) at a time — the property that
// keeps multi-million-event parallel traces tractable.

// Source is a pull iterator over trace records. Next returns io.EOF after
// the last record. Implementations are not required to be safe for
// concurrent use.
type Source interface {
	Next() (Record, error)
}

// Sink is a push consumer of trace records. Write may retain nothing from
// the record after it returns; Close flushes any buffered state and must be
// called exactly once when the stream ends.
type Sink interface {
	Write(r *Record) error
	Close() error
}

// Transform mutates or filters one record in place as it flows through a
// pipeline. Returning keep=false drops the record.
type Transform func(r *Record) (keep bool, err error)

// CloneTransform deep-copies the record so downstream transforms can mutate
// Args without aliasing the producer's storage. Put it first in a transform
// chain whenever the source yields shared slices (e.g. SliceSource).
func CloneTransform(r *Record) (bool, error) {
	*r = r.Clone()
	return true, nil
}

// --- sources ---

// sliceSource yields shallow copies of a record slice.
type sliceSource struct {
	recs []Record
	i    int
}

// SliceSource adapts an in-memory trace to the streaming API. Records are
// yielded as shallow copies: Args still aliases the slice's storage, so
// mutating pipelines should lead with CloneTransform.
func SliceSource(recs []Record) Source {
	return &sliceSource{recs: recs}
}

func (s *sliceSource) Next() (Record, error) {
	if s.i >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// emptySource yields nothing.
type emptySource struct{}

func (emptySource) Next() (Record, error) { return Record{}, io.EOF }

// EmptySource returns a source with no records.
func EmptySource() Source { return emptySource{} }

// transformSource applies a transform chain to an inner source.
type transformSource struct {
	src Source
	fns []Transform
}

// TransformSource wraps src so every record passes through the transforms in
// order. Records any transform drops are skipped.
func TransformSource(src Source, fns ...Transform) Source {
	if len(fns) == 0 {
		return src
	}
	return &transformSource{src: src, fns: fns}
}

func (t *transformSource) Next() (Record, error) {
next:
	for {
		rec, err := t.src.Next()
		if err != nil {
			return Record{}, err
		}
		for _, fn := range t.fns {
			keep, err := fn(&rec)
			if err != nil {
				return Record{}, err
			}
			if !keep {
				continue next
			}
		}
		return rec, nil
	}
}

// chainSource concatenates sources.
type chainSource struct {
	srcs []Source
}

// ChainSources yields all records of each source in turn — the per-process
// trace files of one run read back to back.
func ChainSources(srcs ...Source) Source {
	return &chainSource{srcs: srcs}
}

func (c *chainSource) Next() (Record, error) {
	for len(c.srcs) > 0 {
		rec, err := c.srcs[0].Next()
		if err == io.EOF {
			c.srcs = c.srcs[1:]
			continue
		}
		return rec, err
	}
	return Record{}, io.EOF
}

// --- streaming k-way merge ---

type mergeItem struct {
	rec Record
	idx int // source index, for stability across equal timestamps
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].rec.Time != h[j].rec.Time {
		return h[i].rec.Time < h[j].rec.Time
	}
	return h[i].idx < h[j].idx
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeSource merges time-sorted sources with a min-heap, holding one
// record per input at a time.
type mergeSource struct {
	srcs    []Source
	h       mergeHeap
	started bool
	err     error // sticky; delivered after every record pulled before it
}

// MergeSources merges per-process record streams, each already ordered by
// Time, into one time-ordered stream (stable by source index across equal
// timestamps). Memory is O(number of sources), not O(trace).
func MergeSources(srcs ...Source) Source {
	return &mergeSource{srcs: srcs}
}

func (m *mergeSource) refill(idx int) error {
	rec, err := m.srcs[idx].Next()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	heap.Push(&m.h, mergeItem{rec: rec, idx: idx})
	return nil
}

func (m *mergeSource) Next() (Record, error) {
	if !m.started {
		m.started = true
		heap.Init(&m.h)
		for i := range m.srcs {
			if err := m.refill(i); err != nil {
				m.err = err
				break
			}
		}
	}
	// Drain buffered records first so a source error never swallows the
	// records pulled before it (the pipeline's records-before-error
	// contract).
	if m.h.Len() == 0 {
		if m.err != nil {
			return Record{}, m.err
		}
		return Record{}, io.EOF
	}
	item := heap.Pop(&m.h).(mergeItem)
	if m.err == nil {
		if err := m.refill(item.idx); err != nil {
			m.err = err
		}
	}
	return item.rec, nil
}

// --- sinks ---

// SinkFunc adapts a function to Sink with a no-op Close.
type SinkFunc func(r *Record) error

// Write implements Sink.
func (f SinkFunc) Write(r *Record) error { return f(r) }

// Close implements Sink.
func (f SinkFunc) Close() error { return nil }

// collectSink accumulates records.
type collectSink struct {
	recs []Record
}

func (c *collectSink) Write(r *Record) error {
	c.recs = append(c.recs, r.Clone())
	return nil
}

func (c *collectSink) Close() error { return nil }

// teeSink fans each record out to several sinks.
type teeSink struct {
	sinks []Sink
}

// TeeSink writes every record to all sinks; Close closes each and returns
// the first error.
func TeeSink(sinks ...Sink) Sink {
	return &teeSink{sinks: sinks}
}

func (t *teeSink) Write(r *Record) error {
	for _, s := range t.sinks {
		if err := s.Write(r); err != nil {
			return err
		}
	}
	return nil
}

func (t *teeSink) Close() error {
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// transformSink applies a transform chain before the inner sink.
type transformSink struct {
	dst Sink
	fns []Transform
}

// TransformSink wraps dst so every record passes through the transforms
// before being written; dropped records are not forwarded.
func TransformSink(dst Sink, fns ...Transform) Sink {
	if len(fns) == 0 {
		return dst
	}
	return &transformSink{dst: dst, fns: fns}
}

func (t *transformSink) Write(r *Record) error {
	for _, fn := range t.fns {
		keep, err := fn(r)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
	}
	return t.dst.Write(r)
}

func (t *transformSink) Close() error { return t.dst.Close() }

// --- pumps and wrappers ---

// Copy pumps src into dst one record at a time, returning the record count.
// It does not Close dst, so a caller can pump several sources into one sink.
func Copy(dst Sink, src Source) (int64, error) {
	var n int64
	// One record for the whole pump: passing &rec to the interface call
	// moves it to the heap, once per Copy instead of once per record. Sinks
	// retain nothing from a record, so reusing it is safe.
	var rec Record
	for {
		var err error
		rec, err = src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(&rec); err != nil {
			return n, err
		}
		n++
	}
}

// Collect drains a source into a slice: the bridge back to the slice-based
// helpers. Records already consumed are returned alongside a mid-stream
// error, mirroring the readers' ReadAll behavior.
func Collect(src Source) ([]Record, error) {
	var sink collectSink
	_, err := Copy(&sink, src)
	return sink.recs, err
}

// WriteAll pumps a record slice into a sink and closes it: the slice-based
// write helper over the streaming core.
func WriteAll(dst Sink, recs []Record) error {
	if _, err := Copy(dst, SliceSource(recs)); err != nil {
		dst.Close()
		return err
	}
	return dst.Close()
}

// The on-disk format codecs are Source/Sink adapters by construction.
var (
	_ Source = (*TextReader)(nil)
	_ Source = (*BinaryReader)(nil)
	_ Source = (*ColumnarSource)(nil)
	_ Source = (*ColumnarScan)(nil)
	_ Sink   = (*TextWriter)(nil)
	_ Sink   = (*BinaryWriter)(nil)
	_ Sink   = (*ColumnarWriter)(nil)
)
