// Package aggregate implements the paper's future-work proposal (Section 6):
// "We intend to build a common framework for diverse trace aggregation.
// With such a framework, we would be able to present a single trace-data
// API to developers for use while building trace analysis tools or for use
// directly in distributed applications."
//
// Source is that single trace-data API: every tracing framework in the
// repository exposes its data through an adapter, and Aggregator merges any
// mix of sources onto one timeline (applying per-node clock correction when
// the source supports it) with provenance preserved, queryable by event
// class, path glob, rank and time window.
package aggregate

import (
	"fmt"
	"io"
	"path"
	"sort"
	"strings"

	"iotaxo/internal/analysis"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Capabilities describes what a source's data can support, mirroring the
// taxonomy axes that matter to analysis tools.
type Capabilities struct {
	EventClasses  []trace.EventClass
	SkewCorrected bool // timestamps mapped onto a shared timeline
	Replayable    bool
}

// Source is the single trace-data API.
type Source interface {
	// Name identifies the producing framework.
	Name() string
	// Open returns a streaming cursor over the source's events. Each call
	// returns an independent cursor; records are safe for the caller to
	// mutate.
	Open() (trace.Source, error)
	// Capabilities describes the data.
	Capabilities() Capabilities
}

// Event is one record with provenance.
type Event struct {
	trace.Record
	Source string
}

// --- adapters ---

// streamSource is the generic adapter: open returns a fresh streaming
// cursor each call. Each open func must yield records the caller may
// mutate — sources backed by shared storage clone on the way out (lead
// with trace.CloneTransform); decoders and generators that produce fresh
// records per pull need not pay for a second copy.
type streamSource struct {
	name string
	caps Capabilities
	open func() (trace.Source, error)
}

func (s *streamSource) Name() string               { return s.name }
func (s *streamSource) Capabilities() Capabilities { return s.caps }

func (s *streamSource) Open() (trace.Source, error) {
	return s.open()
}

// FromRecords wraps a plain record slice (e.g. parsed from a file).
func FromRecords(name string, recs []trace.Record, caps Capabilities) Source {
	return &streamSource{
		name: name,
		caps: caps,
		open: func() (trace.Source, error) {
			// The slice's storage is shared; clone so callers may mutate.
			return trace.TransformSource(trace.SliceSource(recs), trace.CloneTransform), nil
		},
	}
}

// FromLANLTrace adapts a LANL-Trace report. Skew correction uses the
// report's own barrier timing job; records are mapped onto rank 0's clock —
// the analysis the aggregate timing output exists for.
func FromLANLTrace(rep *lanltrace.Report) Source {
	caps := Capabilities{
		EventClasses:  []trace.EventClass{trace.ClassSyscall, trace.ClassLibCall, trace.ClassMPI},
		SkewCorrected: true,
	}
	return &streamSource{
		name: "LANL-Trace",
		caps: caps,
		open: func() (trace.Source, error) {
			est, err := rep.ClockEstimates()
			if err != nil {
				// No timing job: fall back to raw local timestamps. The
				// collectors' storage is shared, so clone on the way out
				// (CorrectingSource below already does).
				return trace.TransformSource(rep.RecordSource(), trace.CloneTransform), nil
			}
			return analysis.CorrectingSource(rep.RecordSource(), est), nil
		},
	}
}

// FromReplayable adapts a //TRACE replayable trace: each op becomes an MPI
// I/O record with timestamps reconstructed from the cumulative think times
// (the best the format carries).
func FromReplayable(tr *replay.Trace) Source {
	return &streamSource{
		name: "//TRACE",
		caps: Capabilities{
			EventClasses: []trace.EventClass{trace.ClassMPI},
			Replayable:   true,
		},
		open: func() (trace.Source, error) {
			return &replayableSource{tr: tr}, nil
		},
	}
}

// replayableSource generates one MPI record per op on demand, instead of
// expanding the whole replayable trace up front.
type replayableSource struct {
	tr   *replay.Trace
	rank int
	op   int
	t    sim.Time
}

func (s *replayableSource) Next() (trace.Record, error) {
	for s.rank < len(s.tr.Ops) {
		ops := s.tr.Ops[s.rank]
		if s.op >= len(ops) {
			s.rank++
			s.op = 0
			s.t = 0
			continue
		}
		op := ops[s.op]
		s.op++
		s.t += op.Compute
		return trace.Record{
			Time:   s.t,
			Rank:   s.rank,
			Class:  trace.ClassMPI,
			Name:   op.Kind.MPIName(),
			Path:   op.Path,
			Offset: op.Offset,
			Bytes:  op.Bytes,
			Ret:    "0",
		}, nil
	}
	return trace.Record{}, io.EOF
}

// --- the aggregator ---

// Aggregator merges sources.
type Aggregator struct {
	sources []Source
}

// New returns an aggregator over the given sources.
func New(sources ...Source) *Aggregator {
	return &Aggregator{sources: sources}
}

// Add appends a source.
func (a *Aggregator) Add(s Source) { a.sources = append(a.sources, s) }

// Sources lists source names in order.
func (a *Aggregator) Sources() []string {
	out := make([]string, len(a.sources))
	for i, s := range a.sources {
		out[i] = s.Name()
	}
	return out
}

// Merged returns all events ordered by timestamp with provenance. Events
// are pulled through each source's streaming cursor; the slice exists only
// because a global sort needs random access.
func (a *Aggregator) Merged() ([]Event, error) {
	var out []Event
	for _, s := range a.sources {
		src, err := s.Open()
		if err != nil {
			return nil, fmt.Errorf("aggregate: source %s: %w", s.Name(), err)
		}
		name := s.Name()
		_, err = trace.Copy(trace.SinkFunc(func(r *trace.Record) error {
			out = append(out, Event{Record: *r, Source: name})
			return nil
		}), src)
		if err != nil {
			return nil, fmt.Errorf("aggregate: source %s: %w", name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out, nil
}

// Query selects events. Zero values mean "any".
type Query struct {
	Classes  []trace.EventClass
	PathGlob string
	Rank     int // -1 = any
	From, To sim.Time
	OnlyIO   bool
	Source   string
}

// matches reports whether an event satisfies the query.
func (q Query) matches(e *Event) bool {
	if len(q.Classes) > 0 {
		ok := false
		for _, c := range q.Classes {
			if e.Class == c {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if q.PathGlob != "" {
		ok, _ := path.Match(q.PathGlob, e.Path)
		if !ok && strings.HasSuffix(q.PathGlob, "/*") {
			ok = strings.HasPrefix(e.Path, strings.TrimSuffix(q.PathGlob, "*"))
		}
		if !ok {
			return false
		}
	}
	if q.Rank >= 0 && e.Rank != q.Rank {
		return false
	}
	if q.From != 0 && e.Time < q.From {
		return false
	}
	if q.To != 0 && e.Time >= q.To {
		return false
	}
	if q.OnlyIO && !e.IsIO() {
		return false
	}
	if q.Source != "" && e.Source != q.Source {
		return false
	}
	return true
}

// Select returns the matching events in timestamp order.
func (a *Aggregator) Select(q Query) ([]Event, error) {
	all, err := a.Merged()
	if err != nil {
		return nil, err
	}
	var out []Event
	for i := range all {
		if q.matches(&all[i]) {
			out = append(out, all[i])
		}
	}
	return out, nil
}

// Summary aggregates per-source statistics: the quick health check an
// analysis tool runs before digging in.
type Summary struct {
	Source  string
	Records int
	IOBytes int64
	First   sim.Time
	Last    sim.Time
	Classes map[trace.EventClass]int
}

// Summarize reports per-source statistics, folding each source's stream in
// O(1) memory.
func (a *Aggregator) Summarize() ([]Summary, error) {
	var out []Summary
	for _, s := range a.sources {
		src, err := s.Open()
		if err != nil {
			return nil, fmt.Errorf("aggregate: source %s: %w", s.Name(), err)
		}
		sum := Summary{Source: s.Name(), Classes: make(map[trace.EventClass]int)}
		_, err = trace.Copy(trace.SinkFunc(func(r *trace.Record) error {
			sum.Records++
			sum.Classes[r.Class]++
			if r.IsIO() {
				sum.IOBytes += r.Bytes
			}
			if sum.Records == 1 || r.Time < sum.First {
				sum.First = r.Time
			}
			if end := r.Time + r.Dur; end > sum.Last {
				sum.Last = end
			}
			return nil
		}), src)
		if err != nil {
			return nil, fmt.Errorf("aggregate: source %s: %w", s.Name(), err)
		}
		out = append(out, sum)
	}
	return out, nil
}

// FormatSummaries renders the per-source overview.
func FormatSummaries(sums []Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %12s %16s %16s %s\n",
		"source", "records", "io bytes", "first", "last", "classes")
	for _, s := range sums {
		var classes []string
		for c, n := range s.Classes {
			classes = append(classes, fmt.Sprintf("%s:%d", c, n))
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "%-12s %8d %12d %16v %16v %s\n",
			s.Source, s.Records, s.IOBytes, s.First, s.Last, strings.Join(classes, " "))
	}
	return b.String()
}

// TimelineCSV exports the merged timeline for external tooling.
func (a *Aggregator) TimelineCSV() (string, error) {
	events, err := a.Merged()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("time_ns,source,node,rank,class,name,path,offset,bytes,dur_ns\n")
	for _, e := range events {
		fmt.Fprintf(&b, "%d,%s,%s,%d,%s,%s,%s,%d,%d,%d\n",
			int64(e.Time), e.Source, e.Node, e.Rank, e.Class, e.Name,
			e.Path, e.Offset, e.Bytes, int64(e.Dur))
	}
	return b.String(), nil
}
