// Package analysis provides the trace-consumption tools the taxonomy's
// "Analysis tools" axis asks about: per-call summaries (the third LANL-Trace
// output in Figure 1), skew/drift correction of per-node timestamps onto a
// shared timeline, stream merging, and I/O statistics.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"iotaxo/internal/clocks"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// SummaryRow is one line of a call summary.
type SummaryRow struct {
	Name      string
	Calls     int64
	TotalTime sim.Duration
}

// CallSummary aggregates records by call name.
type CallSummary struct {
	rows map[string]*SummaryRow
}

// NewCallSummary returns an empty summary ready for incremental Add calls.
func NewCallSummary() *CallSummary {
	return &CallSummary{rows: make(map[string]*SummaryRow)}
}

// SummarizeSource folds a record stream into a call summary with O(1)
// memory per distinct call name.
func SummarizeSource(src trace.Source) (*CallSummary, error) {
	s := NewCallSummary()
	_, err := trace.Copy(s.Sink(), src)
	return s, err
}

// Sink exposes the summary as a streaming consumer.
func (s *CallSummary) Sink() trace.Sink {
	return trace.SinkFunc(func(r *trace.Record) error {
		s.Add(r)
		return nil
	})
}

// Add folds one record into the summary.
func (s *CallSummary) Add(r *trace.Record) {
	row, ok := s.rows[r.Name]
	if !ok {
		row = &SummaryRow{Name: r.Name}
		s.rows[r.Name] = row
	}
	row.Calls++
	row.TotalTime += r.Dur
}

// Rows returns the summary sorted by call name.
func (s *CallSummary) Rows() []SummaryRow {
	out := make([]SummaryRow, 0, len(s.rows))
	for _, r := range s.rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Format renders the summary in the style of Figure 1:
//
//	#                     SUMMARY COUNT OF TRACED CALL(S)
//	#  Function Name            Number of Calls            Total time (s)
//	=====================================================================
//	   MPI_Barrier                           29                  2.156431
func (s *CallSummary) Format() string {
	var b strings.Builder
	b.WriteString("#                     SUMMARY COUNT OF TRACED CALL(S)\n")
	b.WriteString("#  Function Name            Number of Calls            Total time (s)\n")
	b.WriteString(strings.Repeat("=", 77) + "\n")
	for _, row := range s.Rows() {
		secs := float64(row.TotalTime) / float64(sim.Second)
		fmt.Fprintf(&b, "   %-24s %15d %25.6f\n", row.Name, row.Calls, secs)
	}
	return b.String()
}

// CorrectingTransform returns a transform mapping node-local timestamps
// onto the reference timeline using per-node clock estimates. Records from
// nodes without an estimate pass through unchanged.
func CorrectingTransform(est map[string]clocks.Estimate) trace.Transform {
	return func(r *trace.Record) (bool, error) {
		if e, ok := est[r.Node]; ok {
			r.Time = e.Correct(r.Time)
		}
		return true, nil
	}
}

// CorrectingSource wraps src so records stream out skew-corrected (cloned,
// leaving the producer's storage untouched).
func CorrectingSource(src trace.Source, est map[string]clocks.Estimate) trace.Source {
	return trace.TransformSource(src, trace.CloneTransform, CorrectingTransform(est))
}

// CorrectTimeline maps each record's node-local timestamp onto the
// reference timeline using per-node clock estimates (from the LANL-Trace
// barrier timing job): the slice wrapper over CorrectingSource.
func CorrectTimeline(recs []trace.Record, est map[string]clocks.Estimate) []trace.Record {
	out, _ := trace.Collect(CorrectingSource(trace.SliceSource(recs), est))
	if out == nil {
		out = []trace.Record{}
	}
	return out
}

// IOStats aggregates data-movement statistics from a record stream.
// ReadBytes and WriteBytes bucket directional data movement only; bytes
// carried by direction-less records (mmap regions, syncs) count toward
// Bytes but neither directional bucket.
type IOStats struct {
	Calls        int64
	Bytes        int64
	ReadBytes    int64
	WriteBytes   int64
	TimeInIO     sim.Duration
	DistinctPath map[string]struct{}
}

// NewIOStats returns empty stats ready for incremental Add calls.
func NewIOStats() *IOStats {
	return &IOStats{DistinctPath: make(map[string]struct{})}
}

// Add folds one record into the stats.
func (s *IOStats) Add(r *trace.Record) {
	if !r.IsIO() {
		return
	}
	s.Calls++
	s.Bytes += r.Bytes
	s.TimeInIO += r.Dur
	switch r.Direction() {
	case trace.DirRead:
		s.ReadBytes += r.Bytes
	case trace.DirWrite:
		s.WriteBytes += r.Bytes
	}
	if r.Path != "" {
		s.DistinctPath[r.Path] = struct{}{}
	}
}

// Sink exposes the stats as a streaming consumer.
func (s *IOStats) Sink() trace.Sink {
	return trace.SinkFunc(func(r *trace.Record) error {
		s.Add(r)
		return nil
	})
}

// ComputeIOStatsSource folds a record stream into I/O statistics with
// memory proportional to the number of distinct paths only.
func ComputeIOStatsSource(src trace.Source) (*IOStats, error) {
	st := NewIOStats()
	_, err := trace.Copy(st.Sink(), src)
	return st, err
}

// Bandwidth reports bytes moved per second of in-call time, 0 when unknown.
func (s IOStats) Bandwidth() float64 {
	if s.TimeInIO <= 0 {
		return 0
	}
	return float64(s.Bytes) / s.TimeInIO.Seconds()
}
