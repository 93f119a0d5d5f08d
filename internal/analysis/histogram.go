package analysis

import (
	"fmt"
	"sort"
	"strings"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// SizeHistogram buckets I/O request sizes by power of two: the first plot
// any I/O analyst draws over a new trace.
type SizeHistogram struct {
	Buckets map[int]int64 // log2(ceil) bucket -> request count
	Total   int64
	Bytes   int64
}

// NewSizeHistogram returns an empty histogram ready for incremental Add.
func NewSizeHistogram() *SizeHistogram {
	return &SizeHistogram{Buckets: make(map[int]int64)}
}

// Add folds one record into the histogram.
func (h *SizeHistogram) Add(r *trace.Record) {
	if !r.IsIO() {
		return
	}
	h.Buckets[log2Ceil(r.Bytes)]++
	h.Total++
	h.Bytes += r.Bytes
}

// Sink exposes the histogram as a streaming consumer.
func (h *SizeHistogram) Sink() trace.Sink {
	return trace.SinkFunc(func(r *trace.Record) error {
		h.Add(r)
		return nil
	})
}

// HistogramSizesSource folds a record stream into the histogram with O(1)
// memory per bucket.
func HistogramSizesSource(src trace.Source) (*SizeHistogram, error) {
	h := NewSizeHistogram()
	_, err := trace.Copy(h.Sink(), src)
	return h, err
}

func log2Ceil(n int64) int {
	if n <= 1 {
		return 0
	}
	b := 0
	v := int64(1)
	for v < n {
		v <<= 1
		b++
	}
	return b
}

// Format renders the histogram with proportional bars.
func (h SizeHistogram) Format() string {
	if h.Total == 0 {
		return "# no I/O requests\n"
	}
	keys := make([]int, 0, len(h.Buckets))
	for k := range h.Buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var max int64
	for _, k := range keys {
		if h.Buckets[k] > max {
			max = h.Buckets[k]
		}
	}
	var b strings.Builder
	b.WriteString("# request size histogram\n")
	for _, k := range keys {
		n := h.Buckets[k]
		// A nonzero bucket always shows at least one mark: integer division
		// would otherwise render buckets under 1/40 of the max as empty.
		width := int(40 * n / max)
		if width == 0 && n > 0 {
			width = 1
		}
		bar := strings.Repeat("#", width)
		fmt.Fprintf(&b, "%10s %8d %s\n", sizeLabel(k), n, bar)
	}
	fmt.Fprintf(&b, "# %d requests, %d bytes total\n", h.Total, h.Bytes)
	return b.String()
}

func sizeLabel(log2 int) string {
	size := int64(1) << log2
	switch {
	case size >= 1<<30:
		return fmt.Sprintf("<=%dGiB", size>>30)
	case size >= 1<<20:
		return fmt.Sprintf("<=%dMiB", size>>20)
	case size >= 1<<10:
		return fmt.Sprintf("<=%dKiB", size>>10)
	default:
		return fmt.Sprintf("<=%dB", size)
	}
}

// RankBalance quantifies the per-rank distribution of I/O work: ranks doing
// unequal I/O indicate load imbalance, the first thing a parallel-I/O
// debugger looks for in a merged trace.
type RankBalance struct {
	PerRank map[int]*RankLoad
}

// RankLoad is one rank's I/O totals.
type RankLoad struct {
	Rank   int
	Calls  int64
	Bytes  int64
	InCall sim.Duration
}

// ComputeRankBalance aggregates I/O per rank.
func ComputeRankBalance(recs []trace.Record) RankBalance {
	rb := RankBalance{PerRank: make(map[int]*RankLoad)}
	for i := range recs {
		r := &recs[i]
		if !r.IsIO() {
			continue
		}
		load, ok := rb.PerRank[r.Rank]
		if !ok {
			load = &RankLoad{Rank: r.Rank}
			rb.PerRank[r.Rank] = load
		}
		load.Calls++
		load.Bytes += r.Bytes
		load.InCall += r.Dur
	}
	return rb
}

// ImbalanceFactor is max/mean bytes across ranks (1.0 = perfectly even; 0
// when there is no I/O).
func (rb RankBalance) ImbalanceFactor() float64 {
	if len(rb.PerRank) == 0 {
		return 0
	}
	var total, max int64
	for _, l := range rb.PerRank {
		total += l.Bytes
		if l.Bytes > max {
			max = l.Bytes
		}
	}
	mean := float64(total) / float64(len(rb.PerRank))
	if mean == 0 {
		return 0
	}
	return float64(max) / mean
}

// Format renders the per-rank table.
func (rb RankBalance) Format() string {
	ranks := make([]int, 0, len(rb.PerRank))
	for r := range rb.PerRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var b strings.Builder
	b.WriteString("# per-rank I/O balance\n")
	fmt.Fprintf(&b, "%6s %8s %12s %14s\n", "rank", "calls", "bytes", "time in I/O")
	for _, r := range ranks {
		l := rb.PerRank[r]
		fmt.Fprintf(&b, "%6d %8d %12d %14v\n", l.Rank, l.Calls, l.Bytes, l.InCall)
	}
	fmt.Fprintf(&b, "# imbalance factor (max/mean bytes): %.2f\n", rb.ImbalanceFactor())
	return b.String()
}

// InterarrivalStats summarizes gaps between consecutive I/O calls within
// each rank: the burstiness signature replay tools must reproduce.
type InterarrivalStats struct {
	Count          int64
	Min, Max, Mean sim.Duration
}

// ComputeInterarrival measures per-rank consecutive I/O start-time gaps.
func ComputeInterarrival(recs []trace.Record) InterarrivalStats {
	byRank := make(map[int][]sim.Time)
	for i := range recs {
		r := &recs[i]
		if !r.IsIO() {
			continue
		}
		byRank[r.Rank] = append(byRank[r.Rank], r.Time)
	}
	st := InterarrivalStats{Min: sim.MaxTime}
	var total sim.Duration
	for _, times := range byRank {
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := 1; i < len(times); i++ {
			gap := times[i] - times[i-1]
			st.Count++
			total += gap
			if gap < st.Min {
				st.Min = gap
			}
			if gap > st.Max {
				st.Max = gap
			}
		}
	}
	if st.Count > 0 {
		st.Mean = total / sim.Duration(st.Count)
	} else {
		st.Min = 0
	}
	return st
}
