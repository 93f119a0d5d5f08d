package analysis

import (
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

func ioRecs() []trace.Record {
	return []trace.Record{
		{Name: "SYS_pwrite", Rank: 0, Bytes: 4096, Time: 0, Dur: 10},
		{Name: "SYS_pwrite", Rank: 0, Bytes: 4096, Time: 100, Dur: 10},
		{Name: "SYS_pwrite", Rank: 0, Bytes: 65536, Time: 300, Dur: 50},
		{Name: "SYS_pwrite", Rank: 1, Bytes: 65536, Time: 50, Dur: 50},
		{Name: "MPI_Barrier", Rank: 1, Time: 150}, // not I/O
	}
}

func TestHistogramSizes(t *testing.T) {
	h := must(HistogramSizesSource(trace.SliceSource(ioRecs())))
	if h.Total != 4 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Buckets[12] != 2 { // 4096 = 2^12
		t.Fatalf("4K bucket = %d", h.Buckets[12])
	}
	if h.Buckets[16] != 2 { // 65536 = 2^16
		t.Fatalf("64K bucket = %d", h.Buckets[16])
	}
	out := h.Format()
	if !strings.Contains(out, "<=4KiB") || !strings.Contains(out, "<=64KiB") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := must(HistogramSizesSource(trace.SliceSource(nil)))
	if !strings.Contains(h.Format(), "no I/O") {
		t.Fatal("empty histogram format")
	}
}

// Property: log2Ceil returns the smallest b with 2^b >= n.
func TestLog2CeilProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int64(raw) + 1
		b := log2Ceil(n)
		pow := int64(1) << b
		return pow >= n && (b == 0 || (int64(1)<<(b-1)) < n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeLabels(t *testing.T) {
	cases := map[int]string{
		0:  "<=1B",
		12: "<=4KiB",
		20: "<=1MiB",
		30: "<=1GiB",
	}
	for log2, want := range cases {
		if got := sizeLabel(log2); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", log2, got, want)
		}
	}
}

func TestRankBalance(t *testing.T) {
	rb := ComputeRankBalance(ioRecs())
	if len(rb.PerRank) != 2 {
		t.Fatalf("ranks = %d", len(rb.PerRank))
	}
	if rb.PerRank[0].Bytes != 4096*2+65536 || rb.PerRank[0].Calls != 3 {
		t.Fatalf("rank 0 load: %+v", rb.PerRank[0])
	}
	f := rb.ImbalanceFactor()
	if f <= 1.0 || f > 2.0 {
		t.Fatalf("imbalance = %v", f)
	}
	out := rb.Format()
	if !strings.Contains(out, "imbalance factor") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestRankBalancePerfectlyEven(t *testing.T) {
	recs := []trace.Record{
		{Name: "SYS_pwrite", Rank: 0, Bytes: 100},
		{Name: "SYS_pwrite", Rank: 1, Bytes: 100},
	}
	if f := ComputeRankBalance(recs).ImbalanceFactor(); f != 1.0 {
		t.Fatalf("even imbalance = %v", f)
	}
}

func TestRankBalanceEmpty(t *testing.T) {
	if f := ComputeRankBalance(nil).ImbalanceFactor(); f != 0 {
		t.Fatalf("empty imbalance = %v", f)
	}
}

func TestInterarrival(t *testing.T) {
	st := ComputeInterarrival(ioRecs())
	// Rank 0 gaps: 100, 200. Rank 1 has one op: no gaps.
	if st.Count != 2 {
		t.Fatalf("count = %d", st.Count)
	}
	if st.Min != 100 || st.Max != 200 || st.Mean != 150 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInterarrivalEmpty(t *testing.T) {
	st := ComputeInterarrival(nil)
	if st.Count != 0 || st.Min != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
}

// TestHistogramSmallBucketStillVisible pins the bar-rendering fix: a
// nonzero bucket under 1/40 of the max count used to truncate to an empty
// bar, making rare-but-present request sizes invisible.
func TestHistogramSmallBucketStillVisible(t *testing.T) {
	recs := make([]trace.Record, 0, 101)
	for i := 0; i < 100; i++ {
		recs = append(recs, trace.Record{Name: "SYS_pwrite", Bytes: 4096})
	}
	// One lone 64 KiB request: 40*1/100 truncates to 0 marks.
	recs = append(recs, trace.Record{Name: "SYS_pwrite", Bytes: 64 << 10})
	out := must(HistogramSizesSource(trace.SliceSource(recs))).Format()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "<=64KiB") && !strings.Contains(line, "#") {
			t.Fatalf("nonzero bucket rendered without a bar:\n%s", out)
		}
	}
	if !strings.Contains(out, "<=64KiB") {
		t.Fatalf("64KiB bucket missing:\n%s", out)
	}
}

// Property: histogram total always equals the number of I/O records.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var recs []trace.Record
		io := 0
		for _, s := range sizes {
			b := int64(s)
			recs = append(recs, trace.Record{Name: "SYS_pwrite", Bytes: b})
			if b > 0 {
				io++
			}
		}
		return must(HistogramSizesSource(trace.SliceSource(recs))).Total == int64(io)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	_ = sim.Second
}
