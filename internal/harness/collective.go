package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/workload"
)

// CollectiveRow compares independent and collective writes at one block
// size.
type CollectiveRow struct {
	Block             int64
	IndependentMBps   float64
	CollectiveMBps    float64
	SpeedupCollective float64
}

// CollectiveResult is the two-phase-I/O ablation: the optimization the
// paper-era MPI-IO stacks (ROMIO in mpich 1.2.6) applied to exactly the
// strided small-block pattern the paper calls "most demanding on the
// parallel I/O file system".
type CollectiveResult struct {
	Rows []CollectiveRow
}

// CollectiveAblation sweeps block sizes for the N-1 strided pattern,
// measuring independent vs collective write bandwidth. The sweep covers
// sub-stripe sizes: that is where two-phase I/O wins (merging sub-stripe
// fragments into full stripe units avoids the RAID-5 read-modify-write),
// while at large contiguous blocks the extra data shuffle makes it lose —
// the crossover ROMIO's heuristics exist to navigate. Both columns are
// untraced runs staged through the memoizing task set: the independent
// column is the registered N-1 strided workload, so at 64 KB and 256 KB it
// shares its cached baselines with the figure sweeps.
func CollectiveAblation(o Options) CollectiveResult {
	blocks := []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 256 << 10}
	independent := workload.PatternWorkload(workload.N1Strided)
	collective := workload.Variant("N-1 strided, collective", func(sc workload.Scale) workload.Params {
		p := sc.MPIIOParams(workload.N1Strided)
		p.Collective = true
		return p
	})
	inds := make([]workload.Result, len(blocks))
	colls := make([]workload.Result, len(blocks))
	ts := newTaskSet(o.cacheOrEphemeral())
	for i, block := range blocks {
		ts.untraced(o, independent, o.scaleFor(block), &inds[i])
		ts.untraced(o, collective, o.scaleFor(block), &colls[i])
	}
	ts.run()
	res := CollectiveResult{Rows: make([]CollectiveRow, len(blocks))}
	for i, block := range blocks {
		row := CollectiveRow{
			Block:           block,
			IndependentMBps: inds[i].BandwidthBps() / 1e6,
			CollectiveMBps:  colls[i].BandwidthBps() / 1e6,
		}
		if inds[i].BandwidthBps() > 0 {
			row.SpeedupCollective = colls[i].BandwidthBps() / inds[i].BandwidthBps()
		}
		res.Rows[i] = row
	}
	return res
}

// Format renders the ablation table.
func (r CollectiveResult) Format() string {
	var b strings.Builder
	b.WriteString("# Collective (two-phase) vs independent I/O, N-1 strided\n")
	fmt.Fprintf(&b, "%10s %16s %16s %10s\n", "block(KB)", "independent MB/s", "collective MB/s", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%10d %16.1f %16.1f %9.2fx\n",
			row.Block>>10, row.IndependentMBps, row.CollectiveMBps, row.SpeedupCollective)
	}
	return b.String()
}
