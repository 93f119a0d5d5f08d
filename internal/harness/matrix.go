package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// This file is the framework x workload matrix: MatrixSweep runs every
// registered framework against every registered workload through the sweep
// engine along BlockAxis, then folds the measured overheads (and replay
// fidelity, where a framework measures it) into each framework's
// classification.
// There are no framework- or workload-specific branches here: registering
// a framework adds a row, registering a workload adds a column.

// matrixWorkloads is the options' workload axis: the explicit restriction
// when set, the full registry otherwise.
func (o Options) matrixWorkloads() []workload.Workload {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.All()
}

// rangeOver folds n indexed values into their [lo, hi] envelope: the shared
// min/max fold behind every overhead-range accessor. An empty set reports
// the zero (unmeasured) envelope, never a sentinel.
func rangeOver(n int, v func(int) float64) (lo, hi float64) {
	for i := 0; i < n; i++ {
		x := v(i)
		if i == 0 {
			lo, hi = x, x
			continue
		}
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// MatrixResult is the full framework x workload overhead matrix.
type MatrixResult struct {
	// Workloads is the column axis, in sweep order.
	Workloads []workload.Workload
	// Cells is row-major: frameworks (in registry order) x Workloads, one
	// block-size series each.
	Cells []Series
	// Stats is the sweep's cache/scheduler accounting. It is reported
	// beside the measurements (CLI stderr footer), never inside Format/CSV:
	// cold and warm runs must render byte-identically.
	Stats SweepStats

	fws []framework.Framework
}

// MatrixSweep measures every registered framework on every registered
// workload through the generic sweep engine.
func MatrixSweep(o Options) (MatrixResult, error) {
	return MatrixSweepOf(o, framework.All()...)
}

// MatrixSweepOf is MatrixSweep restricted to the given frameworks (e.g. one
// framework for `iotaxo -table card -measured`); Options.Workloads
// restricts the workload axis the same way. Every cell's runs are staged
// into one task set for the shared bounded scheduler, so peak concurrency
// stays at PoolSize no matter how many cells the registries imply; every
// run is a deterministic, independently seeded simulation. The task set
// shares each workload x block untraced baseline across all framework rows
// and memoizes leaves through Options.Cache, so a cold full-registry matrix
// executes one untraced run per cell-column and a warm repeat executes
// nothing — with byte-identical output either way.
func MatrixSweepOf(o Options, fws ...framework.Framework) (MatrixResult, error) {
	cells, stats, err := matrixSweepOf(BlockAxis, o, fws)
	return MatrixResult{Workloads: o.matrixWorkloads(), Cells: cells, Stats: stats, fws: fws}, err
}

// FrameworkNames returns the matrix's row order.
func (m MatrixResult) FrameworkNames() []string {
	out := make([]string, len(m.fws))
	for i, fw := range m.fws {
		out[i] = fw.Name()
	}
	return out
}

// row returns framework fi's cells.
func (m MatrixResult) row(fi int) []Series {
	return m.Cells[fi*len(m.Workloads) : (fi+1)*len(m.Workloads)]
}

// Classifications returns each swept framework's classification with the
// measured elapsed-overhead envelope — and replay fidelity, where the
// framework measured it — folded in. This is the one generic path from
// measurement to the taxonomy's quantitative axes. A framework with no
// measured points keeps its unmeasured (zero-envelope) overhead report.
//
// The envelope spans workloads and block sizes for each framework *as
// registered* (its default configuration). Configuration frontiers —
// Tracefs's feature ladder, //TRACE's sampling levels (where zero sampling
// drives overhead toward the paper's ~0% floor) — are the deep-dive
// experiments' job: TracefsExperiment and ParallelTraceExperiment.
func (m MatrixResult) Classifications() []*core.Classification {
	out := make([]*core.Classification, 0, len(m.fws))
	for fi, fw := range m.fws {
		c := fw.Classification()
		bestReplay, replayed := 0.0, false
		var ovh []float64
		for _, cell := range m.row(fi) {
			for _, p := range cell.Points {
				ovh = append(ovh, p.ElapsedOvhFrac)
				if p.ReplayMeasured {
					if !replayed || p.ReplayErr < bestReplay {
						bestReplay = p.ReplayErr
					}
					replayed = true
				}
			}
		}
		min, max := rangeOver(len(ovh), func(i int) float64 { return ovh[i] })
		if len(ovh) > 0 {
			c.ElapsedOverhead = core.OverheadReport{
				Measured:    true,
				ElapsedMin:  min,
				ElapsedMax:  max,
				Description: "measured, this repository",
			}
		}
		if replayed {
			c.ReplayFidelity = core.FidelityReport{Supported: true, ErrorFrac: bestReplay}
		}
		out = append(out, c)
	}
	return out
}

// RenderComparison renders the measured classification summary (Table 2
// extended to every swept framework).
func (m MatrixResult) RenderComparison() string {
	return core.RenderComparison(m.Classifications()...)
}

// Format renders the overhead matrix: one row per framework, one column per
// workload, each cell the elapsed-overhead range across block sizes.
func (m MatrixResult) Format() string {
	var b strings.Builder
	b.WriteString("# framework x workload elapsed-overhead matrix (min-max % across block sizes)\n")
	nameW := len("framework")
	for _, fw := range m.fws {
		if n := len(fw.Name()); n > nameW {
			nameW = n
		}
	}
	colW := 18
	for _, w := range m.Workloads {
		if n := len(w.Name()); n > colW {
			colW = n
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW, "framework")
	for _, w := range m.Workloads {
		fmt.Fprintf(&b, " %*s", colW, w.Name())
	}
	fmt.Fprintf(&b, " %8s %6s\n", "events", "runs")
	for fi, fw := range m.fws {
		fmt.Fprintf(&b, "%-*s", nameW, fw.Name())
		var events int64
		runs := 0
		for _, cell := range m.row(fi) {
			min, max := cell.ElapsedOvhRange()
			fmt.Fprintf(&b, " %*s%%", colW-1, fmt.Sprintf("%.1f - %.1f", min*100, max*100))
			for _, p := range cell.Points {
				events += p.TraceEvents
				if p.Runs > runs {
					runs = p.Runs
				}
			}
		}
		fmt.Fprintf(&b, " %8d %6d\n", events, runs)
	}
	return b.String()
}
