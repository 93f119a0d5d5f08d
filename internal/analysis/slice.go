package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Cross-layer latency slicing over causal spans (ReLayTracer-style): every
// record carries the span of the operation that issued it, so a trace that
// mixes library, kernel, VFS, network, PFS and disk records can be sliced
// into per-layer exclusive times — the time each layer spent that is NOT
// covered by the operations it caused one layer down.

// SliceLayer buckets record classes into slicing layers.
func SliceLayer(c trace.EventClass) string {
	switch c {
	case trace.ClassMPI:
		return "library"
	case trace.ClassSyscall:
		return "kernel"
	case trace.ClassFSOp:
		return "vfs"
	case trace.ClassNetMsg:
		return "net"
	case trace.ClassPFSOp:
		return "pfs"
	case trace.ClassDiskIO:
		return "disk"
	default:
		return c.String()
	}
}

// sliceLayerOrder fixes the top-down rendering order of the layers.
var sliceLayerOrder = []string{"library", "kernel", "vfs", "net", "pfs", "disk"}

// LayerSlice is one layer's share of a slicing result.
type LayerSlice struct {
	Layer     string
	Records   int
	Total     sim.Duration // sum of record durations in this layer
	Exclusive sim.Duration // total minus time covered by direct children
}

// PathStep is one hop of a critical path: the longest-duration child chain
// below a root operation.
type PathStep struct {
	Layer string
	Name  string
	Node  string
	Dur   sim.Duration
}

// CriticalPath is the max-duration descent from one slow root operation.
type CriticalPath struct {
	Root  trace.Record
	Steps []PathStep
}

// Slice is the full slicing result for a record set.
type Slice struct {
	Layers   []LayerSlice
	Spanless int // records without span info (excluded from attribution)
	Paths    []CriticalPath
}

// SpanChildren indexes the causal span tree: it maps each span to the
// indices, in record order, of the span-carrying records whose Parent is
// that span. Both the slicer and multilayer's per-call attribution walk it.
func SpanChildren(recs []trace.Record) map[uint64][]int {
	children := make(map[uint64][]int)
	for i := range recs {
		if r := &recs[i]; r.HasSpan() && r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], i)
		}
	}
	return children
}

// SliceRecords attributes latency across layers by exclusive time: each
// record's duration minus the summed durations of its direct children
// (clamped at zero — concurrent children can overlap their parent). Roots
// are records whose parent span does not appear in the set. maxPaths limits
// the critical-path breakdowns reported for the slowest roots (0 = none).
func SliceRecords(recs []trace.Record, maxPaths int) *Slice {
	out := &Slice{}
	layers := make(map[string]*LayerSlice)
	layerOf := func(name string) *LayerSlice {
		ls, ok := layers[name]
		if !ok {
			ls = &LayerSlice{Layer: name}
			layers[name] = ls
		}
		return ls
	}
	children := SpanChildren(recs)
	haveSpan := make(map[uint64]bool, len(recs))
	for i := range recs {
		r := &recs[i]
		if !r.HasSpan() {
			out.Spanless++
			continue
		}
		haveSpan[r.Span] = true
		ls := layerOf(SliceLayer(r.Class))
		ls.Records++
		ls.Total += r.Dur
	}
	var roots []int
	for i := range recs {
		r := &recs[i]
		if !r.HasSpan() {
			continue
		}
		var childTime sim.Duration
		for _, c := range children[r.Span] {
			childTime += recs[c].Dur
		}
		excl := r.Dur - childTime
		if excl < 0 {
			excl = 0 // parallel children (striped RPCs, RAID fan-out)
		}
		layerOf(SliceLayer(r.Class)).Exclusive += excl
		if r.Parent == 0 || !haveSpan[r.Parent] {
			roots = append(roots, i)
		}
	}
	for _, name := range sliceLayerOrder {
		if ls, ok := layers[name]; ok {
			out.Layers = append(out.Layers, *ls)
			delete(layers, name)
		}
	}
	// Any layer outside the canonical six (unknown classes) goes last.
	var rest []string
	for name := range layers {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		out.Layers = append(out.Layers, *layers[name])
	}
	if maxPaths > 0 {
		sort.SliceStable(roots, func(a, b int) bool { return recs[roots[a]].Dur > recs[roots[b]].Dur })
		if len(roots) > maxPaths {
			roots = roots[:maxPaths]
		}
		for _, ri := range roots {
			out.Paths = append(out.Paths, criticalPath(recs, children, ri))
		}
	}
	return out
}

// criticalPath walks the max-duration child at every level below root.
func criticalPath(recs []trace.Record, children map[uint64][]int, root int) CriticalPath {
	cp := CriticalPath{Root: recs[root]}
	cur := root
	for {
		kids := children[recs[cur].Span]
		if len(kids) == 0 {
			break
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if recs[k].Dur > recs[best].Dur {
				best = k
			}
		}
		r := &recs[best]
		cp.Steps = append(cp.Steps, PathStep{
			Layer: SliceLayer(r.Class), Name: r.Name, Node: r.Node, Dur: r.Dur,
		})
		cur = best
	}
	return cp
}

// SliceSource drains a record stream and slices it.
func SliceSource(src trace.Source, maxPaths int) (*Slice, error) {
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return SliceRecords(recs, maxPaths), nil
}

// Format renders the slicing result.
func (s *Slice) Format() string {
	var b strings.Builder
	b.WriteString("# cross-layer latency slicing (exclusive time per layer)\n")
	var exclSum sim.Duration
	for _, ls := range s.Layers {
		exclSum += ls.Exclusive
	}
	if exclSum == 0 {
		b.WriteString("# no span-carrying records\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s %8s %14s %14s %8s\n", "layer", "records", "total", "exclusive", "share")
	for _, ls := range s.Layers {
		fmt.Fprintf(&b, "%-10s %8d %14v %14v %7.1f%%\n",
			ls.Layer, ls.Records, ls.Total, ls.Exclusive,
			100*float64(ls.Exclusive)/float64(exclSum))
	}
	if s.Spanless > 0 {
		fmt.Fprintf(&b, "# %d records without span info excluded\n", s.Spanless)
	}
	for i, cp := range s.Paths {
		fmt.Fprintf(&b, "# critical path %d: %s rank=%d %v\n", i+1, cp.Root.Name, cp.Root.Rank, cp.Root.Dur)
		for _, st := range cp.Steps {
			fmt.Fprintf(&b, "#   %-8s %-16s %-14s %v\n", st.Layer, st.Name, st.Node, st.Dur)
		}
	}
	return b.String()
}
