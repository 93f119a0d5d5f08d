// Package framework defines the first-class abstraction the taxonomy
// classifies: an I/O tracing framework that can attach to a simulated
// cluster, observe a workload, and report what it saw. Every tracer in the
// repository — LANL-Trace, Tracefs, //TRACE, the multi-layer analyzer, and
// path-based tracing — registers an implementation here, which is what lets
// the harness measure any framework on any workload through one generic
// code path, and lets cmd/iotaxo resolve framework names without a
// hardcoded list.
//
// The package-level registry is the extension point the paper's future work
// asks for: classifying a new framework means implementing Framework in one
// file and calling Register from init; the harness's MatrixSweep and the
// command-line tools pick it up with no further changes.
package framework

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

// Framework is one I/O tracing framework: a name, a position on the
// taxonomy's axes, and the ability to attach to a cluster. Implementations
// must be stateless values; all per-run state lives in the Session.
type Framework interface {
	// Name is the canonical framework name (the Table 2 column header).
	Name() string
	// Classification returns the framework's qualitative taxonomy position.
	// Measured overheads are folded in by the harness, not here.
	Classification() *core.Classification
	// Attach instruments a freshly built cluster. It must run before the
	// workload is launched; the returned Session is single-use, like the
	// cluster itself.
	Attach(c *cluster.Cluster) Session
}

// Session is one attached tracing instance. Run executes a workload spec
// under tracing and reports the measurement. The spec is any registered
// workload instantiated at some scale — sessions wrap spec.Program with
// their probes and carry no workload knowledge.
type Session interface {
	Run(spec workload.Spec) (Report, error)
}

// Report is the quantitative outcome of one traced run: everything the
// generic sweep engine needs to compute the taxonomy's overhead axes
// without knowing which framework produced it.
type Report struct {
	// Result is the application's measurement under tracing.
	Result workload.Result
	// TracingElapsed is the total wall time spent producing the trace. It
	// equals Result.Elapsed unless the framework needs extra application
	// runs (//TRACE's throttled dependency probes).
	TracingElapsed sim.Duration
	// Runs counts application executions the framework consumed (1 unless
	// the framework is multi-run by design).
	Runs int
	// TraceEvents and TraceBytes aggregate trace output volume.
	TraceEvents int64
	TraceBytes  int64
	// Deps counts causal dependency edges the framework discovered, for
	// frameworks whose classification says RevealsDeps.
	Deps int
	// ReplayMeasured reports that the framework generated a replayable
	// trace and measured its fidelity; ReplayErr is the end-to-end runtime
	// error fraction of the replayed pseudo-application.
	ReplayMeasured bool
	ReplayErr      float64
}

// Variant is optionally implemented by frameworks whose behaviour depends
// on configuration beyond the registered Name: LANL-Trace's strace and
// ltrace modes, Tracefs's feature sets and //TRACE's sampling levels each
// share one Name but produce different measurements. The digest must be a
// stable fingerprint of every configuration field that changes a
// measurement, so the harness's content-addressed result cache can tell
// the variants apart.
type Variant interface {
	VariantDigest() uint64
}

// VariantDigest returns fw's configuration fingerprint, or 0 for frameworks
// whose Name alone identifies their behaviour.
func VariantDigest(fw Framework) uint64 {
	if v, ok := fw.(Variant); ok {
		return v.VariantDigest()
	}
	return 0
}

// --- registry ---

var (
	regMu    sync.RWMutex
	registry = make(map[string]Framework)
)

// Register adds a framework to the package registry, keyed by Name. It
// panics on an empty name or a duplicate registration: both are programming
// errors in the registering package's init.
func Register(fw Framework) {
	name := fw.Name()
	if name == "" {
		panic("framework: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("framework: duplicate registration of %q", name))
	}
	registry[name] = fw
}

// Lookup resolves a framework by name, case-insensitively; a bare first
// word also matches ("tracefs", "PathTrace"), mirroring how users type
// framework names on the command line.
func Lookup(name string) (Framework, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, fw := range registry {
		if strings.EqualFold(fw.Name(), name) {
			return fw, true
		}
	}
	for _, n := range sortedNamesLocked() {
		if strings.EqualFold(strings.Fields(n)[0], name) {
			return registry[n], true
		}
	}
	return nil, false
}

// MustLookup is Lookup that panics on a miss, for callers that refer to a
// framework the repository itself registers.
func MustLookup(name string) Framework {
	fw, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("framework: %q is not registered (have %s)", name, strings.Join(Names(), ", ")))
	}
	return fw
}

// All returns every registered framework in deterministic (name-sorted)
// order — the row order of MatrixSweep and `iotaxo -list`.
func All() []Framework {
	regMu.RLock()
	defer regMu.RUnlock()
	names := sortedNamesLocked()
	out := make([]Framework, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Names returns the registered framework names in deterministic order, for
// error messages and listings.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return sortedNamesLocked()
}

func sortedNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
