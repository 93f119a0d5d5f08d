package workload

// This file is the workload half of the taxonomy's measurement matrix: a
// Workload interface with a package-level registry, mirroring
// internal/framework's Register/Lookup/All design. A registered workload is
// one I/O scenario the harness can run under any tracing framework; the
// overhead matrix is registered frameworks x registered workloads, and
// adding a scenario is a one-file change (implement Workload, call Register
// from init), symmetric with adding a framework.
//
// The three mpi_io_test access patterns of Figures 2-4 register here as the
// legacy axis; checkpoint.go, metastorm.go, scan.go, and prodcons.go grow
// it with scenarios exercising different kernel/VFS/PFS paths.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
)

// Scale is the workload-independent size knob of one run: every scenario
// derives its own concrete parameterization (object counts, file counts,
// epoch sizes) from it, so the harness can sweep any workload along the
// same block-size axis the paper's figures use.
type Scale struct {
	// BlockSize is the bytes moved per I/O call (the sweep's x-axis).
	BlockSize int64
	// PerRankBytes is each rank's target data volume.
	PerRankBytes int64
}

// WeakScale returns one rung of a weak-scaling ladder: the per-rank volume
// is fixed, so the job's total volume grows linearly with the rank count.
func WeakScale(blockSize, perRankBytes int64) Scale {
	return Scale{BlockSize: blockSize, PerRankBytes: perRankBytes}
}

// StrongScale returns one rung of a strong-scaling ladder: the job's total
// volume is fixed and divided evenly across ranks. Per-rank volume floors
// at one block (every rank writes at least one object — see Objects), so
// at extreme rank counts the realized total exceeds totalBytes; TotalBytes
// reports the realized volume.
func StrongScale(blockSize, totalBytes int64, ranks int) Scale {
	if ranks < 1 {
		ranks = 1
	}
	return Scale{BlockSize: blockSize, PerRankBytes: totalBytes / int64(ranks)}
}

// Objects is the per-rank object count the scale implies (floor 1).
func (sc Scale) Objects() int {
	n := int(sc.PerRankBytes / sc.BlockSize)
	if n < 1 {
		n = 1
	}
	return n
}

// TotalBytes reports the job-wide data volume the scale implies at a rank
// count, after the one-object-per-rank floor.
func (sc Scale) TotalBytes(ranks int) int64 {
	return int64(ranks) * int64(sc.Objects()) * sc.BlockSize
}

// ObjectsPer splits the per-rank object budget across parts phases
// (floor 1 per phase).
func (sc Scale) ObjectsPer(parts int) int {
	n := sc.Objects() / parts
	if n < 1 {
		n = 1
	}
	return n
}

// MPIIOParams derives the mpi_io_test parameterization for a pattern at
// this scale: the bridge between the generic Scale and the legacy Params.
func (sc Scale) MPIIOParams(p Pattern) Params {
	return Params{
		Pattern:   p,
		BlockSize: sc.BlockSize,
		NObj:      sc.Objects(),
		Path:      "/pfs/mpi_io_test.out",
	}
}

// Body is the per-rank program of a scenario. Bodies must be pure functions
// of their arguments — reusable across fresh clusters (multi-run frameworks
// re-execute them for dependency probes) and safe with a nil stats.
type Body func(p *sim.Proc, r *mpi.Rank, stats *RankStats)

// Spec is one fully-parameterized run plan: the per-rank program plus the
// metadata a tracing framework needs to label what it observed. A Spec is
// what framework.Session.Run receives — frameworks wrap Program with their
// probes and never learn which scenario they are measuring.
type Spec struct {
	// Workload is the registered scenario name (Workload.Name).
	Workload string
	// CommandLine is the equivalent command invocation, rendered in the
	// Figure 1 style for trace headers.
	CommandLine string
	// Program is the per-rank body.
	Program Body

	// params carries the mpi_io_test parameterization for specs derived
	// from Params, so Result.Params keeps working for the legacy patterns.
	params Params
}

// Spec adapts an mpi_io_test parameterization to the generic run plan.
func (pr Params) Spec() Spec {
	return Spec{
		Workload:    pr.Pattern.String(),
		CommandLine: pr.CommandLine(),
		Program: func(p *sim.Proc, r *mpi.Rank, stats *RankStats) {
			Program(p, r, pr, stats)
		},
		params: pr,
	}
}

// Run executes the spec untraced on a world and returns the measurement.
// The world's environment is driven to completion, so each Run needs a
// fresh cluster.
func (s Spec) Run(w *mpi.World) Result {
	perRank := make([]RankStats, w.Size())
	elapsed := w.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		s.Program(p, r, &perRank[r.RankID()])
	})
	return s.ResultFromStats(elapsed, perRank)
}

// ResultFromStats assembles a Result from per-rank statistics gathered by a
// caller that drove Program itself (e.g. under a tracing framework).
func (s Spec) ResultFromStats(elapsed sim.Duration, perRank []RankStats) Result {
	res := resultFromStats(s.params, elapsed, perRank)
	res.Workload = s.Workload
	return res
}

// Workload is one registered I/O scenario: the second axis of the overhead
// matrix, peer to framework.Framework on the first.
type Workload interface {
	// Name is the canonical scenario name and a stable CLI token (the
	// matrix column header; resolvable by ByName).
	Name() string
	// Description is the one-line listing text.
	Description() string
	// Spec instantiates the scenario at a scale. The returned Spec must be
	// reusable: the harness runs it on many fresh clusters.
	Spec(sc Scale) Spec
	// Run executes the scenario untraced on a world at the given scale.
	Run(w *mpi.World, sc Scale) Result
}

// scenario is the common Workload implementation: a name, a description,
// and a spec builder. Run is always Spec followed by Spec.Run.
type scenario struct {
	name string
	desc string
	spec func(sc Scale) Spec
}

func (s scenario) Name() string                      { return s.name }
func (s scenario) Description() string               { return s.desc }
func (s scenario) Spec(sc Scale) Spec                { return s.spec(sc) }
func (s scenario) Run(w *mpi.World, sc Scale) Result { return s.spec(sc).Run(w) }

// Variant returns an unregistered mpi_io_test workload: params derives the
// run's parameterization from each scale, the way the registered patterns
// use Scale.MPIIOParams. The harness's deep-dive experiments measure such
// variants (a barrier-synchronized job, two-phase collective writes)
// through the same engine and cache as registered scenarios. name is the
// cache key's workload part, so it panics when name resolves to a
// registered workload: the variant would alias that workload's results.
func Variant(name string, params func(Scale) Params) Workload {
	if _, ok := ByName(name); ok {
		panic(fmt.Sprintf("workload: variant %q collides with a registered workload", name))
	}
	return scenario{name: name, spec: func(sc Scale) Spec {
		s := params(sc).Spec()
		s.Workload = name
		return s
	}}
}

// --- registry ---

var (
	regMu    sync.RWMutex
	registry = make(map[string]Workload)
)

// Register adds a workload to the package registry, keyed by Name. It
// panics on an empty name or a duplicate registration: both are programming
// errors in the registering package's init.
func Register(w Workload) {
	name := w.Name()
	if name == "" {
		panic("workload: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	for existing := range registry {
		if normalize(existing) == normalize(name) {
			panic(fmt.Sprintf("workload: duplicate registration of %q (collides with %q)", name, existing))
		}
	}
	registry[name] = w
}

// normalize reduces a workload name to its comparison key: lower-cased,
// punctuation and spaces dropped, so "N-1 strided", "n-1-strided", and
// "n1strided" all resolve to the same scenario.
func normalize(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// ByName resolves a workload by name: the round-trip parse helper for
// Workload.Name (and Pattern.String) CLI tokens. Matching is forgiving —
// case-insensitive with punctuation ignored — so flag values like
// "n-1-strided" or "metadata_storm" resolve.
func ByName(name string) (Workload, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	key := normalize(name)
	if key == "" {
		return nil, false
	}
	// Register guarantees normalized keys are unique, so one deterministic
	// pass resolves exact and munged spellings alike.
	for _, n := range sortedNamesLocked() {
		if normalize(n) == key {
			return registry[n], true
		}
	}
	return nil, false
}

// MustByName is ByName that panics on a miss, for callers that refer to a
// workload the repository itself registers.
func MustByName(name string) Workload {
	w, ok := ByName(name)
	if !ok {
		panic(fmt.Sprintf("workload: %q is not registered (have %s)", name, strings.Join(Names(), ", ")))
	}
	return w
}

// All returns every registered workload in deterministic (name-sorted)
// order — the column order of the overhead matrix and `iotaxo
// -list-workloads`.
func All() []Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	names := sortedNamesLocked()
	out := make([]Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Names returns the registered workload names in deterministic order, for
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

// PatternWorkload returns the registered workload wrapping an mpi_io_test
// access pattern: the bridge the figure experiments use.
func PatternWorkload(p Pattern) Workload { return MustByName(p.String()) }

// The paper's three mpi_io_test access patterns register as workloads under
// their Figure 2-4 names, making the legacy axis and the scenario axis one.
func init() {
	for _, reg := range []struct {
		p    Pattern
		desc string
	}{
		{NToN, "mpi_io_test: every rank writes its own file (Figure 4)"},
		{N1NonStrided, "mpi_io_test: one shared file, per-rank contiguous segments (Figure 3)"},
		{N1Strided, "mpi_io_test: one shared file, block-interleaved ranks (Figure 2)"},
	} {
		p := reg.p
		Register(scenario{
			name: p.String(),
			desc: reg.desc,
			spec: func(sc Scale) Spec { return sc.MPIIOParams(p).Spec() },
		})
	}
}
