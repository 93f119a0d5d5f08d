package harness

// This file is the in-repo perf trajectory. Every bench returns one
// Snapshot: the bench's own measurements (its payload) plus the acceptance
// bars it is held to, stored as data. `tracebench -bench <name>` writes it
// to BENCH_<name>.json, which is committed so the engine's performance
// history lives in the repository next to the code that produced it, and
// exits nonzero when a bar fails.

import (
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"
	"time"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// Bar is one acceptance bar: a measured value held against a limit by a
// comparison, "<=", ">=" or "==".
type Bar struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Op    string  `json:"op"`
	Limit float64 `json:"limit"`
	Pass  bool    `json:"pass"`
}

// Payload is a bench's own measurements.
type Payload interface {
	// Summary renders the measurements as tracebench's stderr lines.
	Summary() string
}

// Snapshot is one BENCH_<name>.json record: the bench's payload and its
// evaluated bars. Passed is true when every bar holds.
type Snapshot struct {
	// Schema is the cache schema the snapshot was produced under.
	Schema     int     `json:"schema"`
	Experiment string  `json:"experiment"`
	Bars       []Bar   `json:"bars"`
	Passed     bool    `json:"passed"`
	Payload    Payload `json:"payload"`
}

// newSnapshot evaluates bars against their limits and wraps them with the
// payload. It is the one place a bar passes or fails.
func newSnapshot(experiment string, payload Payload, bars ...Bar) Snapshot {
	s := Snapshot{Schema: cacheSchema, Experiment: experiment, Bars: []Bar{}, Passed: true, Payload: payload}
	for _, b := range bars {
		switch b.Op {
		case "<=":
			b.Pass = b.Value <= b.Limit
		case ">=":
			b.Pass = b.Value >= b.Limit
		case "==":
			b.Pass = b.Value == b.Limit
		default:
			panic(fmt.Sprintf("harness: bar %s has unknown op %q", b.Name, b.Op))
		}
		s.Passed = s.Passed && b.Pass
		s.Bars = append(s.Bars, b)
	}
	return s
}

// JSON renders the snapshot, indented, newline-terminated, with the bars'
// comparisons left readable ("<=", not "\u003c=").
func (s Snapshot) JSON() string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		panic(err) // structs of scalars and slices; cannot fail
	}
	return b.String()
}

// BenchPhase is one timed pass of the bench sweep.
type BenchPhase struct {
	WallMS float64 `json:"wall_ms"`
	// MallocsK is the heap objects the pass allocated, in thousands: the
	// change in runtime/metrics' /gc/heap/allocs:objects across it.
	MallocsK float64 `json:"mallocs_k"`
	Executed int64   `json:"executed"`
	Shared   int64   `json:"shared"`
	MemHits  int64   `json:"mem_hits"`
	DiskHits int64   `json:"disk_hits"`
}

// SweepPayload is the sweep bench's measurements: the smoke matrix timed
// cold and warm against one in-memory cache.
type SweepPayload struct {
	// Frameworks/Workloads/Blocks describe the swept matrix shape.
	Frameworks int `json:"frameworks"`
	Workloads  int `json:"workloads"`
	Blocks     int `json:"blocks"`

	Cold BenchPhase `json:"cold"`
	Warm BenchPhase `json:"warm"`

	PoolSize        int `json:"pool_size"`
	PeakConcurrency int `json:"peak_concurrency"`
}

// Summary renders the cold/warm line.
func (p SweepPayload) Summary() string {
	return fmt.Sprintf("# bench: cold %.0fms (%d executed), warm %.0fms (%d executed, %d cached)",
		p.Cold.WallMS, p.Cold.Executed, p.Warm.WallMS, p.Warm.Executed, p.Warm.MemHits+p.Warm.DiskHits)
}

// benchSweepMallocsKLimit bounds the cold smoke sweep's allocated objects,
// in thousands: about 20% above the 144k the pooled hot paths measure, so a
// per-request allocation creeping back into a hot path fails the bar.
const benchSweepMallocsKLimit = 172

// heapAllocs reads the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample[:])
	return sample[0].Value.Uint64()
}

// BenchSweep runs the full-registry smoke matrix twice against one fresh
// in-memory cache — cold, then warm — and reports the perf snapshot. An
// error means the sweep itself failed. Its bars are the memoization
// invariants — the warm Format rendering matches the cold one byte for byte
// (identical), and the warm run executes no simulation — and the cold
// sweep's allocation budget.
func BenchSweep() (Snapshot, error) {
	o := MatrixSmokeOptions()
	o.Cache = NewCache("")

	allocs := heapAllocs()
	start := time.Now()
	cold, err := MatrixSweep(o)
	coldWall := time.Since(start)
	coldAllocs := heapAllocs() - allocs
	if err != nil {
		return Snapshot{}, fmt.Errorf("cold sweep: %w", err)
	}

	allocs = heapAllocs()
	start = time.Now()
	warm, err := MatrixSweep(o)
	warmWall := time.Since(start)
	warmAllocs := heapAllocs() - allocs
	if err != nil {
		return Snapshot{}, fmt.Errorf("warm sweep: %w", err)
	}

	phase := func(wall time.Duration, allocs uint64, s SweepStats) BenchPhase {
		return BenchPhase{
			WallMS:   float64(wall.Microseconds()) / 1e3,
			MallocsK: float64(allocs) / 1e3,
			Executed: s.Executed,
			Shared:   s.Shared,
			MemHits:  s.MemHits,
			DiskHits: s.DiskHits,
		}
	}
	identical := 0.0
	if cold.Format() == warm.Format() {
		identical = 1
	}
	return newSnapshot("matrix-smoke", SweepPayload{
		Frameworks:      len(cold.FrameworkNames()),
		Workloads:       len(cold.Workloads),
		Blocks:          len(o.BlockSizes),
		Cold:            phase(coldWall, coldAllocs, cold.Stats),
		Warm:            phase(warmWall, warmAllocs, warm.Stats),
		PoolSize:        warm.Stats.PoolSize,
		PeakConcurrency: cold.Stats.PeakConcurrency,
	},
		Bar{Name: "identical", Value: identical, Op: "==", Limit: 1},
		Bar{Name: "warm.executed", Value: float64(warm.Stats.Executed), Op: "<=", Limit: 0},
		Bar{Name: "cold.mallocs_k", Value: float64(coldAllocs) / 1e3, Op: "<=", Limit: benchSweepMallocsKLimit},
	), nil
}

// BenchLadderMinRanks is the ladder benchmark's base rung: where the
// fully-eventized engine's scaling story starts (the paper's own curves
// stop well below it).
const BenchLadderMinRanks = 512

// benchLadderMaxRanks is the ladder's default top rung.
const benchLadderMaxRanks = 65536

// BenchRung is one rank-count rung of the ladder benchmark: one untraced
// plus one traced single-cell simulation, timed uncached.
type BenchRung struct {
	Ranks  int     `json:"ranks"`
	WallMS float64 `json:"wall_ms"`
	// PeakHeapMB is the scheduler-sampled heap high-water (HeapAlloc, MiB)
	// while this rung's two simulations ran.
	PeakHeapMB float64 `json:"peak_heap_mb"`
}

// LadderPayload is the ladder bench's measurements: the single-cell scaling
// ladder timed rung by rung with heap watermarks. It is the resource
// trajectory of the eventized engine, committed as BENCH_ladder.json so
// rank-scaling regressions show up in review diffs.
type LadderPayload struct {
	Framework    string      `json:"framework"`
	Workload     string      `json:"workload"`
	Mode         string      `json:"mode"`
	PerRankBytes int64       `json:"per_rank_bytes"`
	PoolSize     int         `json:"pool_size"`
	Rungs        []BenchRung `json:"rungs"`
}

// Summary renders one line per rung and a closing line.
func (p LadderPayload) Summary() string {
	var b strings.Builder
	for _, r := range p.Rungs {
		fmt.Fprintf(&b, "# ladder: %6d ranks  %9.0f ms  heap peak %7.1f MB\n", r.Ranks, r.WallMS, r.PeakHeapMB)
	}
	fmt.Fprintf(&b, "# ladder: %d rungs (%s on %s, %s scaling)", len(p.Rungs), p.Framework, p.Workload, p.Mode)
	return b.String()
}

// BenchLadder times one single-cell (one framework, one workload) rung at
// each rank count doubling from BenchLadderMinRanks to maxRanks (0 means
// 65536), uncached, and reports wall time plus the scheduler's heap
// high-water per rung. The cell is the paper's own — LANL-Trace on the N-1
// strided pattern, weak scaling — at one block per rank: the ladder tracks
// the engine's per-rank fixed costs (construction, messaging, scheduling,
// tracing), which data volume would only dilute, and one block keeps the
// 65536-rank rung minutes, not hours. The snapshot has no bars: wall time
// and heap depend on the host, so no fixed limit would mean the same thing
// on two machines.
func BenchLadder(maxRanks int) (Snapshot, error) {
	if maxRanks <= 0 {
		maxRanks = benchLadderMaxRanks
	}
	maxRanks = max(maxRanks, BenchLadderMinRanks)
	o := LadderOptions()
	o.PerRankBytes = o.scaleBlock()
	o.Cache = NewCache("")
	fw := benchFramework()
	w := workload.PatternWorkload(workload.N1Strided)
	p := LadderPayload{
		Framework:    fw.Name(),
		Workload:     w.Name(),
		Mode:         o.ScaleMode.String(),
		PerRankBytes: o.PerRankBytes,
		PoolSize:     PoolSize(),
	}
	for _, ranks := range doublingLadder(BenchLadderMinRanks, maxRanks) {
		// One rung at a time, so each rung's wall time and heap peak are
		// its own.
		rung := RankAxis
		rung.Rungs = func(Options) []int64 { return []int64{ranks} }
		sched.resetPeak()
		start := time.Now()
		if _, err := Sweep(rung, fw, w, o); err != nil {
			return Snapshot{}, fmt.Errorf("rung %d: %w", ranks, err)
		}
		p.Rungs = append(p.Rungs, BenchRung{
			Ranks:      int(ranks),
			WallMS:     float64(time.Since(start).Microseconds()) / 1e3,
			PeakHeapMB: float64(sched.peakHeapBytes()) / (1 << 20),
		})
	}
	return newSnapshot("scale-ladder", p), nil
}

// benchFramework picks the ladder cell's framework: the paper's LANL-Trace,
// falling back to the registry's first entry.
func benchFramework() framework.Framework {
	all := framework.All()
	for _, fw := range all {
		if fw.Name() == "LANL-Trace" {
			return fw
		}
	}
	return all[0]
}
