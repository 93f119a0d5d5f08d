package harness

// This file is the in-repo perf trajectory: BenchSweep times the registry
// smoke matrix cold (empty cache) and warm (same cache, same call) and
// packages wall time, executed-vs-cached simulation counts, and the
// scheduler envelope as a JSON-ready snapshot. `tracebench -bench-json`
// writes it to BENCH_sweep.json, which is committed each PR so the
// engine's performance history lives in the repository next to the code
// that produced it.

import (
	"encoding/json"
	"fmt"
	"time"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// BenchPhase is one timed pass of the bench sweep.
type BenchPhase struct {
	WallMS   float64 `json:"wall_ms"`
	Executed int64   `json:"executed"`
	Shared   int64   `json:"shared"`
	MemHits  int64   `json:"mem_hits"`
	DiskHits int64   `json:"disk_hits"`
}

// BenchSnapshot is one BENCH_sweep.json record: the smoke matrix timed
// cold and warm against one in-memory cache.
type BenchSnapshot struct {
	// Schema is the cache schema the snapshot was produced under.
	Schema     int    `json:"schema"`
	Experiment string `json:"experiment"`
	// Frameworks/Workloads/Blocks describe the swept matrix shape.
	Frameworks int `json:"frameworks"`
	Workloads  int `json:"workloads"`
	Blocks     int `json:"blocks"`

	Cold BenchPhase `json:"cold"`
	Warm BenchPhase `json:"warm"`

	PoolSize        int `json:"pool_size"`
	PeakConcurrency int `json:"peak_concurrency"`
	// Identical reports that the cold and warm Format renderings matched
	// byte for byte — the memoization-correctness invariant.
	Identical bool `json:"identical"`
}

// JSON renders the snapshot, indented, newline-terminated.
func (s BenchSnapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain struct of scalars; cannot fail
	}
	return string(b) + "\n"
}

// BenchSweep runs the full-registry smoke matrix twice against one fresh
// in-memory cache — cold, then warm — and reports the perf snapshot. An
// error means the sweep itself failed; a snapshot with Identical == false
// or Warm.Executed != 0 means the memoization layer is broken (the
// -bench-json CLI path treats both as fatal).
func BenchSweep() (BenchSnapshot, error) {
	o := MatrixSmokeOptions()
	o.Cache = NewCache("")

	start := time.Now()
	cold, err := MatrixSweep(o)
	coldWall := time.Since(start)
	if err != nil {
		return BenchSnapshot{}, fmt.Errorf("cold sweep: %w", err)
	}

	start = time.Now()
	warm, err := MatrixSweep(o)
	warmWall := time.Since(start)
	if err != nil {
		return BenchSnapshot{}, fmt.Errorf("warm sweep: %w", err)
	}

	phase := func(wall time.Duration, s SweepStats) BenchPhase {
		return BenchPhase{
			WallMS:   float64(wall.Microseconds()) / 1e3,
			Executed: s.Executed,
			Shared:   s.Shared,
			MemHits:  s.MemHits,
			DiskHits: s.DiskHits,
		}
	}
	return BenchSnapshot{
		Schema:          cacheSchema,
		Experiment:      "matrix-smoke",
		Frameworks:      len(cold.FrameworkNames()),
		Workloads:       len(cold.Workloads),
		Blocks:          len(o.BlockSizes),
		Cold:            phase(coldWall, cold.Stats),
		Warm:            phase(warmWall, warm.Stats),
		PoolSize:        warm.Stats.PoolSize,
		PeakConcurrency: cold.Stats.PeakConcurrency,
		Identical:       cold.Format() == warm.Format() && warm.Stats.Executed == 0,
	}, nil
}

// BenchLadderMinRanks is the ladder benchmark's base rung: where the
// fully-eventized engine's scaling story starts (the paper's own curves
// stop well below it).
const BenchLadderMinRanks = 512

// BenchRung is one rank-count rung of the ladder benchmark: one untraced
// plus one traced single-cell simulation, timed uncached.
type BenchRung struct {
	Ranks  int     `json:"ranks"`
	WallMS float64 `json:"wall_ms"`
	// PeakHeapMB is the scheduler-sampled heap high-water (HeapAlloc, MiB)
	// while this rung's two simulations ran.
	PeakHeapMB float64 `json:"peak_heap_mb"`
}

// BenchLadderSnapshot is one BENCH_ladder.json record: the single-cell
// scaling ladder timed rung by rung with heap watermarks. It is the resource
// trajectory of the eventized engine — wall time and peak heap per rung —
// committed beside BENCH_sweep.json so rank-scaling regressions show up in
// review diffs.
type BenchLadderSnapshot struct {
	Schema       int         `json:"schema"`
	Experiment   string      `json:"experiment"`
	Framework    string      `json:"framework"`
	Workload     string      `json:"workload"`
	Mode         string      `json:"mode"`
	PerRankBytes int64       `json:"per_rank_bytes"`
	PoolSize     int         `json:"pool_size"`
	Rungs        []BenchRung `json:"rungs"`
}

// JSON renders the snapshot, indented, newline-terminated.
func (s BenchLadderSnapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(err) // plain struct of scalars; cannot fail
	}
	return string(b) + "\n"
}

// BenchLadder times one single-cell (one framework, one workload) rung at
// each rank count doubling from BenchLadderMinRanks to maxRanks, uncached,
// and reports wall time plus the scheduler's heap high-water per rung. The
// cell is the paper's own — LANL-Trace on the N-1 strided pattern, weak
// scaling — at one block per rank: the ladder tracks the engine's per-rank
// fixed costs (construction, messaging, scheduling, tracing), which data
// volume would only dilute, and one block keeps the 65536-rank rung
// minutes, not hours.
func BenchLadder(maxRanks int) (BenchLadderSnapshot, error) {
	if maxRanks < BenchLadderMinRanks {
		maxRanks = BenchLadderMinRanks
	}
	o := LadderOptions()
	o.PerRankBytes = o.scaleBlock()
	o.Cache = NewCache("")
	fw := benchFramework()
	w := workload.PatternWorkload(workload.N1Strided)
	snap := BenchLadderSnapshot{
		Schema:       cacheSchema,
		Experiment:   "scale-ladder",
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
			return snap, fmt.Errorf("rung %d: %w", ranks, err)
		}
		snap.Rungs = append(snap.Rungs, BenchRung{
			Ranks:      int(ranks),
			WallMS:     float64(time.Since(start).Microseconds()) / 1e3,
			PeakHeapMB: float64(sched.peakHeapBytes()) / (1 << 20),
		})
	}
	return snap, nil
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
