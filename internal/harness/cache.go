package harness

// This file is the content-addressed leaf-result cache under every sweep
// engine. The taxonomy's overhead numbers are built from comparisons against
// identical, deterministically seeded untraced baselines, so a full-registry
// matrix used to spend nearly half its simulations recomputing byte-identical
// results — one untraced run per framework row instead of one per
// workload-column. Each leaf simulation is a pure function of its inputs
// (workload, scale, cluster config including seed, and the tracing framework
// or its absence), so its summary can be addressed by a digest of those
// inputs and reused:
//
//   - within a run, the engine's task set collapses identical untraced
//     baselines into one scheduled task that fans out to every row
//     (construction-time sharing; see taskSet in harness.go);
//   - across concurrent engine calls, identical in-flight keys collapse via
//     singleflight;
//   - across processes, summaries persist as versioned JSON files
//     (`workload.Result`/`framework.Report` with per-rank detail stripped,
//     never raw traces), so a repeated run executes zero simulations.
//
// The key addresses *inputs*, not simulator code: editing a simulator
// changes what a key should produce without changing the key. cacheSchema
// exists for exactly that — bump it whenever simulated behaviour changes,
// which invalidates every persisted entry at load time. Corrupt, stale, or
// foreign files are silently treated as misses; caching is always
// best-effort and never a correctness dependency.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"iotaxo/internal/fnvhash"
	"iotaxo/internal/framework"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

// cacheSchema versions the persisted entry format AND the simulated
// behaviour it captures. Bump on any change to the simulators, cost models,
// or result summaries: entries written under another schema are ignored.
const cacheSchema = 2

// simKey identifies one leaf simulation by its complete input set. Two runs
// with equal keys are the same deterministic simulation and must produce
// the same summary.
type simKey struct {
	// Framework is the registered framework name; empty for an untraced
	// baseline run.
	Framework string
	// Variant distinguishes framework configurations that share a Name
	// (framework.VariantDigest; 0 when the Name says it all).
	Variant uint64
	// Workload is the registered scenario name.
	Workload string
	// Scale and Cluster fingerprint the run size and the full testbed
	// configuration (seed included).
	Scale   uint64
	Cluster uint64
}

// id renders the canonical, schema-versioned key string persisted alongside
// each disk entry, so hash-filename collisions can never alias entries.
func (k simKey) id() string {
	return fmt.Sprintf("v%d|%s|%016x|%s|%016x|%016x",
		cacheSchema, k.Framework, k.Variant, k.Workload, k.Scale, k.Cluster)
}

// fileName is the key's on-disk entry name: a digest of id, so arbitrary
// framework/workload names never need path escaping.
func (k simKey) fileName() string {
	return fmt.Sprintf("%016x.json", fnvhash.String(fnvhash.Offset64, k.id()))
}

// cacheEntry is one cached leaf summary: an untraced Result or a traced
// Report, per-rank detail already stripped.
type cacheEntry struct {
	res    workload.Result
	rep    framework.Report
	traced bool
}

// diskEntry is the persisted JSON form of a cacheEntry.
type diskEntry struct {
	Schema int               `json:"schema"`
	Key    string            `json:"key"`
	Result *workload.Result  `json:"result,omitempty"`
	Report *framework.Report `json:"report,omitempty"`
}

// CacheStats is a point-in-time counter snapshot of a Cache. Engines report
// per-call deltas (SweepStats); the counters themselves are cumulative over
// the Cache's lifetime.
type CacheStats struct {
	// Executed counts leaf simulations actually run.
	Executed int64
	// Shared counts simulations avoided by in-run baseline sharing: fan-out
	// destinations beyond the first for one untraced key.
	Shared int64
	// MemHits and DiskHits count simulations avoided by the in-memory and
	// persisted layers (a singleflight wait resolves as a MemHit).
	MemHits  int64
	DiskHits int64
	// Switches and Elided sum the executed simulations' coroutine resumes
	// and elided sleeps (sim.Env.Switches and Elided) over the clusters the
	// engine built for them.
	Switches int64
	Elided   int64
}

// sub returns the counter delta since an earlier snapshot.
func (s CacheStats) sub(before CacheStats) CacheStats {
	return CacheStats{
		Executed: s.Executed - before.Executed,
		Shared:   s.Shared - before.Shared,
		MemHits:  s.MemHits - before.MemHits,
		DiskHits: s.DiskHits - before.DiskHits,
		Switches: s.Switches - before.Switches,
		Elided:   s.Elided - before.Elided,
	}
}

// Hits is the total count of simulations answered from a cache layer.
func (s CacheStats) Hits() int64 { return s.MemHits + s.DiskHits }

// Cache is a content-addressed store of leaf-simulation summaries: an
// in-memory map with singleflight dedup of concurrent identical runs, plus
// an optional persisted layer under dir. The zero dir means memory-only.
// A Cache is safe for concurrent use and is only ever a performance layer:
// every hit returns a summary byte-identical to re-running the simulation.
type Cache struct {
	dir string

	mu     sync.Mutex
	mem    map[simKey]cacheEntry
	flight map[simKey]chan struct{}

	executed atomic.Int64
	shared   atomic.Int64
	memHits  atomic.Int64
	diskHits atomic.Int64
	switches atomic.Int64
	elided   atomic.Int64
}

// NewCache returns a cache persisting under dir; dir == "" is memory-only.
// An unusable directory degrades to memory-only rather than failing: the
// cache is an accelerator, not a dependency.
func NewCache(dir string) *Cache {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			dir = ""
		}
	}
	return &Cache{
		dir:    dir,
		mem:    make(map[simKey]cacheEntry),
		flight: make(map[simKey]chan struct{}),
	}
}

// DefaultCacheDir returns the conventional persisted-cache location
// (~/.cache/iotaxo or the platform equivalent), or "" when the user cache
// directory is unknown (callers then get a memory-only cache).
func DefaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "iotaxo")
}

// Stats snapshots the cumulative counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Executed: c.executed.Load(),
		Shared:   c.shared.Load(),
		MemHits:  c.memHits.Load(),
		DiskHits: c.diskHits.Load(),
		Switches: c.switches.Load(),
		Elided:   c.elided.Load(),
	}
}

// countHandoffs adds one executed simulation's hand-offs to the counters.
func (c *Cache) countHandoffs(env *sim.Env) {
	c.switches.Add(int64(env.Switches()))
	c.elided.Add(int64(env.Elided()))
}

// untraced returns the cached baseline summary for k, running the
// simulation on a miss. The summary's per-rank detail is stripped: cached
// and fresh results must be indistinguishable to sweep consumers, and the
// sweeps only fold whole-job aggregates.
func (c *Cache) untraced(k simKey, run func() workload.Result) workload.Result {
	e, _ := c.do(k, func() (cacheEntry, error) {
		res := run()
		res.PerRank = nil
		return cacheEntry{res: res}, nil
	})
	return e.res
}

// traced returns the cached traced-run summary for k, running the
// simulation on a miss. Errors are returned to the caller and never cached.
func (c *Cache) traced(k simKey, run func() (framework.Report, error)) (framework.Report, error) {
	e, err := c.do(k, func() (cacheEntry, error) {
		rep, err := run()
		if err != nil {
			return cacheEntry{}, err
		}
		rep.Result.PerRank = nil
		return cacheEntry{rep: rep, traced: true}, nil
	})
	return e.rep, err
}

// do is the memoization core: memory hit, else singleflight-coordinated
// disk load or execution. Concurrent callers with the same key wait for the
// first and then re-check memory, so one key never simulates twice at once.
func (c *Cache) do(k simKey, run func() (cacheEntry, error)) (cacheEntry, error) {
	for {
		c.mu.Lock()
		if e, ok := c.mem[k]; ok {
			c.mu.Unlock()
			c.memHits.Add(1)
			return e, nil
		}
		if ch, ok := c.flight[k]; ok {
			c.mu.Unlock()
			<-ch
			// The flight either populated memory (hit on the next pass) or
			// failed (this caller takes over the flight and re-runs).
			continue
		}
		ch := make(chan struct{})
		c.flight[k] = ch
		c.mu.Unlock()

		e, err := c.fill(k, run)

		c.mu.Lock()
		delete(c.flight, k)
		c.mu.Unlock()
		close(ch)
		return e, err
	}
}

// fill resolves a missed key while holding its flight: persisted layer
// first, execution otherwise.
func (c *Cache) fill(k simKey, run func() (cacheEntry, error)) (cacheEntry, error) {
	if e, ok := c.loadDisk(k); ok {
		c.diskHits.Add(1)
		c.storeMem(k, e)
		return e, nil
	}
	c.executed.Add(1)
	e, err := run()
	if err != nil {
		return e, err
	}
	c.storeMem(k, e)
	c.storeDisk(k, e)
	return e, nil
}

func (c *Cache) storeMem(k simKey, e cacheEntry) {
	c.mu.Lock()
	c.mem[k] = e
	c.mu.Unlock()
}

// loadDisk reads k's persisted entry. Any failure — missing file, corrupt
// JSON, stale schema, key mismatch after a filename-hash collision — is a
// silent miss.
func (c *Cache) loadDisk(k simKey) (cacheEntry, bool) {
	var e cacheEntry
	if c.dir == "" {
		return e, false
	}
	b, err := os.ReadFile(filepath.Join(c.dir, k.fileName()))
	if err != nil {
		return e, false
	}
	var d diskEntry
	if json.Unmarshal(b, &d) != nil {
		return e, false
	}
	if d.Schema != cacheSchema || d.Key != k.id() {
		return e, false
	}
	switch {
	case k.Framework == "" && d.Result != nil:
		e.res = *d.Result
		return e, true
	case k.Framework != "" && d.Report != nil:
		e.rep = *d.Report
		e.traced = true
		return e, true
	}
	return e, false
}

// storeDisk persists k's entry via temp-file + rename, so a concurrent
// reader never observes a torn write. Failures are ignored: the memory
// layer already holds the result.
func (c *Cache) storeDisk(k simKey, e cacheEntry) {
	if c.dir == "" {
		return
	}
	d := diskEntry{Schema: cacheSchema, Key: k.id()}
	if e.traced {
		d.Report = &e.rep
	} else {
		d.Result = &e.res
	}
	b, err := json.Marshal(d)
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if os.Rename(name, filepath.Join(c.dir, k.fileName())) != nil {
		os.Remove(name)
	}
}

// SweepStats is one engine call's performance accounting: the cache-counter
// delta over the call plus the scheduler's concurrency envelope. It lives
// beside the measurement results — never inside Format/CSV output, which
// must stay byte-identical between cold and warm runs — and is rendered by
// the CLIs as a stderr footer.
type SweepStats struct {
	CacheStats
	// PeakConcurrency is the scheduler's high-water mark of simultaneously
	// live simulations (process-wide since the last reset).
	PeakConcurrency int
	// PoolSize is the scheduler's concurrency bound.
	PoolSize int
	// PeakHeapBytes is the process heap high-water (HeapAlloc) sampled by
	// the scheduler while this call's tasks ran.
	PeakHeapBytes uint64
}

// Footer renders the one-line accounting summary the CLIs print to stderr.
func (s SweepStats) Footer() string {
	return fmt.Sprintf("# simulations: %d executed, %d shared baselines, %d cached (%d memory, %d disk); scheduler peak %d/%d; heap peak %s",
		s.Executed, s.Shared, s.Hits(), s.MemHits, s.DiskHits, s.PeakConcurrency, s.PoolSize, fmtBytes(s.PeakHeapBytes))
}

// fmtBytes renders a byte count with a binary-unit suffix for the footer.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// sweepStatsSince folds the cache delta since before with the scheduler
// envelope: the per-engine-call accounting constructor.
func sweepStatsSince(c *Cache, before CacheStats) SweepStats {
	return SweepStats{
		CacheStats:      c.Stats().sub(before),
		PeakConcurrency: sched.peakConcurrency(),
		PoolSize:        sched.size(),
		PeakHeapBytes:   sched.peakHeapBytes(),
	}
}
