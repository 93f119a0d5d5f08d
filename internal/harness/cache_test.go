package harness

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"iotaxo/internal/anonymize"
	"iotaxo/internal/framework"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/partrace"
	"iotaxo/internal/tracefs"
	"iotaxo/internal/workload"
)

// matrixLeafCounts returns the expected simulation counts of a cold
// full-registry matrix at o: one shared untraced baseline per workload x
// block column plus one traced run per cell x block, and the per-cell
// baseline reuses that sharing saves.
func matrixLeafCounts(o Options) (executed, shared int64) {
	f := int64(len(framework.All()))
	w := int64(len(workload.All()))
	b := int64(len(o.BlockSizes))
	return w*b + f*w*b, (f - 1) * w * b
}

// TestMatrixBaselineSharing pins the tentpole's cold-run arithmetic: the
// full-registry smoke matrix executes exactly one untraced run per
// workload x block (not one per framework row), meeting the (1+F)/2F bound
// over the previous 2·F·W·B simulation count.
func TestMatrixBaselineSharing(t *testing.T) {
	o := MatrixSmokeOptions()
	o.Cache = NewCache("")
	m, err := MatrixSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	wantExecuted, wantShared := matrixLeafCounts(o)
	if m.Stats.Executed != wantExecuted {
		t.Errorf("cold matrix executed %d simulations, want %d (one untraced per workload x block)", m.Stats.Executed, wantExecuted)
	}
	if m.Stats.Shared != wantShared {
		t.Errorf("cold matrix shared %d baselines, want %d", m.Stats.Shared, wantShared)
	}
	// The acceptance bound: at most (1+F)/2F of the pre-cache count 2·F·W·B.
	f := int64(len(framework.All()))
	previous := 2 * f * int64(len(workload.All())) * int64(len(o.BlockSizes))
	if m.Stats.Executed*2*f > previous*(1+f) {
		t.Errorf("executed %d > (1+F)/2F of previous %d", m.Stats.Executed, previous)
	}
}

// TestMatrixWarmCacheByteIdentical is the memoization-correctness
// invariant: a warm repeat of the same matrix executes zero simulations and
// renders byte-identically.
func TestMatrixWarmCacheByteIdentical(t *testing.T) {
	o := MatrixSmokeOptions()
	o.Cache = NewCache("")
	cold, err := MatrixSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := MatrixSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 {
		t.Errorf("warm matrix executed %d simulations, want 0", warm.Stats.Executed)
	}
	if warm.Stats.MemHits == 0 {
		t.Error("warm matrix reported no memory hits")
	}
	if cold.Format() != warm.Format() {
		t.Errorf("warm Format differs from cold:\ncold:\n%s\nwarm:\n%s", cold.Format(), warm.Format())
	}
	if core, warmCore := cold.RenderComparison(), warm.RenderComparison(); core != warmCore {
		t.Error("warm RenderComparison differs from cold")
	}
}

// TestScaleMatrixWarmCacheByteIdentical mirrors the warm-run invariant on
// the rank-ladder engine.
func TestScaleMatrixWarmCacheByteIdentical(t *testing.T) {
	o := LadderSmokeOptions()
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	o.Cache = NewCache("")
	cold, err := SeriesMatrixSweep(RankAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed == 0 {
		t.Fatal("cold scale matrix executed no simulations")
	}
	warm, err := SeriesMatrixSweep(RankAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 {
		t.Errorf("warm scale matrix executed %d simulations, want 0", warm.Stats.Executed)
	}
	if cold.Format() != warm.Format() {
		t.Error("warm scale-matrix Format differs from cold")
	}
}

// TestServerMatrixWarmCache mirrors the warm-run invariant on the
// server-ladder engine.
func TestServerMatrixWarmCache(t *testing.T) {
	o := LadderSmokeOptions()
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.NToN)}
	o.Cache = NewCache("")
	cold, err := SeriesMatrixSweep(ServerAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := SeriesMatrixSweep(ServerAxis, o)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 {
		t.Errorf("warm server matrix executed %d simulations, want 0", warm.Stats.Executed)
	}
	if cold.Format() != warm.Format() {
		t.Error("warm server-matrix Format differs from cold")
	}
}

// restrictedSmoke returns a one-framework, one-workload smoke configuration
// for the disk-layer tests, which re-execute several cold runs.
func restrictedSmoke(dir string) Options {
	o := MatrixSmokeOptions()
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	o.Cache = NewCache(dir)
	return o
}

// TestCachePersistsAcrossProcesses simulates two processes sharing one
// cache directory: a fresh Cache on the same dir answers every leaf from
// disk and executes nothing.
func TestCachePersistsAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	o := restrictedSmoke(dir)
	fw := framework.All()[0]
	cold, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Executed == 0 {
		t.Fatal("cold run executed no simulations")
	}

	o.Cache = NewCache(dir) // a "new process": empty memory, same disk
	warm, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Executed != 0 {
		t.Errorf("disk-warm run executed %d simulations, want 0", warm.Stats.Executed)
	}
	if warm.Stats.DiskHits != cold.Stats.Executed {
		t.Errorf("disk-warm run hit disk %d times, want %d", warm.Stats.DiskHits, cold.Stats.Executed)
	}
	if cold.Format() != warm.Format() {
		t.Error("disk-warm Format differs from cold")
	}
}

// mangleCacheFiles applies f to every persisted entry in dir.
func mangleCacheFiles(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache entries to mangle in %s (err %v)", dir, err)
	}
	for _, p := range entries {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, f(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptedCacheFileIgnored: garbage entries are silent misses, never
// fatal, and the re-executed output is unchanged.
func TestCorruptedCacheFileIgnored(t *testing.T) {
	dir := t.TempDir()
	o := restrictedSmoke(dir)
	fw := framework.All()[0]
	cold, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	mangleCacheFiles(t, dir, func([]byte) []byte { return []byte("not json{{{") })

	o.Cache = NewCache(dir)
	rerun, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Stats.Executed != cold.Stats.Executed {
		t.Errorf("corrupted cache: executed %d, want full re-execution %d", rerun.Stats.Executed, cold.Stats.Executed)
	}
	if rerun.Stats.DiskHits != 0 {
		t.Errorf("corrupted cache served %d disk hits, want 0", rerun.Stats.DiskHits)
	}
	if cold.Format() != rerun.Format() {
		t.Error("re-executed Format differs from cold")
	}
}

// TestStaleSchemaVersionIgnored: entries written under another cacheSchema
// are invalidated at load, forcing re-execution.
func TestStaleSchemaVersionIgnored(t *testing.T) {
	dir := t.TempDir()
	o := restrictedSmoke(dir)
	fw := framework.All()[0]
	cold, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	mangleCacheFiles(t, dir, func(b []byte) []byte {
		return bytes.Replace(b, fmt.Appendf(nil, `{"schema":%d,`, cacheSchema), fmt.Appendf(nil, `{"schema":%d,`, cacheSchema-1), 1)
	})

	o.Cache = NewCache(dir)
	rerun, err := MatrixSweepOf(o, fw)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Stats.Executed != cold.Stats.Executed {
		t.Errorf("stale-schema cache: executed %d, want full re-execution %d", rerun.Stats.Executed, cold.Stats.Executed)
	}
	if rerun.Stats.DiskHits != 0 {
		t.Errorf("stale-schema cache served %d disk hits, want 0", rerun.Stats.DiskHits)
	}
}

// TestSimKeysPinned pins each registered workload's cache key at the smoke
// scale. Key drift silently orphans every persisted cache entry (and, far
// worse, a drift that *merges* keys would alias distinct simulations), so
// any change here must be deliberate — and almost always paired with a
// cacheSchema bump.
func TestSimKeysPinned(t *testing.T) {
	want := map[string]string{
		"N-1 non-strided":    "v2||0000000000000000|N-1 non-strided|0c6868357317be46|2137a13ba9160b71",
		"N-1 strided":        "v2||0000000000000000|N-1 strided|0c6868357317be46|2137a13ba9160b71",
		"N-N":                "v2||0000000000000000|N-N|0c6868357317be46|2137a13ba9160b71",
		"analytics-scan":     "v2||0000000000000000|analytics-scan|0c6868357317be46|2137a13ba9160b71",
		"checkpoint-restart": "v2||0000000000000000|checkpoint-restart|0c6868357317be46|2137a13ba9160b71",
		"metadata-storm":     "v2||0000000000000000|metadata-storm|0c6868357317be46|2137a13ba9160b71",
		"producer-consumer":  "v2||0000000000000000|producer-consumer|0c6868357317be46|2137a13ba9160b71",
	}
	o := MatrixSmokeOptions()
	sc := o.scaleFor(o.BlockSizes[0])
	for _, w := range workload.All() {
		got := o.simKeyFor(nil, w, sc).id()
		if pinned, ok := want[w.Name()]; !ok {
			t.Errorf("workload %q has no pinned key; add %q", w.Name(), got)
		} else if got != pinned {
			t.Errorf("workload %q key drifted:\n got %s\nwant %s", w.Name(), got, pinned)
		}
	}
}

// TestLANLTraceVariantsGetDistinctKeys guards the one known Name collision:
// strace- and ltrace-mode LANL-Trace share a registered Name and must not
// share cache entries.
func TestLANLTraceVariantsGetDistinctKeys(t *testing.T) {
	o := MatrixSmokeOptions()
	sc := o.scaleFor(o.BlockSizes[0])
	w := workload.PatternWorkload(workload.N1Strided)
	ltrace := o.simKeyFor(o.lanlFramework(), w, sc)
	so := o
	so.Mode = lanltrace.ModeStrace
	strace := so.simKeyFor(so.lanlFramework(), w, sc)
	if ltrace == strace {
		t.Fatalf("ltrace and strace modes share cache key %s", ltrace.id())
	}
	if ltrace.Variant == 0 || strace.Variant == 0 {
		t.Errorf("LANL-Trace variants must fingerprint their config (got %016x, %016x)", ltrace.Variant, strace.Variant)
	}
}

// TestTracefsVariantOnSharedCache: a configured Tracefs instance shares the
// registered Name with the default one, so its cache key must carry the
// configuration. Served from a cache that already holds the default's cell,
// the compressed variant must still report its own (smaller) trace.
func TestTracefsVariantOnSharedCache(t *testing.T) {
	o := QuickOptions()
	o.BlockSizes = []int64{64 << 10}
	w := workload.PatternWorkload(workload.N1Strided)
	cfg := tracefs.DefaultConfig()
	cfg.Compress = true
	compressed := tracefs.AsFramework(cfg)
	fresh, err := Sweep(BlockAxis, compressed, w, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = NewCache("")
	def, err := Sweep(BlockAxis, framework.MustLookup("Tracefs"), w, o)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Sweep(BlockAxis, compressed, w, o)
	if err != nil {
		t.Fatal(err)
	}
	got, want := shared.Points[0].TraceBytes, fresh.Points[0].TraceBytes
	if got != want {
		t.Fatalf("compressed Tracefs on a shared cache reports %d trace bytes, want %d (the default reports %d)",
			got, want, def.Points[0].TraceBytes)
	}
	if want >= def.Points[0].TraceBytes {
		t.Fatalf("compression did not shrink the trace: %d vs %d bytes", want, def.Points[0].TraceBytes)
	}
}

// TestDeepDivesWarmCache: every deep-dive stages its simulations through the
// memoizing task set, so a second call on one shared cache executes nothing
// and renders byte-identically.
func TestDeepDivesWarmCache(t *testing.T) {
	for name, run := range map[string]func(Options) string{
		"tracefs":    func(o Options) string { return TracefsExperiment(o).Format() },
		"ptrace":     func(o Options) string { return ParallelTraceExperiment(o).Format() },
		"collective": func(o Options) string { return CollectiveAblation(o).Format() },
	} {
		o := QuickOptions()
		o.Cache = NewCache("")
		cold := run(o)
		if o.Cache.Stats().Executed == 0 {
			t.Errorf("%s: the cold call executed no simulations through the cache", name)
			continue
		}
		before := o.Cache.Stats()
		warm := run(o)
		if d := o.Cache.Stats().sub(before); d.Executed != 0 {
			t.Errorf("%s: warm call executed %d simulations, want 0", name, d.Executed)
		}
		if warm != cold {
			t.Errorf("%s: warm output differs:\n%s\nvs cold:\n%s", name, warm, cold)
		}
	}
}

// TestVariantDigestsCoverConfig walks the Tracefs and //TRACE configs by
// reflection, in the style of cluster's TestConfigDigest: changing any
// field that changes a measurement must change the framework's
// VariantDigest, or configured instances would alias each other's cache
// entries. A field added later fails here until VariantDigest hashes it or
// the test names it as unmeasured.
func TestVariantDigestsCoverConfig(t *testing.T) {
	tfs := tracefs.DefaultConfig()
	ptr := partrace.DefaultConfig()
	for _, tc := range []struct {
		name   string
		cfg    reflect.Value
		digest func() uint64
		// set holds the mutation of each field whose kind the walk cannot
		// mutate by itself; skip names the fields no measurement reads.
		set  map[string]any
		skip map[string]string
	}{
		{
			name:   "tracefs",
			cfg:    reflect.ValueOf(&tfs).Elem(),
			digest: func() uint64 { return framework.VariantDigest(tracefs.AsFramework(tfs)) },
			set: map[string]any{
				"Filter":      tracefs.MustCompileFilter("op == write"),
				"EncryptSpec": anonymize.Spec{anonymize.FieldPath: true},
				"Key":         []byte("k"),
			},
			skip: map[string]string{"ForceStack": "Attach always sets it"},
		},
		{
			name:   "partrace",
			cfg:    reflect.ValueOf(&ptr).Elem(),
			digest: func() uint64 { return framework.VariantDigest(partrace.AsFramework(ptr)) },
		},
	} {
		base := tc.digest()
		if base == 0 {
			t.Errorf("%s: the default config has no variant digest", tc.name)
		}
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			if v.Kind() == reflect.Struct {
				for i := range v.NumField() {
					walk(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
				}
				return
			}
			if tc.skip[path] != "" {
				return
			}
			before := reflect.ValueOf(v.Interface())
			switch {
			case tc.set[path] != nil:
				v.Set(reflect.ValueOf(tc.set[path]))
			case v.Kind() == reflect.Int || v.Kind() == reflect.Int64:
				v.SetInt(v.Int() + 1)
			case v.Kind() == reflect.Bool:
				v.SetBool(!v.Bool())
			default:
				t.Fatalf("%s: %s: no mutation for kind %s; teach this test and VariantDigest about it", tc.name, path, v.Kind())
			}
			if tc.digest() == base {
				t.Errorf("%s: mutating %s did not change the variant digest", tc.name, path)
			}
			v.Set(before)
		}
		walk("", tc.cfg)
		if tc.digest() != base {
			t.Fatalf("%s: the walk did not restore every field", tc.name)
		}
	}
}

// TestCacheSingleflight: concurrent identical keys execute once.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache("")
	k := simKey{Workload: "w", Scale: 1, Cluster: 2}
	var executions int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.untraced(k, func() workload.Result {
				mu.Lock()
				executions++
				mu.Unlock()
				return workload.Result{Workload: "w", Ranks: 4}
			})
		}()
	}
	wg.Wait()
	if executions != 1 {
		t.Errorf("singleflight ran %d executions, want 1", executions)
	}
	if s := c.Stats(); s.Executed != 1 || s.Executed+s.MemHits != 8 {
		t.Errorf("stats %+v: want 1 executed, 7 memory hits", s)
	}
}

// TestSchedulerShortestFirst: run() starts tasks in ascending cost order,
// stable on ties, so big ladder rungs cannot head-of-line-block small ones.
func TestSchedulerShortestFirst(t *testing.T) {
	s := newScheduler(1) // serial: start order == completion order
	var order []int
	var mu sync.Mutex
	mk := func(id int) func() {
		return func() {
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
		}
	}
	s.run([]task{
		{cost: 30, run: mk(0)},
		{cost: 10, run: mk(1)},
		{cost: 20, run: mk(2)},
		{cost: 10, run: mk(3)},
	})
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v (shortest-first, stable ties)", order, want)
		}
	}
}

// TestBenchSweep exercises the perf-trajectory path end to end: the
// snapshot must report a self-consistent cold/warm pair and pass its bars.
func TestBenchSweep(t *testing.T) {
	snap, err := BenchSweep()
	if err != nil {
		t.Fatal(err)
	}
	checkBars(t, snap, "identical", "warm.executed", "cold.mallocs_k", "cold.switches_k")
	p := snap.Payload.(SweepPayload)
	if p.Warm.Executed != 0 || p.Warm.SwitchesK != 0 || p.Warm.ElidedK != 0 {
		t.Errorf("bench snapshot: warm run executed %d simulations (%gk switches, %gk elided), want none",
			p.Warm.Executed, p.Warm.SwitchesK, p.Warm.ElidedK)
	}
	// Elision moves resumes to Elided and changes no schedule, so the sum
	// is the cold sweep's resume count when every sleep parks.
	if resumes := math.Round((p.Cold.SwitchesK + p.Cold.ElidedK) * 1e3); resumes != coldResumes {
		t.Errorf("bench snapshot: cold switches+elided = %.0f, want %d", resumes, coldResumes)
	}
	o := MatrixSmokeOptions()
	wantExecuted, wantShared := matrixLeafCounts(o)
	if p.Cold.Executed != wantExecuted || p.Cold.Shared != wantShared {
		t.Errorf("bench snapshot cold counts executed=%d shared=%d, want %d/%d",
			p.Cold.Executed, p.Cold.Shared, wantExecuted, wantShared)
	}
	if snap.Experiment != "matrix-smoke" {
		t.Errorf("bench experiment %q, want matrix-smoke", snap.Experiment)
	}
	if back := roundTrip(t, snap, &SweepPayload{}); *back != p {
		t.Fatalf("snapshot JSON round-trip diverged: %+v, want %+v", *back, p)
	}
}

// coldResumes is the cold smoke sweep's Switches+Elided over its executed
// clusters: its coroutine resumes when every Sleep parks.
const coldResumes = 15186

// TestSweepStatsFooter pins the stderr accounting line's shape.
func TestSweepStatsFooter(t *testing.T) {
	s := SweepStats{
		CacheStats:      CacheStats{Executed: 2, Shared: 1, MemHits: 3, DiskHits: 4},
		PeakConcurrency: 5,
		PoolSize:        8,
	}
	f := s.Footer()
	for _, want := range []string{"2 executed", "1 shared", "7 cached", "3 memory", "4 disk", "peak 5/8"} {
		if !strings.Contains(f, want) {
			t.Errorf("footer %q missing %q", f, want)
		}
	}
}
