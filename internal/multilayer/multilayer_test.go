package multilayer

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func runTraced(t *testing.T) (*Session, *cluster.Cluster) {
	t.Helper()
	c := testCluster()
	s := Attach(c)
	params := workload.Params{
		Pattern:   workload.N1Strided,
		BlockSize: 128 << 10,
		NObj:      4,
		Path:      "/pfs/ml.out",
	}
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	return s, c
}

func TestEveryWriteCorrelatesAcrossLayers(t *testing.T) {
	s, _ := runTraced(t)
	b := s.Analyze()
	writes := 0
	for _, cb := range b.Calls {
		if cb.Name != "MPI_File_write_at" {
			continue
		}
		writes++
		if cb.NestedSyscalls == 0 {
			t.Fatalf("write with no nested syscall: %+v", cb)
		}
		if cb.NestedFSOps == 0 {
			t.Fatalf("write with no nested FS op: %+v", cb)
		}
	}
	// 4 ranks x 4 objects.
	if writes != 16 {
		t.Fatalf("writes correlated = %d, want 16", writes)
	}
}

func TestLayerDecompositionSumsToTotal(t *testing.T) {
	s, _ := runTraced(t)
	b := s.Analyze()
	for _, cb := range b.Calls {
		sum := cb.Library + cb.Kernel + cb.Storage
		// Clamping can only shrink components, so sum <= total always; for
		// I/O calls the decomposition should be near-exact.
		if sum > cb.Total {
			t.Fatalf("decomposition exceeds total: %+v", cb)
		}
		if cb.Name == "MPI_File_write_at" && float64(sum) < 0.9*float64(cb.Total) {
			t.Fatalf("decomposition lost >10%% of %s: %+v", cb.Name, cb)
		}
	}
}

func TestStorageDominatesForLargeWrites(t *testing.T) {
	// For 128 KB writes on the simulated PFS, time below the VFS (network,
	// servers, disks) must dominate the thin library/kernel layers.
	s, _ := runTraced(t)
	tot := s.Analyze().Totals()
	if tot.Storage < tot.Library || tot.Storage < tot.Kernel {
		t.Fatalf("storage layer not dominant: %+v", tot)
	}
}

func TestEndStateUnchangedByInstrumentation(t *testing.T) {
	params := workload.Params{
		Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4, Path: "/pfs/ml.out",
	}
	plain := testCluster()
	params.Spec().Run(plain.World)
	s1, d1, w1, _ := plain.PFS.Snapshot(params.Path)

	instrumented := testCluster()
	Attach(instrumented)
	instrumented.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	s2, d2, w2, _ := instrumented.PFS.Snapshot(params.Path)
	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("instrumentation altered data: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

func TestFormatOutput(t *testing.T) {
	s, _ := runTraced(t)
	out := s.Analyze().Format()
	for _, want := range []string{"library", "kernel", "storage", "MPI I/O calls"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyBreakdownFormat(t *testing.T) {
	var b Breakdown
	if !strings.Contains(b.Format(), "no calls") {
		t.Fatal("empty format")
	}
}

func TestLayerStrings(t *testing.T) {
	if LayerLibrary.String() != "library" || LayerSyscall.String() != "kernel" || LayerFS.String() != "storage" {
		t.Fatal("layer strings")
	}
}

func TestClassificationValidates(t *testing.T) {
	c := Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bool(c.AnalysisTools) {
		t.Fatal("multi-layer analysis is an analysis tool by definition")
	}
	if len(c.EventTypes) != 3 {
		t.Fatalf("event types = %v", c.EventTypes)
	}
}

// TestAnalyzeRanksPerNode checks that attribution does not depend on rank
// placement. Ranks sharing a node share one VFS-boundary probe, whose records
// all carry the node's first rank, so only the causal spans can tell whose
// write an FS op served. Every rank's writes must carry nested FS ops, and
// the per-call counts and the orphan total must match one rank per node.
func TestAnalyzeRanksPerNode(t *testing.T) {
	params := workload.Params{
		Pattern:   workload.N1Strided,
		BlockSize: 128 << 10,
		NObj:      4,
		Path:      "/pfs/rpn.out",
	}
	analyze := func(ranksPerNode int) Breakdown {
		cfg := cluster.Small()
		cfg.RanksPerNode = ranksPerNode
		cfg.TotalRanks = 4
		c := cluster.New(cfg)
		s := Attach(c)
		c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
			workload.Program(p, r, params, nil)
		})
		return s.Analyze()
	}
	base := analyze(1)
	for _, rpn := range []int{1, 2, 4} {
		b := analyze(rpn)
		if len(b.Calls) != len(base.Calls) {
			t.Fatalf("ranks/node %d: %d calls, want %d", rpn, len(b.Calls), len(base.Calls))
		}
		for i, cb := range b.Calls {
			if strings.HasPrefix(cb.Name, "MPI_File_write") && cb.NestedFSOps == 0 {
				t.Errorf("ranks/node %d: rank %d %s has no nested FS ops", rpn, cb.Rank, cb.Name)
			}
			want := base.Calls[i]
			if cb.Rank != want.Rank || cb.Name != want.Name ||
				cb.NestedSyscalls != want.NestedSyscalls || cb.NestedFSOps != want.NestedFSOps {
				t.Errorf("ranks/node %d: call %d = rank %d %s (%d sys, %d fs), want rank %d %s (%d sys, %d fs)",
					rpn, i, cb.Rank, cb.Name, cb.NestedSyscalls, cb.NestedFSOps,
					want.Rank, want.Name, want.NestedSyscalls, want.NestedFSOps)
			}
		}
		if b.Orphan != base.Orphan {
			t.Errorf("ranks/node %d: %d orphans, want %d", rpn, b.Orphan, base.Orphan)
		}
	}
}
