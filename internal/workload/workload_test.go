package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"iotaxo/internal/cluster"
	"iotaxo/internal/sim"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func TestPatternsLeaveExpectedSizes(t *testing.T) {
	for _, pat := range []Pattern{NToN, N1NonStrided, N1Strided} {
		c := testCluster()
		params := Params{
			Pattern:   pat,
			BlockSize: 64 << 10,
			NObj:      8,
			Path:      "/pfs/testfile",
		}
		res := params.Spec().Run(c.World)
		perRank := int64(params.NObj) * params.BlockSize
		if want := perRank * int64(c.Ranks()); res.Bytes != want {
			t.Fatalf("%v: bytes = %d, want %d", pat, res.Bytes, want)
		}
		sizes := map[string]int64{params.Path: perRank * int64(c.Ranks())}
		if pat == NToN {
			sizes = make(map[string]int64)
			for r := 0; r < c.Ranks(); r++ {
				sizes[params.FileFor(r)] = perRank
			}
		}
		for path, wantSize := range sizes {
			size, _, _, ok := c.PFS.Snapshot(path)
			if !ok {
				t.Fatalf("%v: %s missing", pat, path)
			}
			if size != wantSize {
				t.Fatalf("%v: %s size = %d, want %d", pat, path, size, wantSize)
			}
		}
	}
}

func TestOffsetsDisjointAndComplete(t *testing.T) {
	// Property: for shared-file patterns, the union of all rank objects
	// tiles [0, ranks*nobj*bs) with no overlap.
	f := func(patRaw, ranksRaw, nobjRaw uint8) bool {
		pat := Pattern(int(patRaw)%2 + 1) // N1NonStrided or N1Strided
		ranks := int(ranksRaw)%6 + 1
		nobj := int(nobjRaw)%6 + 1
		const bs = 1024
		params := Params{Pattern: pat, BlockSize: bs, NObj: nobj, Path: "/f"}
		seen := make(map[int64]bool)
		for r := 0; r < ranks; r++ {
			for i := 0; i < nobj; i++ {
				off := params.OffsetFor(ranks, r, i)
				if off%bs != 0 || seen[off] {
					return false
				}
				seen[off] = true
			}
		}
		return len(seen) == ranks*nobj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStridedInterleavesRanks(t *testing.T) {
	params := Params{Pattern: N1Strided, BlockSize: 100, NObj: 4, Path: "/f"}
	// With 4 ranks, rank 0 obj 0 at 0, rank 1 obj 0 at 100, rank 0 obj 1 at 400.
	if params.OffsetFor(4, 0, 0) != 0 || params.OffsetFor(4, 1, 0) != 100 {
		t.Fatal("strided offsets wrong at object 0")
	}
	if params.OffsetFor(4, 0, 1) != 400 {
		t.Fatalf("strided offset = %d, want 400", params.OffsetFor(4, 0, 1))
	}
}

func TestNonStridedSegments(t *testing.T) {
	params := Params{Pattern: N1NonStrided, BlockSize: 100, NObj: 4, Path: "/f"}
	if params.OffsetFor(4, 1, 0) != 400 {
		t.Fatalf("segment base = %d, want 400", params.OffsetFor(4, 1, 0))
	}
	if params.OffsetFor(4, 1, 3) != 700 {
		t.Fatalf("segment end = %d, want 700", params.OffsetFor(4, 1, 3))
	}
}

func TestBandwidthPositiveAndBounded(t *testing.T) {
	c := testCluster()
	res := Params{Pattern: N1Strided, BlockSize: 256 << 10, NObj: 4, Path: "/pfs/bw"}.Spec().Run(c.World)
	bw := res.BandwidthBps()
	if bw <= 0 {
		t.Fatal("bandwidth not positive")
	}
	// Cannot exceed aggregate NIC bandwidth of the servers.
	maxBW := float64(c.Cfg.PFS.Servers) * c.Cfg.Net.BandwidthBps
	if bw > maxBW {
		t.Fatalf("bandwidth %g exceeds physical limit %g", bw, maxBW)
	}
}

func TestElapsedCoversIOPhase(t *testing.T) {
	c := testCluster()
	res := Params{Pattern: NToN, BlockSize: 64 << 10, NObj: 4, Path: "/pfs/e"}.Spec().Run(c.World)
	if res.IOElapsed <= 0 || res.Elapsed < res.IOElapsed {
		t.Fatalf("elapsed=%v io=%v", res.Elapsed, res.IOElapsed)
	}
}

func TestCommandLineMatchesFigure1Style(t *testing.T) {
	cl := Params{Pattern: N1Strided, BlockSize: 32768, NObj: 1, Path: "/pfs/f"}.CommandLine()
	if !strings.Contains(cl, `"-strided" "1"`) || !strings.Contains(cl, `"-size" "32768"`) {
		t.Fatalf("command line: %s", cl)
	}
}

func TestTouchReadsBack(t *testing.T) {
	c := testCluster()
	res := Params{Pattern: NToN, BlockSize: 64 << 10, NObj: 2, Path: "/pfs/t", Touch: true}.Spec().Run(c.World)
	if res.Bytes != int64(c.Ranks())*2*(64<<10) {
		t.Fatalf("bytes = %d", res.Bytes)
	}
}

func TestLargerBlocksHigherBandwidth(t *testing.T) {
	// The headline phenomenon: aggregate bandwidth grows with block size.
	run := func(bs int64, nobj int) float64 {
		c := testCluster()
		res := Params{Pattern: N1NonStrided, BlockSize: bs, NObj: nobj, Path: "/pfs/s"}.Spec().Run(c.World)
		return res.BandwidthBps()
	}
	small := run(16<<10, 16)
	large := run(256<<10, 1)
	if large <= small {
		t.Fatalf("bandwidth did not grow with block size: %g vs %g", small, large)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() sim.Duration {
		c := testCluster()
		return Params{Pattern: N1Strided, BlockSize: 64 << 10, NObj: 4, Path: "/pfs/d"}.Spec().Run(c.World).Elapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %v vs %v", a, b)
	}
}

func TestPatternStrings(t *testing.T) {
	for _, pat := range []Pattern{NToN, N1NonStrided, N1Strided} {
		if pat.String() == "" || strings.HasPrefix(pat.String(), "pattern(") {
			t.Fatalf("bad string for %d", int(pat))
		}
	}
}

func TestReadBackPhase(t *testing.T) {
	c := testCluster()
	res := Params{
		Pattern: N1Strided, BlockSize: 64 << 10, NObj: 4,
		Path: "/pfs/rb", ReadBack: true,
	}.Spec().Run(c.World)
	if res.BytesRead != res.Bytes {
		t.Fatalf("read back %d of %d bytes", res.BytesRead, res.Bytes)
	}
	if res.ReadBandwidthBps() <= 0 {
		t.Fatal("read bandwidth not positive")
	}
	if res.ReadElapsed <= 0 || res.Elapsed < res.IOElapsed+res.ReadElapsed {
		t.Fatalf("phase accounting: elapsed=%v io=%v read=%v", res.Elapsed, res.IOElapsed, res.ReadElapsed)
	}
}

func TestReadBackAllPatterns(t *testing.T) {
	for _, pat := range []Pattern{NToN, N1NonStrided, N1Strided} {
		c := testCluster()
		res := Params{
			Pattern: pat, BlockSize: 64 << 10, NObj: 2,
			Path: "/pfs/rbp", ReadBack: true,
		}.Spec().Run(c.World)
		if res.BytesRead != res.Bytes {
			t.Fatalf("%v: read %d of %d", pat, res.BytesRead, res.Bytes)
		}
	}
}

func TestCollectiveWorkloadMatchesIndependentEndState(t *testing.T) {
	run := func(collective bool) (int64, uint64) {
		c := testCluster()
		Params{
			Pattern: N1Strided, BlockSize: 64 << 10, NObj: 4,
			Path: "/pfs/cw", Collective: collective,
		}.Spec().Run(c.World)
		size, digest, _, _ := c.PFS.Snapshot("/pfs/cw")
		return size, digest
	}
	s1, d1 := run(false)
	s2, d2 := run(true)
	if s1 != s2 || d1 != d2 {
		t.Fatalf("collective workload end state differs: (%d,%x) vs (%d,%x)", s1, d1, s2, d2)
	}
}
