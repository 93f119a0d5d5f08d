package multilayer

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// TestSpanJoinMatchesWindowedOracle pins the tentpole refactor: the exact
// span-join Analyze must reproduce the slack-windowed correlation
// (analyzeWindowed, the oracle) bit for bit across a spread of workload
// shapes. Run under -race in CI, this also exercises the tracer hooks and
// span allocator for data races.
func TestSpanJoinMatchesWindowedOracle(t *testing.T) {
	trials := []workload.Params{
		{Pattern: workload.N1NonStrided, BlockSize: 64 << 10, NObj: 3, Path: "/pfs/a.out"},
		{Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4, Path: "/pfs/b.out"},
		{Pattern: workload.N1Strided, BlockSize: 32 << 10, NObj: 6, Path: "/pfs/c.out", BarrierEvery: 2},
		{Pattern: workload.NToN, BlockSize: 256 << 10, NObj: 2, Path: "/pfs/d.out"},
		{Pattern: workload.NToN, BlockSize: 16 << 10, NObj: 5, Path: "/pfs/e.out", ReadBack: true},
		{Pattern: workload.N1NonStrided, BlockSize: 8 << 10, NObj: 8, Path: "/pfs/f.out", ReadBack: true, BarrierEvery: 3},
	}
	for _, params := range trials {
		params := params
		t.Run(params.Pattern.String()+"/"+params.Path, func(t *testing.T) {
			t.Parallel()
			cfg := cluster.Small()
			cfg.MaxSkew = 0
			cfg.MaxDrift = 0
			c := cluster.New(cfg)
			s := Attach(c)
			c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
				workload.Program(p, r, params, nil)
			})
			exact := s.Analyze()
			oracle := analyzeWindowed(s)
			if exact.Orphan != oracle.Orphan {
				t.Fatalf("orphans: span join %d, windowed oracle %d", exact.Orphan, oracle.Orphan)
			}
			if !reflect.DeepEqual(exact.Calls, oracle.Calls) {
				if len(exact.Calls) != len(oracle.Calls) {
					t.Fatalf("call counts: span join %d, windowed oracle %d",
						len(exact.Calls), len(oracle.Calls))
				}
				for i := range exact.Calls {
					if !reflect.DeepEqual(exact.Calls[i], oracle.Calls[i]) {
						t.Fatalf("call %d diverges:\n span join: %+v\n  windowed: %+v",
							i, exact.Calls[i], oracle.Calls[i])
					}
				}
			}
			if len(exact.Calls) == 0 {
				t.Fatal("no correlated calls — workload did not trace")
			}
		})
	}
}

// analyzeWindowed correlates the layers by interval containment, the
// pre-span approach. Because each layer's records are time-sorted, the
// candidates nested inside an interval form a contiguous window: a binary
// search finds its left edge and a bounded forward sweep consumes it,
// replacing the all-pairs O(lib x sys x fs) scan with
// O((lib + sys + fs) log n + matches). It is the oracle the exact span
// join in Analyze is tested against.
func analyzeWindowed(s *Session) Breakdown {
	const slack = 50 * sim.Microsecond
	var out Breakdown
	// Index FS records by rank.
	fsByRank := make(map[int][]trace.Record)
	for _, fl := range s.fs {
		fsByRank[fl.rank] = append(fsByRank[fl.rank], fl.col.Records...)
	}
	for rank := range s.lib {
		libRecs := sortedByTime(s.lib[rank].Records)
		sysRecs := sortedByTime(s.sys[rank].Records)
		fsRecs := sortedByTime(fsByRank[rank])
		usedSys := make([]bool, len(sysRecs))
		usedFS := make([]bool, len(fsRecs))

		for i := range libRecs {
			mpiRec := &libRecs[i]
			if !strings.HasPrefix(mpiRec.Name, "MPI_File_") {
				continue
			}
			cb := CallBreakdown{
				Rank:  mpiRec.Rank,
				Name:  mpiRec.Name,
				Path:  mpiRec.Path,
				Bytes: mpiRec.Bytes,
				Total: mpiRec.Dur,
			}
			var sysTime, fsTime sim.Duration
			mpiEnd := mpiRec.Time + mpiRec.Dur
			for j := searchFrom(sysRecs, mpiRec.Time-slack); j < len(sysRecs) && sysRecs[j].Time <= mpiEnd+slack; j++ {
				if usedSys[j] || !within(&sysRecs[j], mpiRec, slack) {
					continue
				}
				usedSys[j] = true
				cb.NestedSyscalls++
				sysTime += sysRecs[j].Dur
				sysEnd := sysRecs[j].Time + sysRecs[j].Dur
				for k := searchFrom(fsRecs, sysRecs[j].Time-slack); k < len(fsRecs) && fsRecs[k].Time <= sysEnd+slack; k++ {
					if usedFS[k] || !within(&fsRecs[k], &sysRecs[j], slack) {
						continue
					}
					usedFS[k] = true
					cb.NestedFSOps++
					fsTime += fsRecs[k].Dur
				}
			}
			cb.Library = cb.Total - sysTime
			cb.Kernel = sysTime - fsTime
			cb.Storage = fsTime
			if cb.Library < 0 {
				cb.Library = 0
			}
			if cb.Kernel < 0 {
				cb.Kernel = 0
			}
			out.Calls = append(out.Calls, cb)
		}
		for j := range sysRecs {
			if !usedSys[j] {
				out.Orphan++
			}
		}
		for k := range fsRecs {
			if !usedFS[k] {
				out.Orphan++
			}
		}
	}
	sort.SliceStable(out.Calls, func(i, j int) bool { return out.Calls[i].Rank < out.Calls[j].Rank })
	return out
}

// within reports interval containment with a small tolerance for the probe
// costs charged between layers.
func within(inner, outer *trace.Record, slack sim.Duration) bool {
	return inner.Time >= outer.Time-slack &&
		inner.Time+inner.Dur <= outer.Time+outer.Dur+slack
}

// searchFrom returns the first index in time-sorted recs whose start time
// is >= t: the left edge of an interval's candidate window.
func searchFrom(recs []trace.Record, t sim.Time) int {
	return sort.Search(len(recs), func(i int) bool { return recs[i].Time >= t })
}

// sortedByTime returns recs ordered by start time. Per-rank records are
// emitted by a single sequential process and thus already time-ordered, so
// this is normally a copy; the stable sort keeps emission order on ties,
// preserving the matching semantics of an in-order scan.
func sortedByTime(recs []trace.Record) []trace.Record {
	out := make([]trace.Record, len(recs))
	copy(out, recs)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
