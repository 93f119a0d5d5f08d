package multilayer

import (
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// naiveAnalyze is the original all-pairs O(lib x sys x fs) correlation by
// interval containment, kept as an oracle for the span-tree projection in
// Analyze.
func naiveAnalyze(s *Session) Breakdown {
	const slack = 50 * sim.Microsecond
	var out Breakdown
	fsByRank := make(map[int][]trace.Record)
	for _, fl := range s.fs {
		fsByRank[fl.rank] = append(fsByRank[fl.rank], fl.col.Records...)
	}
	for rank := range s.lib {
		libRecs := s.lib[rank].Records
		sysRecs := s.sys[rank].Records
		fsRecs := fsByRank[rank]
		usedSys := make([]bool, len(sysRecs))
		usedFS := make([]bool, len(fsRecs))
		for i := range libRecs {
			mpiRec := &libRecs[i]
			if !strings.HasPrefix(mpiRec.Name, "MPI_File_") {
				continue
			}
			cb := CallBreakdown{
				Rank: mpiRec.Rank, Name: mpiRec.Name, Path: mpiRec.Path,
				Bytes: mpiRec.Bytes, Total: mpiRec.Dur,
			}
			var sysTime, fsTime sim.Duration
			for j := range sysRecs {
				if usedSys[j] || !within(&sysRecs[j], mpiRec, slack) {
					continue
				}
				usedSys[j] = true
				cb.NestedSyscalls++
				sysTime += sysRecs[j].Dur
				for k := range fsRecs {
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
	return out
}

// TestAnalyzeMatchesNaiveScan pins Analyze to the original quadratic
// correlation on a real traced run.
func TestAnalyzeMatchesNaiveScan(t *testing.T) {
	s, _ := runTraced(t)
	fast := s.Analyze()
	slow := naiveAnalyze(s)
	// Analyze sorts calls by rank (stable); apply the same ordering here.
	sortCalls := func(calls []CallBreakdown) {
		for i := 1; i < len(calls); i++ {
			for j := i; j > 0 && calls[j-1].Rank > calls[j].Rank; j-- {
				calls[j-1], calls[j] = calls[j], calls[j-1]
			}
		}
	}
	sortCalls(slow.Calls)
	if fast.Orphan != slow.Orphan {
		t.Fatalf("orphans: fast %d, naive %d", fast.Orphan, slow.Orphan)
	}
	if len(fast.Calls) != len(slow.Calls) {
		t.Fatalf("calls: fast %d, naive %d", len(fast.Calls), len(slow.Calls))
	}
	if !reflect.DeepEqual(fast.Calls, slow.Calls) {
		for i := range fast.Calls {
			if !reflect.DeepEqual(fast.Calls[i], slow.Calls[i]) {
				t.Fatalf("call %d diverged:\nfast  %+v\nnaive %+v", i, fast.Calls[i], slow.Calls[i])
			}
		}
	}
}
