package lanltrace

import (
	"fmt"
	"strings"

	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Pseudo-application generation from raw trace files — the capability the
// paper reports as "beta development ... under way" for LANL-Trace ("it is
// trivial to imagine a replayer being built that reads and replays the raw
// trace files"). The replay trace comes from replay's one builder at syscall
// level: it follows each rank's file descriptors, and library-call records
// (ltrace mode's MPI_*) are dropped, since their I/O appears as the nested
// system calls. Unlike //TRACE, LANL-Trace has no dependency discovery, so
// the generated trace carries per-rank timing only: replay fidelity is
// correspondingly weaker, which is precisely the trade-off the taxonomy's
// "Reveals dependencies" axis captures.

// GeneratePseudoApp parses per-rank raw trace texts (the format
// Report.RawTraceText emits) and builds a replayable trace. originalElapsed
// is the untraced application's wall time, used by fidelity measurements.
func GeneratePseudoApp(rawTraces []string, originalElapsed sim.Duration) (*replay.Trace, error) {
	b := replay.NewBuilder(trace.ClassSyscall, len(rawTraces))
	seen := make([]bool, len(rawTraces))
	for i, text := range rawTraces {
		recs, err := trace.Collect(trace.NewTextReader(strings.NewReader(text)))
		if err != nil {
			return nil, fmt.Errorf("lanltrace: raw trace %d: %w", i, err)
		}
		rank := i
		if len(recs) > 0 && recs[0].Rank >= 0 {
			rank = recs[0].Rank
		}
		switch {
		case rank >= len(rawTraces):
			return nil, fmt.Errorf("lanltrace: raw trace %d claims rank %d of %d", i, rank, len(rawTraces))
		case seen[rank]:
			return nil, fmt.Errorf("lanltrace: raw trace %d repeats rank %d", i, rank)
		}
		seen[rank] = true
		for j := range recs {
			recs[j].Rank = rank
			if err := b.Add(&recs[j]); err != nil {
				return nil, fmt.Errorf("lanltrace: raw trace %d: %w", i, err)
			}
		}
	}
	return b.Trace(originalElapsed)
}
