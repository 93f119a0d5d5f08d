package lanltrace

import (
	"fmt"
	"io"
	"strings"

	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Pseudo-application generation from raw trace files — the capability the
// paper reports as "beta development ... under way" for LANL-Trace ("it is
// trivial to imagine a replayer being built that reads and replays the raw
// trace files"). Unlike //TRACE, LANL-Trace has no dependency discovery, so
// the generated trace carries per-rank timing only: replay fidelity is
// correspondingly weaker, which is precisely the trade-off the taxonomy's
// "Reveals dependencies" axis captures.

// GeneratePseudoApp parses per-rank raw trace texts (the format
// Report.RawTraceText emits) and builds a replayable trace. originalElapsed
// is the untraced application's wall time, used by fidelity measurements.
func GeneratePseudoApp(rawTraces []string, originalElapsed sim.Duration) (*replay.Trace, error) {
	tr := &replay.Trace{
		Ranks:           len(rawTraces),
		Ops:             make([][]replay.Op, len(rawTraces)),
		OriginalElapsed: originalElapsed,
	}
	for i, text := range rawTraces {
		recs, err := trace.NewTextReader(strings.NewReader(text)).ReadAll()
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("lanltrace: raw trace %d: %w", i, err)
		}
		rank := i
		if len(recs) > 0 && recs[0].Rank >= 0 {
			rank = recs[0].Rank
		}
		if rank < 0 || rank >= tr.Ranks {
			return nil, fmt.Errorf("lanltrace: raw trace %d claims rank %d of %d", i, rank, tr.Ranks)
		}
		ops, err := opsFromRecords(recs)
		if err != nil {
			return nil, fmt.Errorf("lanltrace: raw trace %d: %w", i, err)
		}
		tr.Ops[rank] = ops
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// opsFromRecords converts one rank's syscall stream into replay operations,
// tracking the fd table the way a real trace replayer must. Library-call
// records (MPI_*) are skipped: their I/O appears as the nested syscalls.
func opsFromRecords(recs []trace.Record) ([]replay.Op, error) {
	type fdState struct {
		path string
		pos  int64
	}
	fds := make(map[string]*fdState) // key: fd number as string
	var ops []replay.Op
	var lastEnd sim.Time
	haveLast := false

	think := func(r *trace.Record) sim.Duration {
		if !haveLast {
			haveLast = true
			lastEnd = r.Time + r.Dur
			return 0
		}
		gap := r.Time - lastEnd
		lastEnd = r.Time + r.Dur
		if gap < 0 {
			return 0
		}
		return gap
	}

	argAt := func(r *trace.Record, i int) string {
		if i < len(r.Args) {
			return r.Args[i]
		}
		return ""
	}

	for i := range recs {
		r := &recs[i]
		if r.Class != trace.ClassSyscall {
			continue
		}
		switch r.Name {
		case "SYS_open":
			if strings.HasPrefix(r.Ret, "-1") {
				think(r)
				continue
			}
			fds[r.Ret] = &fdState{path: r.Path}
			ops = append(ops, replay.Op{Kind: replay.OpOpen, Path: r.Path, Compute: think(r)})
		case "SYS_pwrite", "SYS_pread":
			st, ok := fds[argAt(r, 0)]
			if !ok {
				return nil, fmt.Errorf("%s on unknown fd %s", r.Name, argAt(r, 0))
			}
			kind := replay.OpWrite
			if r.Name == "SYS_pread" {
				kind = replay.OpRead
			}
			ops = append(ops, replay.Op{
				Kind: kind, Path: st.path, Offset: r.Offset, Bytes: r.Bytes,
				Compute: think(r),
			})
		case "SYS_write", "SYS_read":
			st, ok := fds[argAt(r, 0)]
			if !ok {
				return nil, fmt.Errorf("%s on unknown fd %s", r.Name, argAt(r, 0))
			}
			kind := replay.OpWrite
			if r.Name == "SYS_read" {
				kind = replay.OpRead
			}
			ops = append(ops, replay.Op{
				Kind: kind, Path: st.path, Offset: st.pos, Bytes: r.Bytes,
				Compute: think(r),
			})
			st.pos += r.Bytes
		case "SYS_close":
			fd := argAt(r, 0)
			if st, ok := fds[fd]; ok {
				ops = append(ops, replay.Op{Kind: replay.OpClose, Path: st.path, Compute: think(r)})
				delete(fds, fd)
			}
		default:
			// Metadata calls (stat, statfs, fcntl, mmap, fsync) carry no
			// replayable I/O; their time folds into the next think gap.
		}
	}
	return ops, nil
}
