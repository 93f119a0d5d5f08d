package replay

import (
	"fmt"
	"strings"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// The pseudo-application builder: one record classifier, one per-rank state
// and one think-time rule, for both record levels. //TRACE reads MPI-IO calls
// (trace.ClassMPI); LANL-Trace's raw-trace replayer reads system calls
// (trace.ClassSyscall) and follows each rank's file descriptors.

// opKinds names each op kind in the text format and as the MPI-IO call that
// performs it.
var opKinds = [...]struct{ text, mpi string }{
	OpOpen:  {"open", "MPI_File_open"},
	OpWrite: {"write", "MPI_File_write_at"},
	OpRead:  {"read", "MPI_File_read_at"},
	OpClose: {"close", "MPI_File_close"},
}

func (k OpKind) valid() bool { return k >= 0 && int(k) < len(opKinds) }

// MPIName returns the MPI-IO call that performs an op of kind k, or "".
func (k OpKind) MPIName() string {
	if !k.valid() {
		return ""
	}
	return opKinds[k].mpi
}

// Role is what one trace record means to a replay trace: RoleOp becomes one
// op; RoleBoundary, an I/O call with no op (MPI_File_sync, a failed
// SYS_open), ends the think interval and adds nothing; RoleOther carries no
// replayable I/O. At MPI level an other record's time (synchronization,
// other MPI work) is taken out of the next op's think time; at syscall level
// (metadata calls) it folds into it.
type Role uint8

// The record roles.
const (
	RoleOther Role = iota
	RoleOp
	RoleBoundary
)

// ioCall is one traced I/O call's meaning; seq marks a call at its
// descriptor's position rather than at an offset.
type ioCall struct {
	role Role
	kind OpKind
	seq  bool
}

// ioCalls is the classifier's name table for both levels; a name it lacks
// is RoleOther. Every SYS_ call but SYS_open names its file by descriptor,
// its first argument.
var ioCalls = map[string]ioCall{
	"MPI_File_open":     {RoleOp, OpOpen, false},
	"MPI_File_write_at": {RoleOp, OpWrite, false},
	"MPI_File_write":    {RoleOp, OpWrite, false},
	"MPI_File_read_at":  {RoleOp, OpRead, false},
	"MPI_File_read":     {RoleOp, OpRead, false},
	"MPI_File_close":    {RoleOp, OpClose, false},
	"MPI_File_sync":     {RoleBoundary, 0, false},
	"SYS_open":          {RoleOp, OpOpen, false},
	"SYS_pwrite":        {RoleOp, OpWrite, false},
	"SYS_write":         {RoleOp, OpWrite, true},
	"SYS_pread":         {RoleOp, OpRead, false},
	"SYS_read":          {RoleOp, OpRead, true},
	"SYS_close":         {RoleOp, OpClose, false},
}

func classify(r *trace.Record) ioCall {
	c := ioCalls[r.Name]
	if r.Name == "SYS_open" && strings.HasPrefix(r.Ret, "-1") {
		c.role = RoleBoundary
	}
	return c
}

// Classify returns r's role: the builder's classifier, for callers that
// watch calls as they happen.
func Classify(r *trace.Record) Role { return classify(r).role }

// Builder turns one traced run's records into a replay trace. Its level,
// trace.ClassMPI or trace.ClassSyscall, is the one record class it reads.
type Builder struct {
	level trace.EventClass
	ranks []rankState
}

type rankState struct {
	ops     []Op
	started bool
	lastEnd sim.Time            // end of the last I/O call; first, the first record's start
	nonIO   sim.Duration        // MPI level: time in non-I/O MPI calls since lastEnd
	fds     map[string]*fdState // syscall level: open descriptors by number
}

type fdState struct {
	path string
	pos  int64
}

// NewBuilder returns a builder of level's records with ranks rank streams;
// a record of a higher rank adds streams up to its own.
func NewBuilder(level trace.EventClass, ranks int) *Builder {
	return &Builder{level: level, ranks: make([]rankState, ranks)}
}

// Add feeds the builder one record. Each rank's records must come in time
// order; ranks may interleave. An op's think time runs to its start from the
// end of the rank's previous I/O call (op or boundary), or from the rank's
// first record of the level. At MPI level it excludes the time spent in
// non-I/O MPI calls meanwhile: synchronization becomes dependency edges, not
// replayed time.
func (b *Builder) Add(r *trace.Record) error {
	if r.Rank < 0 {
		return fmt.Errorf("replay: record %s has no rank", r.Name)
	}
	if r.Rank >= len(b.ranks) {
		b.ranks = append(b.ranks, make([]rankState, r.Rank+1-len(b.ranks))...)
	}
	if r.Class != b.level {
		return nil
	}
	st := &b.ranks[r.Rank]
	if !st.started {
		st.started, st.lastEnd = true, r.Time
	}
	c := classify(r)
	op := Op{Kind: c.kind, Path: r.Path}
	if c.kind == OpWrite || c.kind == OpRead {
		op.Offset, op.Bytes = r.Offset, r.Bytes
	}
	if c.role == RoleOp && b.level == trace.ClassSyscall {
		var err error
		if c.role, err = st.resolve(r, c, &op); err != nil {
			return err
		}
	}
	switch c.role {
	case RoleOther:
		if b.level == trace.ClassMPI {
			st.nonIO += r.Dur
		}
		return nil
	case RoleOp:
		op.Compute = max(r.Time-st.lastEnd-st.nonIO, 0)
		st.ops = append(st.ops, op)
	}
	st.lastEnd, st.nonIO = r.Time+r.Dur, 0
	return nil
}

// resolve names a syscall op's file through the rank's descriptor table. An
// open enters its descriptor; a close of a descriptor the table lacks is
// RoleOther, and a read or write of one is an error.
func (st *rankState) resolve(r *trace.Record, c ioCall, op *Op) (Role, error) {
	if c.kind == OpOpen {
		if st.fds == nil {
			st.fds = make(map[string]*fdState)
		}
		st.fds[r.Ret] = &fdState{path: r.Path}
		return RoleOp, nil
	}
	var fd string
	if len(r.Args) > 0 {
		fd = r.Args[0]
	}
	f, ok := st.fds[fd]
	switch {
	case c.kind == OpClose && !ok:
		return RoleOther, nil
	case c.kind == OpClose:
		delete(st.fds, fd)
	case !ok:
		return RoleOther, fmt.Errorf("replay: %s on unknown fd %s", r.Name, fd)
	case c.seq:
		op.Offset = f.pos
		f.pos += r.Bytes
	}
	op.Path = f.path
	return RoleOp, nil
}

// Trace returns the validated replay trace of the records added.
func (b *Builder) Trace(originalElapsed sim.Duration) (*Trace, error) {
	tr := &Trace{Ranks: len(b.ranks), Ops: make([][]Op, len(b.ranks)), OriginalElapsed: originalElapsed}
	for rank := range b.ranks {
		tr.Ops[rank] = b.ranks[rank].ops
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// FromRecords builds the MPI-level replay trace of a record stream, the
// //TRACE view of a traced run.
func FromRecords(src trace.Source, originalElapsed sim.Duration) (*Trace, error) {
	b := NewBuilder(trace.ClassMPI, 0)
	if _, err := trace.Copy(trace.SinkFunc(b.Add), src); err != nil {
		return nil, err
	}
	return b.Trace(originalElapsed)
}
