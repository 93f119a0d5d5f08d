package mpi

import (
	"fmt"
	"strconv"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

// Rank is one MPI process.
type Rank struct {
	world *World
	rank  int
	node  string
	pc    *vfs.ProcCtx

	// drainFn (drain) is the rank's drain event and stepFn (barrierStep)
	// its barrier chain's stage, both bound once in NewWorld, as is its
	// network receiver (arrive), so that a receive or a barrier allocates
	// nothing.
	drainFn func()
	stepFn  func()

	// What has arrived and no receive has matched yet: point-to-point
	// messages in arrival order, and barrier rounds as bits, bit k of
	// barArrived[g&1] standing for round k of generation g.
	arrived    arrivals
	barArrived [2]uint64

	// The armed receive (recvThen, or a barrier round when barWait is set):
	// got holds a point-to-point receive's source and tag until the oldest
	// matching message replaces it whole; next runs when the message
	// arrives later, in the drain event, which draining marks as pending.
	got      mpiMsg
	next     func()
	barWait  bool
	draining bool

	// The barrier chain in progress (barrierStep): the stages it has done,
	// the span its messages travel under and the wake that resumes the
	// awaiting process.
	barStage int
	barSpan  uint64
	wake     func()
	barGen   int // barrier generation counter

	libHooks []LibHook

	// Stats.
	LibCalls int64
}

// RankID returns the rank number.
func (r *Rank) RankID() int { return r.rank }

// Node returns the node name the rank runs on.
func (r *Rank) Node() string { return r.node }

// Proc returns the kernel process context (for attaching syscall tracers).
func (r *Rank) Proc() *vfs.ProcCtx { return r.pc }

// AttachLibHook installs a library-call hook (ltrace / LD_PRELOAD style).
func (r *Rank) AttachLibHook(h LibHook) { r.libHooks = append(r.libHooks, h) }

// DetachLibHooks removes all library hooks.
func (r *Rank) DetachLibHooks() { r.libHooks = nil }

// libcall wraps an MPI library call with hook entry/exit and a trace record,
// mirroring ProcCtx.syscall at the library boundary. args renders the
// formatted argument list and is only invoked when a library hook is
// attached, so untraced runs pay no per-call formatting cost.
func (r *Rank) libcall(p *sim.Proc, name string, args func() []string, body func() string) {
	r.libcallEnrich(p, name, args, func() (string, func(*trace.Record)) {
		return body(), nil
	})
}

// libcallEnrich is libcall with a record-enrichment callback, used by MPI-IO
// calls to attach the file path behind the descriptor. A rank's process
// parks inside body, so this frame stays on its stack all the while: the
// record is built in traceExit, whose frame is gone by then.
func (r *Rank) libcallEnrich(p *sim.Proc, name string, args func() []string, body func() (string, func(*trace.Record))) {
	for _, h := range r.libHooks {
		h.Enter(p, name)
	}
	// Span allocation is unconditional: the counter has zero effect on the
	// schedule, and child layers need the context even when only a deeper
	// tracer is attached.
	span := p.Env().NextSpanID()
	parent := p.SetSpan(span)
	start := p.Now()
	ret, enrich := body()
	p.SetSpan(parent)
	r.LibCalls++
	if len(r.libHooks) > 0 {
		r.traceExit(p, name, args, ret, enrich, start, span, parent)
	}
}

// traceExit builds a finished library call's record and hands it to every
// hook's Exit.
//
//go:noinline
func (r *Rank) traceExit(p *sim.Proc, name string, args func() []string, ret string, enrich func(*trace.Record), start sim.Time, span, parent uint64) {
	rec := trace.Record{
		Time:   r.pc.Kernel().LocalTime(start),
		Dur:    p.Now() - start,
		Node:   r.node,
		Rank:   r.rank,
		PID:    r.pc.PID(),
		Class:  trace.ClassMPI,
		Name:   name,
		Args:   args(),
		Ret:    ret,
		Span:   span,
		Parent: parent,
	}
	trace.InferIOFields(&rec)
	if enrich != nil {
		enrich(&rec)
	}
	for _, h := range r.libHooks {
		h.Exit(p, &rec)
	}
}

// Init models MPI_Init's startup chatter: it reads the host database through
// the kernel, which is where Figure 1's SYS_open("/etc/hosts", ...) lines
// come from.
func (r *Rank) Init(p *sim.Proc) {
	r.libcall(p, "MPI_Init", func() []string { return []string{"0", "0"} }, func() string {
		fd, err := r.pc.Open(p, "/etc/hosts", vfs.ORdonly, 0)
		if err == nil {
			r.pc.Fcntl(p, fd, 1, 0)
			r.pc.Read(p, fd, 4096)
			r.pc.Close(p, fd)
		}
		p.Sleep(200 * sim.Microsecond) // connection setup
		return "0"
	})
}

// CommRank returns the rank id (traced as MPI_Comm_rank).
func (r *Rank) CommRank(p *sim.Proc) int {
	r.libcall(p, "MPI_Comm_rank", func() []string { return []string{"92"} }, func() string {
		p.Sleep(100 * sim.Nanosecond)
		return "0"
	})
	return r.rank
}

// CommSize returns the world size (traced as MPI_Comm_size).
func (r *Rank) CommSize(p *sim.Proc) int {
	r.libcall(p, "MPI_Comm_size", func() []string { return []string{"92"} }, func() string {
		p.Sleep(100 * sim.Nanosecond)
		return "0"
	})
	return len(r.world.ranks)
}

// Wtime reads the node-local wall clock — including its skew and drift,
// which is precisely why LANL-Trace runs its barrier timing job.
func (r *Rank) Wtime(p *sim.Proc) sim.Time {
	return r.pc.Kernel().LocalTime(p.Now())
}

// Send transmits bytes to dest with a tag (traced as MPI_Send).
func (r *Rank) Send(p *sim.Proc, dest, tag int, bytes int64) {
	r.SendData(p, dest, tag, bytes, nil)
}

// SendData is Send with an application payload attached, the way real MPI
// messages carry buffers. Layers such as path-based tracing piggyback their
// propagation metadata through it.
func (r *Rank) SendData(p *sim.Proc, dest, tag int, bytes int64, data any) {
	checkTag(tag)
	r.libcall(p, "MPI_Send",
		func() []string { return []string{strconv.FormatInt(bytes, 10), strconv.Itoa(dest), strconv.Itoa(tag)} },
		func() string {
			r.sendRaw(p, dest, tag, bytes, data)
			return "0"
		})
}

// Recv blocks for a message from src with a tag (traced as MPI_Recv).
func (r *Rank) Recv(p *sim.Proc, src, tag int) int64 {
	n, _ := r.RecvData(p, src, tag)
	return n
}

// RecvData is Recv returning the attached payload as well.
func (r *Rank) RecvData(p *sim.Proc, src, tag int) (int64, any) {
	checkTag(tag)
	var n int64
	var data any
	r.libcall(p, "MPI_Recv",
		func() []string { return []string{strconv.Itoa(src), strconv.Itoa(tag)} },
		func() string {
			m := r.recvRaw(p, src, tag)
			n = m.Bytes
			data = m.Data
			return "0"
		})
	return n, data
}

// checkTag rejects a negative user tag. MPI tags are nonnegative, and the
// negative ones are the library's own (bcastTag, gatherTag, collTag), so a
// user message under one could be taken for the library's.
func checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: tag %d is reserved: user tags are nonnegative", tag))
	}
}

// Barrier synchronizes all ranks with a dissemination barrier: ceil(log2 N)
// rounds of pairwise messages (traced as MPI_Barrier). The rounds run as one
// event chain that the process awaits once, so a barrier parks the process
// once however many rounds it takes.
func (r *Rank) Barrier(p *sim.Proc) {
	r.libcall(p, "MPI_Barrier", func() []string { return []string{"92"} }, func() string {
		r.barrierBody(p)
		return "0"
	})
}

// bcastBody runs the classic MPICH binomial-tree broadcast from rank 0: a
// nonzero rank receives from (rank - lowbit(rank)), then forwards to
// (rank + mask) for each mask below its receive round.
func (r *Rank) bcastBody(p *sim.Proc, bytes int64, data any) any {
	n := len(r.world.ranks)
	if n == 1 {
		return data
	}
	got := data
	mask := 1
	for mask < n {
		if r.rank&mask != 0 {
			m := r.recvRaw(p, r.rank-mask, bcastTag)
			got = m.Data
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r.rank+mask < n {
			r.sendRaw(p, r.rank+mask, bcastTag, bytes, got)
		}
	}
	return got
}

// gatherRaw collects one value per rank at rank 0, indexed by rank, without
// tracing: the access-set exchange inside collective I/O.
func (r *Rank) gatherRaw(p *sim.Proc, bytes int64, contribution any) []any {
	n := len(r.world.ranks)
	if r.rank != 0 {
		r.sendRaw(p, 0, gatherTag, bytes, contribution)
		return nil
	}
	out := make([]any, n)
	out[0] = contribution
	for i := 1; i < n; i++ {
		m := r.recvRaw(p, i, gatherTag)
		out[m.From] = m.Data
	}
	return out
}
