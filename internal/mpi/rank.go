package mpi

import (
	"strconv"

	"iotaxo/internal/netsim"
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
	inbox *sim.Mailbox[netsim.Message]

	// recv is the rank's inbox receiver (deliver), bound once in NewWorld.
	// It leaves the received envelope in got and wakes the process that
	// awaits it through wake, so a receive allocates nothing.
	recv func(netsim.Message)
	got  *mpiMsg
	wake func()

	pending  []mpiMsg // arrived but unmatched messages
	barGen   int      // barrier generation counter
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
// calls to attach the file path behind the descriptor.
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
	dur := p.Now() - start
	p.SetSpan(parent)
	r.LibCalls++
	if len(r.libHooks) > 0 {
		rec := trace.Record{
			Time:   r.pc.Kernel().LocalTime(start),
			Dur:    dur,
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

// sendRaw transmits without tracing (internal transport for collectives).
// The payload travels in a pooled envelope that recvRaw recycles.
func (r *Rank) sendRaw(p *sim.Proc, dest, tag int, bytes int64, data any) {
	dst := &r.world.ranks[dest]
	envelope := r.world.newEnvelope()
	*envelope = mpiMsg{From: r.rank, Tag: tag, Bytes: bytes, Data: data}
	r.world.net.Send(p, netsim.Message{
		From:    r.node,
		To:      dst.node,
		Port:    PortBase + dest,
		Size:    bytes + 64, // MPI envelope
		Payload: envelope,
	})
}

// recvRaw blocks until a message with the given source and tag arrives.
func (r *Rank) recvRaw(p *sim.Proc, src, tag int) mpiMsg {
	for i, m := range r.pending {
		if m.From == src && m.Tag == tag {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			return m
		}
	}
	for {
		p.Await(r.awaitInbox)
		envelope := r.got
		r.got = nil
		if envelope == nil {
			continue
		}
		m := r.world.openEnvelope(envelope)
		if m.From == src && m.Tag == tag {
			return m
		}
		r.pending = append(r.pending, m)
	}
}

// awaitInbox arms the rank's receiver on its inbox; recvRaw awaits it.
func (r *Rank) awaitInbox(wake func()) {
	r.wake = wake
	r.inbox.GetThen(r.recv)
}

// deliver is the rank's inbox receiver: it keeps the message's envelope (nil
// for a foreign payload) for recvRaw and wakes the awaiting process.
func (r *Rank) deliver(msg netsim.Message) {
	r.got, _ = msg.Payload.(*mpiMsg)
	r.wake()
}

// Send transmits bytes to dest with a tag (traced as MPI_Send).
func (r *Rank) Send(p *sim.Proc, dest, tag int, bytes int64) {
	r.SendData(p, dest, tag, bytes, nil)
}

// SendData is Send with an application payload attached, the way real MPI
// messages carry buffers. Layers such as path-based tracing piggyback their
// propagation metadata through it.
func (r *Rank) SendData(p *sim.Proc, dest, tag int, bytes int64, data any) {
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

// Barrier synchronizes all ranks with a dissemination barrier: ceil(log2 N)
// rounds of pairwise messages (traced as MPI_Barrier).
func (r *Rank) Barrier(p *sim.Proc) {
	r.libcall(p, "MPI_Barrier", func() []string { return []string{"92"} }, func() string {
		r.barrierBody(p)
		return "0"
	})
}

func (r *Rank) barrierBody(p *sim.Proc) {
	n := len(r.world.ranks)
	if n == 1 {
		return
	}
	gen := r.barGen
	r.barGen++
	for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
		peerTo := (r.rank + dist) % n
		peerFrom := (r.rank - dist + n) % n
		tag := -(1000 + gen*64 + round)
		r.sendRaw(p, peerTo, tag, 8, nil)
		r.recvRaw(p, peerFrom, tag)
	}
}

// bcastBody runs the classic MPICH binomial-tree broadcast from rank 0: a
// nonzero rank receives from (rank - lowbit(rank)), then forwards to
// (rank + mask) for each mask below its receive round.
func (r *Rank) bcastBody(p *sim.Proc, bytes int64, data any) any {
	n := len(r.world.ranks)
	if n == 1 {
		return data
	}
	const tag = -777
	got := data
	mask := 1
	for mask < n {
		if r.rank&mask != 0 {
			m := r.recvRaw(p, r.rank-mask, tag)
			got = m.Data
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if r.rank+mask < n {
			r.sendRaw(p, r.rank+mask, tag, bytes, got)
		}
	}
	return got
}

// gatherRaw collects one value per rank at rank 0, indexed by rank, without
// tracing: the access-set exchange inside collective I/O.
func (r *Rank) gatherRaw(p *sim.Proc, bytes int64, contribution any) []any {
	n := len(r.world.ranks)
	const tag = -889
	if r.rank != 0 {
		r.sendRaw(p, 0, tag, bytes, contribution)
		return nil
	}
	out := make([]any, n)
	out[0] = contribution
	for i := 1; i < n; i++ {
		m := r.recvRaw(p, i, tag)
		out[m.From] = m.Data
	}
	return out
}
