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

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

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
		msg := r.inbox.Get(p)
		envelope, ok := msg.Payload.(*mpiMsg)
		if !ok {
			continue
		}
		m := r.world.openEnvelope(envelope)
		if m.From == src && m.Tag == tag {
			return m
		}
		r.pending = append(r.pending, m)
	}
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

// Bcast distributes bytes from root over a binomial tree (traced as
// MPI_Bcast). The payload travels by value in Data for control uses.
func (r *Rank) Bcast(p *sim.Proc, root int, bytes int64, data any) any {
	var out any = data
	r.libcall(p, "MPI_Bcast",
		func() []string { return []string{strconv.FormatInt(bytes, 10), strconv.Itoa(root)} },
		func() string {
			out = r.bcastBody(p, root, bytes, data)
			return "0"
		})
	return out
}

// bcastBody runs the classic MPICH binomial-tree broadcast: a nonzero
// relative rank receives from (rel - lowbit(rel)), then forwards to
// (rel + mask) for each mask below its receive round.
func (r *Rank) bcastBody(p *sim.Proc, root int, bytes int64, data any) any {
	n := len(r.world.ranks)
	if n == 1 {
		return data
	}
	rel := (r.rank - root + n) % n
	const tag = -777
	got := data
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := (rel - mask + root) % n
			m := r.recvRaw(p, parent, tag)
			got = m.Data
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			child := (rel + mask + root) % n
			r.sendRaw(p, child, tag, bytes, got)
		}
	}
	return got
}

// Gather collects one value per rank at root (traced as MPI_Gather); ranks
// pass their contribution, root receives the slice indexed by rank.
func (r *Rank) Gather(p *sim.Proc, root int, bytes int64, contribution any) []any {
	var out []any
	r.libcall(p, "MPI_Gather",
		func() []string { return []string{strconv.FormatInt(bytes, 10), strconv.Itoa(root)} },
		func() string {
			n := len(r.world.ranks)
			const tag = -888
			if r.rank != root {
				r.sendRaw(p, root, tag, bytes, contribution)
				return "0"
			}
			out = make([]any, n)
			out[root] = contribution
			for i := 0; i < n; i++ {
				if i == root {
					continue
				}
				m := r.recvRaw(p, i, tag)
				out[m.From] = m.Data
			}
			return "0"
		})
	return out
}

// AllreduceMax computes the maximum of an int64 across ranks (traced as
// MPI_Allreduce): gather to rank 0, then broadcast.
func (r *Rank) AllreduceMax(p *sim.Proc, v int64) int64 {
	var result int64
	r.libcall(p, "MPI_Allreduce", func() []string { return []string{strconv.FormatInt(v, 10)} }, func() string {
		vals := r.gatherRaw(p, 0, 8, v)
		if r.rank == 0 {
			m := v
			for _, raw := range vals {
				if x, ok := raw.(int64); ok && x > m {
					m = x
				}
			}
			result = m
		}
		out := r.bcastBody(p, 0, 8, result)
		if x, ok := out.(int64); ok {
			result = x
		}
		return "0"
	})
	return result
}

// gatherRaw is Gather without tracing, used inside other collectives.
func (r *Rank) gatherRaw(p *sim.Proc, root int, bytes int64, contribution any) []any {
	n := len(r.world.ranks)
	const tag = -889
	if r.rank != root {
		r.sendRaw(p, root, tag, bytes, contribution)
		return nil
	}
	out := make([]any, n)
	out[root] = contribution
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		m := r.recvRaw(p, i, tag)
		out[m.From] = m.Data
	}
	return out
}
