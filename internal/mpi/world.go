// Package mpi simulates the MPI library of the paper's testbed (mpich
// 1.2.6): ranks with point-to-point messaging and tag matching, a
// dissemination barrier, binomial-tree collectives, and MPI-IO.
//
// A rank's messaging runs as event chains: one send stage and one
// receive-match routine, which the barrier strings into one chain. A rank's
// process parks once per point-to-point call and once per barrier, however
// many rounds the barrier takes; the broadcast and gather inside collective
// I/O await each of their sends and receives. What arrives before its
// receive waits on the rank itself, point-to-point messages in one arrival
// list and barrier rounds as bits, so an early message costs no heap.
//
// MPI-IO calls execute real system calls through the node kernel, so an
// strace-style tracer attached at the syscall boundary observes the nested
// SYS_statfs64/SYS_open/... sequence of Figure 1, while an ltrace-style
// tracer additionally observes the MPI_* library calls via LibHook — exactly
// the strace/ltrace distinction LANL-Trace exposes as its granularity knob.
package mpi

import (
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

// PortBase is the first network port used by MPI ranks (one port per rank).
const PortBase = 7200

// The tags of the library's own point-to-point messages. They are negative,
// which no user tag may be (checkTag), so they cannot be confused with user
// traffic. Barrier messages are not tag-matched at all (barrierMsg).
const (
	bcastTag  = -777 // the binomial broadcast inside collective I/O
	gatherTag = -889 // the access-set gather inside collective I/O
	collTag   = -950 // collective I/O's data shuffle
)

// LibHook observes library calls on one rank: the attachment point for
// ltrace-style tracing (LANL-Trace in ltrace mode) and for LD_PRELOAD
// interposition (//TRACE). Both phases may charge virtual time.
type LibHook interface {
	Enter(p *sim.Proc, name string)
	Exit(p *sim.Proc, rec *trace.Record)
}

// World is an MPI job: a set of ranks bound to node kernels. Ranks live in
// one contiguous slab (65536-rank worlds allocate one array, not 65536
// objects); they are addressed by pointer into it and never copied.
type World struct {
	env     *sim.Env
	net     *netsim.Network
	ranks   []Rank
	started bool

	// envelopes is the world's free list of point-to-point envelopes: a
	// send takes one, the matching receive copies it out and puts it back,
	// so steady messaging allocates none. It is per world, not global:
	// sweep cells run worlds in parallel.
	envelopes []*mpiMsg
}

// NewWorld creates a world with one rank per kernel entry. The same kernel
// may appear multiple times to place several ranks on one node.
func NewWorld(net_ *netsim.Network, kernels []*vfs.Kernel) *World {
	w := &World{env: net_.Env(), net: net_}
	w.ranks = make([]Rank, len(kernels))
	for i, k := range kernels {
		pc := k.Spawn(vfs.Cred{UID: 500, GID: 500, User: "mpiuser"})
		pc.SetRank(i)
		r := &w.ranks[i]
		*r = Rank{world: w, rank: i, node: k.Node(), pc: pc}
		r.drainFn = r.drain
		r.stepFn = r.barrierStep
		net_.Listen(r.node, PortBase+i, r.arrive)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return &w.ranks[i] }

// RunToCompletion spawns every rank's program as a simulated process and
// drives the environment until all ranks finish, returning the elapsed
// virtual time (job wall-clock). One more process, mpi.join, awaits the
// last rank and reads the job's end time.
func (w *World) RunToCompletion(program func(p *sim.Proc, r *Rank)) sim.Duration {
	start := w.env.Now()
	end := start
	running := len(w.ranks)
	var joinWake func()
	for i := range w.ranks {
		r := &w.ranks[i]
		// All ranks share one spawn name: per-rank identity lives in the
		// process context (pid/rank), and a shared literal keeps the launch
		// free of per-rank Sprintf allocations at 65536 ranks.
		w.env.Go("mpi.rank", func(p *sim.Proc) {
			program(p, r)
			running--
			if running == 0 && joinWake != nil {
				w.env.After(0, joinWake)
			}
		})
	}
	w.env.Go("mpi.join", func(p *sim.Proc) {
		p.Await(func(wake func()) {
			if running == 0 {
				wake()
				return
			}
			joinWake = wake
		})
		end = p.Now()
	})
	w.env.Run()
	return end - start
}

// mpiMsg is one point-to-point payload. On the wire it travels as a
// *mpiMsg envelope from the world's free list; a rank holds unmatched
// messages by value.
type mpiMsg struct {
	From  int
	Tag   int
	Bytes int64
	Data  any
}

// newEnvelope takes an idle envelope from the free list, or allocates one.
func (w *World) newEnvelope() *mpiMsg {
	n := len(w.envelopes)
	if n == 0 {
		return new(mpiMsg)
	}
	m := w.envelopes[n-1]
	w.envelopes = w.envelopes[:n-1]
	return m
}

// openEnvelope returns the message m carries and puts m back on the free
// list, cleared so that it keeps no reference to the data it carried.
func (w *World) openEnvelope(m *mpiMsg) mpiMsg {
	v := *m
	*m = mpiMsg{}
	w.envelopes = append(w.envelopes, m)
	return v
}
