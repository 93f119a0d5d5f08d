package mpi

import (
	"slices"

	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
)

// A rank's messaging runs as event chains. Sending is one stage, sendThen,
// and receiving one routine, recvThen. The dissemination barrier strings them
// together in barrierStep, a stage bound once per rank, so a process awaits a
// point-to-point send or receive, or a whole barrier, once. The chains run in
// the events that resume a process, at the point where the process would
// have resumed, so they schedule exactly what a process running the same
// rounds would. The broadcast and the gather are process-side loops over the
// awaited sendRaw and recvRaw.

// barrierTag tags the barrier's messages: round k of generation g uses
// barrierTag - 64*g - k.
const barrierTag = -1000

// sendThen transmits a message to rank dest as an event chain, in a pooled
// envelope that the receiving rank recycles, and calls next once the
// sender-side cost is paid.
func (r *Rank) sendThen(dest, tag int, bytes int64, data any, span uint64, next func()) {
	envelope := r.world.newEnvelope()
	*envelope = mpiMsg{From: r.rank, Tag: tag, Bytes: bytes, Data: data}
	r.world.net.SendThen(netsim.Message{
		From:    r.node,
		To:      r.world.ranks[dest].node,
		Port:    PortBase + dest,
		Size:    bytes + 64, // MPI envelope
		Payload: envelope,
		Span:    span,
	}, next)
}

// recvThen arms the rank's one receive: it matches the oldest message from
// src with tag, first among those waiting in r.pending, then from the inbox,
// where messages that arrive first but do not match join r.pending. A match
// at hand is left in r.got and recvThen reports true without calling next;
// otherwise it reports false and next runs, with the match in r.got, in the
// event that delivers it. Queued inbox messages are taken with TryGet, not
// through the receiver, so that a run of them costs no stack depth.
func (r *Rank) recvThen(src, tag int, next func()) bool {
	for i, m := range r.pending {
		if m.From == src && m.Tag == tag {
			r.got = m
			// Delete zeroes the vacated tail slot, so the list keeps no
			// reference to the payload it handed out.
			r.pending = slices.Delete(r.pending, i, i+1)
			return true
		}
	}
	r.got = mpiMsg{From: src, Tag: tag}
	if r.takeInbox() {
		return true
	}
	r.next = next
	return false
}

// takeInbox takes the inbox's queued messages until one matches the armed
// receive and reports true; with none left it arms the rank's receiver on
// the inbox and reports false.
func (r *Rank) takeInbox() bool {
	for {
		msg, ok := r.inbox.TryGet()
		if !ok {
			r.inbox.GetThen(r.recv)
			return false
		}
		if r.match(msg) {
			return true
		}
	}
}

// match opens an arrived message: a match for the armed receive goes to
// r.got, any other message joins r.pending. A foreign payload is dropped.
func (r *Rank) match(msg netsim.Message) bool {
	envelope, ok := msg.Payload.(*mpiMsg)
	if !ok {
		return false
	}
	m := r.world.openEnvelope(envelope)
	if m.From == r.got.From && m.Tag == r.got.Tag {
		r.got = m
		return true
	}
	r.pending = append(r.pending, m)
	return false
}

// deliver is the rank's inbox receiver: it completes the armed receive, or
// re-arms it when the message does not match.
func (r *Rank) deliver(msg netsim.Message) {
	if r.match(msg) || r.takeInbox() {
		next := r.next
		r.next = nil
		next()
	}
}

// takeGot returns the last matched message and clears it.
func (r *Rank) takeGot() mpiMsg {
	m := r.got
	r.got = mpiMsg{}
	return m
}

// sendRaw transmits without tracing: the process awaits sendThen.
func (r *Rank) sendRaw(p *sim.Proc, dest, tag int, bytes int64, data any) {
	span := p.Span()
	p.Await(func(wake func()) { r.sendThen(dest, tag, bytes, data, span, wake) })
}

// recvRaw blocks until a message with the given source and tag arrives: the
// process awaits recvThen.
func (r *Rank) recvRaw(p *sim.Proc, src, tag int) mpiMsg {
	p.Await(func(wake func()) {
		if r.recvThen(src, tag, wake) {
			wake()
		}
	})
	return r.takeGot()
}

// barrierBody runs the barrier without tracing: the process awaits the
// barrier's event chain once.
func (r *Rank) barrierBody(p *sim.Proc) {
	if len(r.world.ranks) == 1 {
		return
	}
	r.barSpan = p.Span()
	p.Await(r.startBarrier)
	r.barGen++
	r.barStage = 0
	r.got = mpiMsg{}
}

// startBarrier starts the barrier chain; wake resumes its process.
func (r *Rank) startBarrier(wake func()) {
	r.wake = wake
	r.barrierStep()
}

// barrierStep runs the dissemination barrier up to its next stage that
// cannot complete at once, which calls barrierStep again when it completes:
// in round k the rank sends to rank+2^k and receives from rank-2^k (mod p),
// for 2^k < p. barStage counts the stages done, two per round: after an even
// count it sends, after an odd count it receives. After the last round it
// resumes the process; nothing may touch the rank's state after that.
func (r *Rank) barrierStep() {
	n := len(r.world.ranks)
	for {
		round := r.barStage >> 1
		dist := 1 << round
		if dist >= n {
			wake := r.wake
			r.wake = nil
			wake()
			return
		}
		tag := barrierTag - 64*r.barGen - round
		r.barStage++
		if r.barStage&1 == 1 {
			r.sendThen((r.rank+dist)%n, tag, 8, nil, r.barSpan, r.stepFn)
			return
		}
		if !r.recvThen((r.rank-dist+n)%n, tag, r.stepFn) {
			return
		}
	}
}
