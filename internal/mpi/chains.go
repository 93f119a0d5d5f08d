package mpi

import (
	"fmt"

	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
)

// A rank's messaging runs as event chains. Sending is one stage, sendThen,
// and receiving one routine, recvThen. The dissemination barrier strings
// them together in barrierStep, a stage bound once per rank, so a process
// awaits a point-to-point send or receive, or a whole barrier, once. The
// chains run in the events that resume a process, at the point where the
// process would have resumed, so they schedule exactly what a process
// running the same rounds would. The broadcast and the gather are
// process-side loops over the awaited sendRaw and recvRaw.
//
// A message lands as one call of the rank's network receiver, arrive, which
// keeps it until a receive matches it: a point-to-point message is copied
// out of its envelope into the rank's arrival list, and the envelope goes
// back to the world's free list at once; a barrier message carries nothing
// but its round, and arrive records it as one bit. An arrival schedules the
// rank's drain event, which matches the armed receive, under the rule a
// sim.Mailbox keeps for its receivers: only while a receive is armed, and
// at most one drain pending at a time. Every arrival therefore costs the
// events a mailbox would schedule for it, and an early message costs no
// heap once the list has grown to the rank's peak backlog.

// barrierMsg is a barrier message's whole payload: its round, plus
// barrierOdd in an odd generation. A byte-sized payload boxes into the
// message's interface without an allocation.
type barrierMsg uint8

// barrierOdd marks a barrierMsg of an odd generation. A sender runs at most
// one generation ahead of its receiver (it cannot leave a barrier the
// receiver has not entered), so the generation's parity is all a receiver
// needs to tell an early round from a current one.
const barrierOdd = 64

// arrivals is a rank's arrival-ordered list of unmatched point-to-point
// messages. Its live entries are buf[head:]: taking the oldest, the common
// case, advances head, and taking a later one shifts the older entries up
// one slot, so a take costs what it skips. An append into a full buffer
// whose front half is dead compacts it in place rather than growing it.
// Vacated slots are zeroed, so the list keeps no payload alive.
type arrivals struct {
	buf  []mpiMsg
	head int
}

// push appends m as the newest entry.
func (a *arrivals) push(m mpiMsg) {
	if len(a.buf) == cap(a.buf) && 2*a.head >= len(a.buf) {
		n := copy(a.buf, a.buf[a.head:])
		clear(a.buf[n:])
		a.buf, a.head = a.buf[:n], 0
	}
	a.buf = append(a.buf, m)
}

// take removes and returns the oldest entry from src with tag.
func (a *arrivals) take(src, tag int) (mpiMsg, bool) {
	for i := a.head; i < len(a.buf); i++ {
		m := a.buf[i]
		if m.From != src || m.Tag != tag {
			continue
		}
		copy(a.buf[a.head+1:i+1], a.buf[a.head:i])
		a.buf[a.head] = mpiMsg{}
		a.head++
		if a.head == len(a.buf) {
			a.buf, a.head = a.buf[:0], 0
		}
		return m, true
	}
	return mpiMsg{}, false
}

// send transmits one message of bytes to rank dest as an event chain and
// calls next once the sender-side cost is paid.
func (r *Rank) send(dest int, bytes int64, payload any, span uint64, next func()) {
	r.world.net.SendThen(netsim.Message{
		From:    r.node,
		To:      r.world.ranks[dest].node,
		Port:    PortBase + dest,
		Size:    bytes + 64, // MPI envelope
		Payload: payload,
		Span:    span,
	}, next)
}

// sendThen transmits a point-to-point message to rank dest, in a pooled
// envelope that the receiving rank recycles, and calls next once the
// sender-side cost is paid.
func (r *Rank) sendThen(dest, tag int, bytes int64, data any, span uint64, next func()) {
	envelope := r.world.newEnvelope()
	*envelope = mpiMsg{From: r.rank, Tag: tag, Bytes: bytes, Data: data}
	r.send(dest, bytes, envelope, span, next)
}

// recvThen arms the rank's one receive for the oldest message from src with
// tag. A match already in the arrival list is left in r.got and recvThen
// reports true without calling next; otherwise it reports false and next
// runs, with the match in r.got, in the drain event that finds it.
func (r *Rank) recvThen(src, tag int, next func()) bool {
	r.got = mpiMsg{From: src, Tag: tag}
	if r.take() {
		return true
	}
	r.next = next
	return false
}

// arrive is the rank's network receiver. It files the message, then
// schedules the drain event at the arrival instant if a receive is armed
// and no drain is pending: the event a mailbox schedules when a message
// lands on a waiting receiver, whether or not the message matches it. A
// foreign payload is dropped but costs the same event.
func (r *Rank) arrive(msg netsim.Message) {
	switch m := msg.Payload.(type) {
	case *mpiMsg:
		r.arrived.push(r.world.openEnvelope(m))
	case barrierMsg:
		set, round := &r.barArrived[m/barrierOdd], m%barrierOdd
		if *set&(1<<round) != 0 {
			panic(fmt.Sprintf("mpi: rank %d got barrier round %d twice: a sender ran two generations ahead", r.rank, round))
		}
		*set |= 1 << round
	}
	if r.next != nil && !r.draining {
		r.draining = true
		r.world.env.After(0, r.drainFn)
	}
}

// drain is the rank's drain event: it completes the armed receive if its
// message has arrived, and leaves it armed otherwise.
func (r *Rank) drain() {
	r.draining = false
	if r.take() {
		next := r.next
		r.next = nil
		next()
	}
}

// take matches the armed receive against what has arrived and reports
// whether it found its message: a point-to-point receive's is moved into
// r.got, a barrier round's bit is cleared.
func (r *Rank) take() bool {
	if r.barWait {
		// barrierStep counted the receive's stage before arming it.
		if !r.takeRound(r.barStage>>1 - 1) {
			return false
		}
		r.barWait = false
		return true
	}
	m, ok := r.arrived.take(r.got.From, r.got.Tag)
	if ok {
		r.got = m
	}
	return ok
}

// takeRound clears round's bit in the current generation and reports
// whether it was set, that is, whether the round's message has arrived.
func (r *Rank) takeRound(round int) bool {
	set, bit := &r.barArrived[r.barGen&1], uint64(1)<<round
	if *set&bit == 0 {
		return false
	}
	*set &^= bit
	return true
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
// moves to the next generation and resumes the process; nothing may touch
// the rank's state after that.
func (r *Rank) barrierStep() {
	n := len(r.world.ranks)
	for {
		round := r.barStage >> 1
		dist := 1 << round
		if dist >= n {
			r.barGen++
			r.barStage = 0
			wake := r.wake
			r.wake = nil
			wake()
			return
		}
		r.barStage++
		if r.barStage&1 == 1 {
			m := barrierMsg(r.barGen&1)*barrierOdd + barrierMsg(round)
			r.send((r.rank+dist)%n, 8, m, r.barSpan, r.stepFn)
			return
		}
		if !r.takeRound(round) {
			r.barWait = true
			r.next = r.stepFn
			return
		}
	}
}
