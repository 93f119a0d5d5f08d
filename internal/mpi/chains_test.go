package mpi

import (
	"fmt"
	"slices"
	"testing"

	"iotaxo/internal/clocks"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// newTestWorld builds a world of n ranks, one per node, on a bare network:
// enough for messaging, with no file systems mounted.
func newTestWorld(n int) *World {
	env := sim.NewEnv(1)
	net := netsim.New(env, netsim.GigabitEthernet())
	kernels := make([]*vfs.Kernel, n)
	for i := range kernels {
		name := fmt.Sprintf("n%d", i)
		net.AddNode(name)
		kernels[i] = vfs.NewKernel(env, name, clocks.New(0, 0), vfs.KernelConfig{})
	}
	return NewWorld(net, kernels)
}

// TestMatchedMessageLeavesNoStaleCopy receives three messages out of order,
// so that two wait in the arrival list and leave it from its front, then
// runs a barrier. No slot of the list's backing array may keep a message
// afterwards, and neither rank may hold its last match: a stale copy would
// pin its payload until the slot is overwritten.
func TestMatchedMessageLeavesNoStaleCopy(t *testing.T) {
	w := newTestWorld(2)
	payloads := []*[64]byte{new([64]byte), new([64]byte), new([64]byte)}
	var got []any
	w.RunToCompletion(func(p *sim.Proc, r *Rank) {
		if r.RankID() == 0 {
			for tag, data := range payloads {
				r.SendData(p, 1, tag, 64, data)
			}
		} else {
			for _, tag := range []int{2, 0, 1} {
				_, data := r.RecvData(p, 0, tag)
				got = append(got, data)
			}
		}
		r.Barrier(p)
	})
	if len(got) != 3 || got[0] != payloads[2] || got[1] != payloads[0] || got[2] != payloads[1] {
		t.Fatalf("received %v, want payloads 2, 0, 1", got)
	}
	r := w.Rank(1)
	if n := r.arrived.len(); n != 0 {
		t.Fatalf("%d messages left unmatched", n)
	}
	for i, m := range r.arrived.buf[:cap(r.arrived.buf)] {
		if m != (mpiMsg{}) {
			t.Errorf("arrival slot %d keeps %+v", i, m)
		}
	}
	for i := range 2 {
		if m := w.Rank(i).got; m != (mpiMsg{}) {
			t.Errorf("rank %d still holds its last match: %+v", i, m)
		}
	}
}

// len reports the number of unmatched messages.
func (a *arrivals) len() int { return len(a.buf) - a.head }

// envelopeFrom wraps a point-to-point message from rank src with tag the
// way sendThen does, for feeding a rank's receiver directly.
func envelopeFrom(w *World, src, tag int) netsim.Message {
	e := w.newEnvelope()
	*e = mpiMsg{From: src, Tag: tag, Bytes: 8}
	return netsim.Message{Payload: e}
}

// TestArrivalSchedulesDrainLikeAMailbox pins the rank's event rule, which
// must be the one a sim.Mailbox keeps for its receivers: an arrival
// schedules the drain event only while a receive is armed, whether or not
// the message matches it, and never while a drain is pending. The drain
// then completes the receive with the oldest match.
func TestArrivalSchedulesDrainLikeAMailbox(t *testing.T) {
	w := newTestWorld(2)
	r, env := w.Rank(1), w.env
	r.arrive(envelopeFrom(w, 0, 1))
	r.arrive(netsim.Message{Payload: barrierMsg(0)})
	if n := env.Pending(); n != 0 {
		t.Fatalf("arrivals with no receive armed scheduled %d events, want 0", n)
	}
	done := 0
	if r.recvThen(0, 2, func() { done++ }) {
		t.Fatal("recvThen matched a message that never arrived")
	}
	r.arrive(envelopeFrom(w, 0, 3))
	if n := env.Pending(); n != 1 {
		t.Fatalf("a non-matching arrival on an armed receive scheduled %d events, want 1", n)
	}
	r.arrive(envelopeFrom(w, 0, 2))
	r.arrive(envelopeFrom(w, 0, 2))
	if n := env.Pending(); n != 1 {
		t.Fatalf("arrivals with a drain pending scheduled %d more events, want 0", n-1)
	}
	env.Run()
	if done != 1 || r.got.Tag != 2 {
		t.Fatalf("drain completed the receive %d times with %+v, want once with tag 2", done, r.got)
	}
	var tags []int
	for _, m := range r.arrived.buf[r.arrived.head:] {
		tags = append(tags, m.Tag)
	}
	if fmt.Sprint(tags) != "[1 3 2]" {
		t.Fatalf("unmatched messages in arrival order: %v, want [1 3 2]", tags)
	}
	// Each envelope went back to the free list as it landed, so one
	// carried all four messages.
	if len(w.envelopes) != 1 {
		t.Fatalf("%d envelopes on the free list, want the 1 that carried every message", len(w.envelopes))
	}
}

// TestBarrierRoundsKeepTheirGeneration files barrier rounds of both
// generation parities: a round of the next generation must not satisfy the
// current one, and a round that lands twice is a broken invariant.
func TestBarrierRoundsKeepTheirGeneration(t *testing.T) {
	w := newTestWorld(4)
	r := w.Rank(0)
	r.arrive(netsim.Message{Payload: barrierMsg(1) | barrierOdd})
	if r.takeRound(1) {
		t.Fatal("round 1 of generation 1 satisfied generation 0")
	}
	r.barGen = 1
	if !r.takeRound(1) || r.takeRound(1) {
		t.Fatal("round 1 of generation 1 must be taken exactly once")
	}
	r.arrive(netsim.Message{Payload: barrierMsg(0)})
	defer func() {
		if recover() == nil {
			t.Fatal("a round that landed twice did not panic")
		}
	}()
	r.arrive(netsim.Message{Payload: barrierMsg(0)})
}

// TestSkewedBackToBackBarriers runs back-to-back barriers in which one
// rank's barrier rounds land late: rank 0 sends rank 1 a 1 MB message first,
// whose receive serialization holds the rank's link for 8 ms. Its
// neighbours leave a barrier first and send the next barrier's rounds,
// which land while it is still inside the current one. A sampling event
// checks that such a generation-early round did land. Every barrier must
// still hold: no rank leaves barrier k before the last rank entered it, and
// every round is claimed by the end.
func TestSkewedBackToBackBarriers(t *testing.T) {
	const barriers = 4
	for _, n := range []int{3, 4, 5, 8, 13} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			w := newTestWorld(n)
			slow, early := 1, 0
			var sample func()
			sample = func() {
				for i := range n {
					if r := w.Rank(i); r.barArrived[(r.barGen+1)&1] != 0 {
						early++
					}
				}
				// A deadlocked barrier leaves its ranks live: stop sampling
				// after a second, so the run ends and the checks report it.
				if w.env.LiveProcs() > 0 && w.env.Now() < sim.Second {
					w.env.After(5*sim.Microsecond, sample)
				}
			}
			w.env.After(0, sample)
			enter := make([][]sim.Time, barriers)
			exit := make([][]sim.Time, barriers)
			for k := range barriers {
				enter[k], exit[k] = make([]sim.Time, n), make([]sim.Time, n)
			}
			w.RunToCompletion(func(p *sim.Proc, r *Rank) {
				id := r.RankID()
				if id == 0 {
					r.Send(p, slow, 1, 1<<20)
				}
				for k := range barriers {
					enter[k][id] = p.Now()
					r.Barrier(p)
					exit[k][id] = p.Now()
				}
				if id == slow {
					r.Recv(p, 0, 1)
				}
			})
			if early == 0 {
				t.Error("no barrier round landed a generation early: the test lost its skew")
			}
			for k := range barriers {
				last := slices.Max(enter[k])
				for id, e := range exit[k] {
					if e < last {
						t.Errorf("barrier %d: rank %d left at %v, before the last entry at %v", k, id, e, last)
					}
				}
			}
			for i := range n {
				if r := w.Rank(i); r.barArrived != [2]uint64{} || r.barGen != barriers {
					t.Errorf("rank %d ends at generation %d with rounds %b unclaimed", i, r.barGen, r.barArrived)
				}
			}
		})
	}
}

// TestMessagesAroundABarrier sends point-to-point messages out of tag
// order before and after a barrier that the receiver enters first, so they
// land while it waits in the barrier or after it. Each receive must still
// get the oldest message with its tag, and the arrival list must end empty.
func TestMessagesAroundABarrier(t *testing.T) {
	w := newTestWorld(3)
	var got []string
	w.RunToCompletion(func(p *sim.Proc, r *Rank) {
		switch r.RankID() {
		case 0:
			p.Sleep(sim.Millisecond)
			r.SendData(p, 1, 1, 8, "a")
			r.SendData(p, 1, 2, 8, "b")
			r.SendData(p, 1, 1, 8, "c")
			r.Barrier(p)
			r.SendData(p, 1, 2, 8, "d")
		case 1:
			r.Barrier(p)
			for _, tag := range []int{2, 1, 2, 1} {
				_, data := r.RecvData(p, 0, tag)
				got = append(got, data.(string))
			}
		default:
			r.Barrier(p)
		}
	})
	if fmt.Sprint(got) != "[b a d c]" {
		t.Fatalf("received %v, want [b a d c]", got)
	}
	if n := w.Rank(1).arrived.len(); n != 0 {
		t.Fatalf("%d messages left unmatched", n)
	}
}

// TestArrivalsTakeAndCompact drives the arrival list past its capacity
// with takes from the front and the middle: order must hold, the buffer
// must stop growing once takes keep pace, and no vacated slot may keep a
// payload.
func TestArrivalsTakeAndCompact(t *testing.T) {
	var a arrivals
	data := new(int)
	next, want := 0, 0
	for range 100 {
		for range 3 {
			a.push(mpiMsg{From: 0, Tag: next, Data: data})
			next++
		}
		// Take the newest-but-one, then the two oldest in order.
		if _, ok := a.take(0, next-2); !ok {
			t.Fatalf("tag %d not found", next-2)
		}
		for range 2 {
			for want < next && want == next-2 {
				want++
			}
			m, ok := a.take(0, want)
			if !ok {
				t.Fatalf("tag %d not found", want)
			}
			want++
			_ = m
		}
	}
	if c := cap(a.buf); c > 16 {
		t.Fatalf("buffer grew to %d slots for a backlog of at most 3", c)
	}
	for i, m := range a.buf[:a.head] {
		if m != (mpiMsg{}) {
			t.Errorf("vacated slot %d keeps %+v", i, m)
		}
	}
	for i, m := range a.buf[len(a.buf):cap(a.buf)] {
		if m != (mpiMsg{}) {
			t.Errorf("spare slot %d keeps %+v", i, m)
		}
	}
}
