package mpi

import (
	"fmt"
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
// so that two wait in the pending list and leave it from its front, then
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
	if len(r.pending) != 0 {
		t.Fatalf("%d messages left pending", len(r.pending))
	}
	for i, m := range r.pending[:cap(r.pending)] {
		if m != (mpiMsg{}) {
			t.Errorf("pending slot %d past len keeps %+v", i, m)
		}
	}
	for i := range 2 {
		if m := w.Rank(i).got; m != (mpiMsg{}) {
			t.Errorf("rank %d still holds its last match: %+v", i, m)
		}
	}
}
