package sim

import (
	"testing"
)

// These tests pin down the batched wake path: Mailbox.Put schedules one
// drain event that serves every waiting receiver in FIFO order. The batching
// is only sound if arrival order survives — across bursts, across receivers
// that wake awaiting processes and plain callbacks alike, and across
// receivers that re-arm from inside their own callback.

// TestBatchedWakeMailboxFIFO delivers a same-instant burst to several parked
// receivers: messages must map to receivers in registration order, through
// the single drain event.
func TestBatchedWakeMailboxFIFO(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var order []int // receiver index in wake order
	var vals []int  // message seen by that receiver
	for i := 0; i < 3; i++ {
		i := i
		env.Go("recv", func(p *Proc) {
			v := newReceiver(mb).get(p)
			order = append(order, i)
			vals = append(vals, v)
		})
	}
	env.Go("send", func(p *Proc) {
		p.Sleep(5)
		mb.Put(10)
		mb.Put(20)
		mb.Put(30)
		mb.Put(40) // one more than receivers; must stay queued
	})
	env.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("wake order %v, want [0 1 2]", order)
	}
	if vals[0] != 10 || vals[1] != 20 || vals[2] != 30 {
		t.Fatalf("values %v, want [10 20 30]", vals)
	}
	if mb.Len() != 1 {
		t.Fatalf("queued leftovers = %d, want 1", mb.Len())
	}
}

// TestBatchedWakeMailboxMixedWaiters interleaves processes awaiting GetThen
// and plain GetThen callbacks in one receive queue: a burst must serve both
// kinds in strict arrival order, within the one drain event.
func TestBatchedWakeMailboxMixedWaiters(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var got []string
	var at []Time
	awaiter := func(name string, delay Duration) {
		env.Go(name, func(p *Proc) {
			p.Sleep(delay)
			v := newReceiver(mb).get(p)
			got, at = append(got, name, itoa(v)), append(at, p.Now())
		})
	}
	callback := func(name string, delay Duration) {
		env.After(delay, func() {
			mb.GetThen(func(v int) { got, at = append(got, name, itoa(v)), append(at, env.Now()) })
		})
	}
	awaiter("p0", 0)
	callback("cb1", 1)
	awaiter("p2", 2)
	callback("cb3", 3)
	awaiter("p4", 4)
	env.Go("send", func(p *Proc) {
		p.Sleep(5)
		for v := 1; v <= 5; v++ {
			mb.Put(v)
		}
	})
	env.Run()
	want := []string{"p0", "1", "cb1", "2", "p2", "3", "cb3", "4", "p4", "5"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, t0 := range at {
		if t0 != 5 {
			t.Fatalf("burst served at %v, want all at 5", at)
		}
	}
}

// TestBatchedWakeResourceMixedWaiters queues awaiting processes and
// AcquireThen callbacks behind a saturated unit resource: the unit must pass
// through the mixed queue in strict arrival order.
func TestBatchedWakeResourceMixedWaiters(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	var got []string
	env.Go("holder", func(p *Proc) {
		p.Await(res.AcquireThen)
		p.Sleep(10)
		res.Release()
	})
	env.Go("p0", func(p *Proc) {
		p.Sleep(1)
		p.Await(res.AcquireThen)
		got = append(got, "p0")
		p.Sleep(1)
		res.Release()
	})
	env.Go("arm", func(p *Proc) {
		p.Sleep(2)
		res.AcquireThen(func() {
			got = append(got, "cb1")
			env.After(1, res.Release)
		})
	})
	env.Go("p2", func(p *Proc) {
		p.Sleep(3)
		p.Await(res.AcquireThen)
		got = append(got, "p2")
		res.Release()
	})
	env.Run()
	want := []string{"p0", "cb1", "p2"}
	if len(got) != len(want) {
		t.Fatalf("grant order %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant order %v, want %v", got, want)
		}
	}
}

// TestBatchedWakeGetThenReArm re-arms a GetThen handler from inside its own
// callback: a same-instant burst must be consumed inline in FIFO order,
// exactly as a dispatch process looping Get would consume it within one
// wake.
func TestBatchedWakeGetThenReArm(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var got []int
	var times []Time
	var arm func()
	arm = func() {
		mb.GetThen(func(v int) {
			got = append(got, v)
			times = append(times, env.Now())
			arm()
		})
	}
	arm()
	env.Go("send", func(p *Proc) {
		p.Sleep(7)
		mb.Put(1)
		mb.Put(2)
		mb.Put(3)
	})
	env.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
	for _, at := range times {
		if at != 7 {
			t.Fatalf("burst consumed at %v, want all at 7", times)
		}
	}
	if mb.Len() != 0 {
		t.Fatalf("leftover messages = %d", mb.Len())
	}
}

// itoa avoids importing strconv for two-character test labels.
func itoa(v int) string {
	if v < 0 || v > 9 {
		return "?"
	}
	return string(rune('0' + v))
}
