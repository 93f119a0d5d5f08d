package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSlice drives the ring with random pushes and pops against
// a plain slice as the model. Bursts of pushes make the ring grow, and pops
// interleaved with pushes move the head around it, so entries wrap across
// the end of the buffer and survive a grow while wrapped.
func TestFIFOMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Phases bias toward pushing or popping so the depth sweeps from
		// empty to a few hundred and back.
		pushBias := 0.3
		if (step/1000)%2 == 0 {
			pushBias = 0.7
		}
		if len(model) == 0 || rng.Float64() < pushBias {
			q.push(next)
			model = append(model, next)
			next++
		} else {
			got, want := q.pop(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
		if len(q.buf)&(len(q.buf)-1) != 0 {
			t.Fatalf("step %d: ring length %d is not a power of two", step, len(q.buf))
		}
	}
}

// TestFIFOGrowsFromOneSlot pins the growth policy: a queue that never holds
// more than one entry stays one slot wide.
func TestFIFOGrowsFromOneSlot(t *testing.T) {
	var q fifo[int]
	for i := 0; i < 100; i++ {
		q.push(i)
		if got := q.pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if len(q.buf) != 1 {
		t.Fatalf("ring length %d after single-entry use, want 1", len(q.buf))
	}
	for i := 0; i < 5; i++ {
		q.push(i)
	}
	if len(q.buf) != 8 {
		t.Fatalf("ring length %d holding 5 entries, want 8", len(q.buf))
	}
}

// TestFIFOPopZeroesSlot checks that a served entry is not kept reachable
// from the ring.
func TestFIFOPopZeroesSlot(t *testing.T) {
	var q fifo[*int]
	x := new(int)
	q.push(x)
	q.push(x)
	q.pop()
	for i, v := range q.buf {
		if v != nil && i != q.head {
			t.Fatalf("slot %d still holds a popped entry", i)
		}
	}
}

// TestResourceServeOrderMixedDeep queues a few hundred claims on a
// saturated resource, mixing awaited process claims and callback
// AcquireThen at random, while earlier claims are being served. Claims must
// be granted in arrival order, each one service time after the last.
func TestResourceServeOrderMixedDeep(t *testing.T) {
	const (
		claims  = 300
		service = 3 // each claim holds the unit this long
		opens   = 50
	)
	rng := rand.New(rand.NewSource(7))
	env := NewEnv(1)
	res := NewResource(env, 1)
	env.Go("holder", func(p *Proc) {
		hold(p, res, opens)
	})
	var order []int
	var grantedAt []Time
	for i := 0; i < claims; i++ {
		i := i
		granted := func() {
			order = append(order, i)
			grantedAt = append(grantedAt, env.Now())
		}
		// Claim i arrives at t = i+1: one per tick, against one service
		// every three ticks, so the queue deepens while it drains.
		if rng.Intn(2) == 0 {
			env.At(Time(i+1), func() {
				env.Go("claim", func(p *Proc) {
					p.Await(res.AcquireThen)
					granted()
					p.Sleep(service)
					res.Release()
				})
			})
		} else {
			env.At(Time(i+1), func() {
				res.AcquireThen(func() {
					granted()
					env.After(service, res.Release)
				})
			})
		}
	}
	env.Run()
	if len(order) != claims {
		t.Fatalf("%d claims granted, want %d", len(order), claims)
	}
	for k := range order {
		if order[k] != k {
			t.Fatalf("grant %d went to claim %d, want arrival order", k, order[k])
		}
		if want := Time(opens + service*k); grantedAt[k] != want {
			t.Fatalf("claim %d granted at %v, want %v", k, grantedAt[k], want)
		}
	}
}

// TestMailboxServeOrderMixedDeep registers receivers of both kinds, a
// process awaiting GetThen and a plain GetThen callback, at random, and
// checks that receiver k gets
// message k at the instant it can. One run queues receivers faster than
// messages arrive (a deep recvq); the other queues messages faster than
// receivers arrive (a deep item queue).
func TestMailboxServeOrderMixedDeep(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name          string
		recvAt, putAt func(k int) Time
	}{
		// Receivers and puts never share an instant: a GetThen that
		// finds a message queued takes it at once, ahead of receivers
		// that a same-instant drain has yet to serve.
		{"deep receivers", func(k int) Time { return Time(2*k + 1) }, func(k int) Time { return Time(20 + 4*k) }},
		{"deep messages", func(k int) Time { return Time(20 + 4*k) }, func(k int) Time { return Time(2*k + 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			env := NewEnv(1)
			mb := new(Mailbox[int]).Init(env)
			got := make([]int, n)
			gotAt := make([]Time, n)
			for k := 0; k < n; k++ {
				k := k
				receive := func(v int) { got[k], gotAt[k] = v, env.Now() }
				if rng.Intn(2) == 0 {
					env.At(tc.recvAt(k), func() {
						env.Go("recv", func(p *Proc) { receive(newReceiver(mb).get(p)) })
					})
				} else {
					env.At(tc.recvAt(k), func() { mb.GetThen(receive) })
				}
				env.At(tc.putAt(k), func() { mb.Put(k) })
			}
			env.Run()
			for k := 0; k < n; k++ {
				want := max(tc.recvAt(k), tc.putAt(k))
				if got[k] != k || gotAt[k] != want {
					t.Fatalf("receiver %d got message %d at %v, want message %d at %v",
						k, got[k], gotAt[k], k, want)
				}
			}
		})
	}
}
