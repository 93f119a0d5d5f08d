package sim

// Resource is a FIFO server with fixed capacity, the workhorse for modelling
// contended hardware: a disk head, a network link, a CPU. Claims are served
// in arrival order, which keeps the simulation deterministic, from a
// ring-buffer FIFO, so a release costs O(1) however deep the queue.
//
// A claim is an event callback (AcquireThen); a process claims by awaiting
// one, p.Await(r.AcquireThen). An event chain holds a unit for d with
// AcquireThen → After(d) → Release; callers bind those stages once (see
// netsim's delivery and disk's access) so a claim allocates nothing.
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters fifo[func()]
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	r := &Resource{}
	r.Init(env, capacity)
	return r
}

// Init prepares a zero Resource in place: the slab-allocation twin of
// NewResource, for embedding resources by value in preallocated arrays
// (interface slabs, disk slabs). A Resource must not be copied after Init.
func (r *Resource) Init(env *Env, capacity int) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	r.env = env
	r.cap = capacity
}

// AcquireThen obtains one unit of the resource: fn runs holding the unit,
// immediately (synchronously) when one is free, otherwise as a scheduled
// event when the queue reaches it. fn must eventually lead to a Release.
func (r *Resource) AcquireThen(fn func()) {
	if r.inUse < r.cap {
		r.inUse++
		fn()
		return
	}
	r.waiters.push(fn)
}

// Release returns one unit. The unit passes directly to the longest-waiting
// claim, if any, whose callback is scheduled at the current instant.
func (r *Resource) Release() {
	if r.waiters.len() > 0 {
		r.env.schedule(r.env.now, r.waiters.pop())
		return
	}
	if r.inUse == 0 {
		panic("sim: Release without AcquireThen")
	}
	r.inUse--
}

// Mailbox is an unbounded FIFO of messages with one-shot receivers. Sends
// never block (use a Resource to model transmission time); a receiver waits
// until a message arrives. Receivers are served in FIFO order.
//
// A receiver is an event callback (GetThen); an event chain binds its
// receiver once (see pfs's servers and calls, which bind Put as their
// network receiver and GetThen as their serve or reply stage), so a receive
// allocates nothing. Messages and receivers both wait in ring-buffer FIFOs,
// so a put or a receive costs O(1) however deep a server port's backlog
// grows. Wake-ups are batched: however many messages arrive at one instant,
// the mailbox schedules at most one drain event, which serves every
// (message, receiver) pair in FIFO order.
type Mailbox[T any] struct {
	env      *Env
	items    fifo[T]
	recvq    fifo[func(T)]
	draining bool
	drainFn  func() // bound drain method, allocated once in Init
}

// Init prepares a zero Mailbox in place, bound to env, and returns it: a
// Mailbox lives in a preallocated per-node port array or inside the payload
// that carries it, or stands alone as new(Mailbox[T]).Init(env). A Mailbox
// must not be copied after Init.
func (m *Mailbox[T]) Init(env *Env) *Mailbox[T] {
	m.env = env
	m.drainFn = m.drain
	return m
}

// Put deposits v and, if receivers are waiting, schedules the drain event
// (at most one pending at a time). Put may be called from a process or from
// a pure scheduled event.
func (m *Mailbox[T]) Put(v T) {
	m.items.push(v)
	if m.recvq.len() > 0 && !m.draining {
		m.draining = true
		m.env.schedule(m.env.now, m.drainFn)
	}
}

// drain hands queued messages to queued receivers in FIFO order until either
// runs out. A receiver may re-arm, wake an awaiting process or deposit more
// messages while the drain runs; each pass consumes one message and one
// receiver, so the loop terminates.
func (m *Mailbox[T]) drain() {
	m.draining = false
	for m.items.len() > 0 && m.recvq.len() > 0 {
		fn := m.recvq.pop()
		fn(m.items.pop())
	}
}

// GetThen receives one message: fn runs with the oldest message —
// immediately (synchronously) when one is queued, otherwise when the drain
// reaches this receiver. The registration is one-shot: a server loop re-arms
// by calling GetThen again from inside fn, consuming a burst of queued
// messages within one drain.
func (m *Mailbox[T]) GetThen(fn func(T)) {
	if m.items.len() > 0 {
		fn(m.items.pop())
		return
	}
	m.recvq.push(fn)
}
