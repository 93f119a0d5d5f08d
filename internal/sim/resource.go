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

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Mailbox is an unbounded FIFO of messages with blocking receive. Sends
// never block (use a Resource to model transmission time); receives block
// until a message arrives. Multiple receivers are served in FIFO order.
//
// Mailbox is the one primitive that serves two kinds of receiver through one
// FIFO queue: processes (Get, which parks the caller) and event callbacks
// (GetThen, which allocate no goroutine). A process could await GetThen
// instead, but the callback would have to carry the message back to it, a
// closure per receive; MPI ranks receive every envelope with Get, and that
// path allocates nothing. Messages and receivers both wait in ring-buffer
// FIFOs, so a put or a receive costs O(1) however deep a server port's
// backlog grows. Wake-ups are batched: however many messages arrive at one
// instant, the mailbox schedules at most one drain event, which serves every
// (message, receiver) pair in FIFO order.
type Mailbox[T any] struct {
	env      *Env
	items    fifo[T]
	recvq    fifo[mboxWaiter[T]]
	draining bool
	drainFn  func() // bound drain method, allocated once in Init
}

// mboxWaiter is one queued receiver: a parked process (which pops the item
// itself when redispatched, via Get's re-check loop) or a one-shot callback
// (to which the drain hands the item directly).
type mboxWaiter[T any] struct {
	p  *Proc
	fn func(T)
}

// NewMailbox returns an empty mailbox bound to env.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	m := &Mailbox[T]{}
	m.Init(env)
	return m
}

// Init prepares a zero Mailbox in place: the slab-allocation twin of
// NewMailbox, for preallocated per-node port arrays. A Mailbox must not be
// copied after Init.
func (m *Mailbox[T]) Init(env *Env) {
	m.env = env
	m.drainFn = m.drain
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

// drain serves queued (message, receiver) pairs in FIFO order until either
// runs out. A redispatched process consumes its message inside Get (and may
// re-queue itself or deposit more messages while the drain runs); a callback
// receiver is handed the message directly. Both paths advance the same
// queues, so the loop terminates.
func (m *Mailbox[T]) drain() {
	m.draining = false
	for m.items.len() > 0 && m.recvq.len() > 0 {
		w := m.recvq.pop()
		if w.p != nil {
			m.env.dispatch(w.p)
			continue
		}
		w.fn(m.items.pop())
	}
}

// Get removes and returns the oldest message, blocking p until one exists.
func (m *Mailbox[T]) Get(p *Proc) T {
	for m.items.len() == 0 {
		m.recvq.push(mboxWaiter[T]{p: p})
		p.park()
	}
	return m.items.pop()
}

// GetThen receives one message on behalf of an event chain: fn runs with the
// oldest message — immediately (synchronously) when one is queued, matching
// a process Get that finds the mailbox non-empty — otherwise when the drain
// reaches this receiver. The registration is one-shot: a server loop re-arms
// by calling GetThen again from inside fn, which exactly mirrors a dispatch
// process looping back into Get (including consuming a burst of queued
// messages within one drain, as the process loop consumed them within one
// wake).
func (m *Mailbox[T]) GetThen(fn func(T)) {
	if m.items.len() > 0 {
		fn(m.items.pop())
		return
	}
	m.recvq.push(mboxWaiter[T]{fn: fn})
}

// TryGet removes and returns the oldest message without blocking; ok is
// false when the mailbox is empty.
func (m *Mailbox[T]) TryGet() (v T, ok bool) {
	if m.items.len() == 0 {
		return v, false
	}
	return m.items.pop(), true
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.items.len() }

// Signal is a broadcast condition: processes Wait on it and a later Fire
// releases every current waiter at once. Fires with no waiters are not
// remembered (it is a condition variable, not a latch).
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p)
	p.park()
}

// Fire wakes every process currently waiting, in wait order, through a
// single scheduled drain event.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = nil
	if len(ws) == 0 {
		return
	}
	s.env.schedule(s.env.now, func() { s.env.dispatchAll(ws) })
}

// Waiting reports the number of blocked waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Latch is a one-shot gate: Open releases all present and future waiters.
type Latch struct {
	open   bool
	signal *Signal
}

// NewLatch returns a closed latch.
func NewLatch(env *Env) *Latch {
	return &Latch{signal: NewSignal(env)}
}

// Wait blocks p until the latch opens; returns immediately if already open.
func (l *Latch) Wait(p *Proc) {
	if l.open {
		return
	}
	l.signal.Wait(p)
}

// Open releases all waiters; idempotent.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	l.signal.Fire()
}
