package sim

import "math/bits"

// instant holds every event queued for one virtual time, in scheduling order,
// on a ring buffer. A simulation schedules many events at few distinct times
// (a 2048-rank cell keeps about a thousand events queued, over a mean of 8 to
// 24 distinct times), so the queue orders instants, not events.
type instant struct {
	at    Time
	first uint64 // scheduling sequence number of the instant's first event
	fns   fifo[func()]
	next  *instant // free-list link
}

// keptRing is the longest ring a drained instant keeps for its next use.
// Longer rings go to the queue's spares, so that a burst grows into the
// rings of earlier bursts instead of into fresh ones.
const keptRing = 16

// openBits sizes the open-instant table at 1<<openBits slots.
const openBits = 8

// openSlot hashes a time to its slot in the open-instant table
// (multiplicative hashing on the golden ratio).
func openSlot(at Time) int { return int(uint64(at) * 0x9e3779b97f4a7c15 >> (64 - openBits)) }

// eventQueue holds the scheduled events in (at, seq) order: by time, ties
// broken by scheduling order, which makes a simulation deterministic.
//
// A binary min-heap orders the queued instants on (at, first). The
// open-instant table maps a time's hash to the instant that the next event
// at that time joins; a push whose slot holds another time opens a new
// instant and takes the slot over. An instant that loses its slot never
// receives another event, so all its events precede the first event of any
// later instant with the same time, and the heap's tie-break on first keeps
// the order exact. A slot holds only a queued instant. A push to an open
// instant, and a pop of anything but an instant's last event, cost O(1).
// Drained instants and outgrown rings are recycled, so a steady state
// allocates nothing per event.
type eventQueue struct {
	heap   []*instant
	open   [1 << openBits]*instant
	free   *instant
	spares [64][][]func() // empty ring buffers, by log2 of their length
	seq    uint64         // sequence number of the last scheduled event
	n      int            // queued events
	// drained is set when the heap's root has just run out of events. The
	// root stays in place, and in its slot, until the next push or pop: a
	// push at its time refills it, a push that opens an instant takes the
	// root over with one sift where removing it and pushing a new instant
	// would take two, and a pop removes it.
	drained bool
}

// len reports the number of queued events.
func (q *eventQueue) len() int { return q.n }

// push queues fn to run at time at, after every event already queued for at.
func (q *eventQueue) push(at Time, fn func()) {
	q.seq++
	q.n++
	slot := &q.open[openSlot(at)]
	in := *slot
	switch {
	case in != nil && in.at == at:
		if q.drained && in == q.heap[0] {
			q.drained = false // the drained root is refilled
		}
	case q.drained: // the new instant takes the drained root over
		q.drained = false
		in = q.heap[0]
		q.closeSlot(in)
		in.at, in.first = at, q.seq
		*slot = in
		q.siftDown(0)
	default:
		in = q.free
		if in == nil {
			in = new(instant)
		} else {
			q.free = in.next
			in.next = nil
		}
		in.at, in.first = at, q.seq
		*slot = in
		q.heapPush(in)
	}
	if in.fns.len() == len(in.fns.buf) {
		q.growRing(&in.fns)
	}
	in.fns.push(fn)
}

// growRing doubles a full ring into a spare buffer, or a new one if no spare
// of that length is left, and keeps the outgrown buffer as a spare.
func (q *eventQueue) growRing(r *fifo[func()]) {
	size := max(2*len(r.buf), 1)
	var buf []func()
	if s := &q.spares[bits.TrailingZeros(uint(size))]; len(*s) > 0 {
		buf = (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
	} else {
		buf = make([]func(), size)
	}
	old := r.growInto(buf)
	clear(old)
	q.spare(old)
}

// spare keeps an empty ring buffer for a later growRing.
func (q *eventQueue) spare(buf []func()) {
	if len(buf) > 0 {
		s := &q.spares[bits.TrailingZeros(uint(len(buf)))]
		*s = append(*s, buf)
	}
}

// headAt returns the earliest queued time; the queue must be non-empty.
func (q *eventQueue) headAt() Time {
	if q.drained {
		q.removeDrained()
	}
	return q.heap[0].at
}

// pop removes and returns the earliest event and its time; the queue must be
// non-empty.
func (q *eventQueue) pop() (Time, func()) {
	if q.drained {
		q.removeDrained()
	}
	in := q.heap[0]
	fn := in.fns.pop()
	q.n--
	if in.fns.len() == 0 {
		q.drained = true
		if len(in.fns.buf) > keptRing {
			q.spare(in.fns.buf)
			in.fns = fifo[func()]{}
		}
	}
	return in.at, fn
}

// removeDrained pops the drained root and recycles it.
func (q *eventQueue) removeDrained() {
	q.drained = false
	in := q.heap[0]
	q.closeSlot(in)
	q.heapPop()
	in.next = q.free
	q.free = in
}

// closeSlot clears in's slot in the open-instant table if in still holds it.
func (q *eventQueue) closeSlot(in *instant) {
	if slot := &q.open[openSlot(in.at)]; *slot == in {
		*slot = nil
	}
}

func instantLess(a, b *instant) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.first < b.first
}

func (q *eventQueue) heapPush(in *instant) {
	q.heap = append(q.heap, in)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !instantLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// heapPop removes the heap's root.
func (q *eventQueue) heapPop() {
	n := len(q.heap) - 1
	q.heap[0] = q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	q.siftDown(0)
}

// siftDown moves the entry at i down to its place.
func (q *eventQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && instantLess(h[l], h[smallest]) {
			smallest = l
		}
		if r < n && instantLess(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
