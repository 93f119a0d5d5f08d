package sim

// fifo is a first-in first-out queue on a ring buffer: push and pop cost
// O(1) whatever the depth, where a slice popped with copy(q, q[1:]) costs
// O(depth). The ring grows by doubling from one slot, as append does, so the
// many queues that never hold more than one entry stay one slot wide; its
// length is therefore always a power of two. A pop zeroes its slot, so the
// ring keeps no reference to a served entry alive.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest entry
	n    int // number of entries
}

// len reports the number of queued entries.
func (q *fifo[T]) len() int { return q.n }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop removes and returns the oldest entry; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the ring (one slot when empty).
func (q *fifo[T]) grow() { q.growInto(make([]T, max(2*len(q.buf), 1))) }

// growInto moves the entries of a full ring to the front of buf, which must
// be twice the ring's length (one slot when empty), and returns the old
// buffer, which still holds copies of the entries.
func (q *fifo[T]) growInto(buf []T) []T {
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	old := q.buf
	q.buf = buf
	q.head = 0
	return old
}
