package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

// The probes below read state that only this package's tests inspect.

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return m.items.len() }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// At schedules fn to run as a pure event (not a process) at instant at.
func (e *Env) At(at Time, fn func()) { e.schedule(at, fn) }

// receiver lets one process await a mailbox's GetThen. Its callback is bound
// once, so a receive through it allocates nothing.
type receiver[T any] struct {
	mb   *Mailbox[T]
	v    T
	wake func()
	got  func(T)
}

func newReceiver[T any](mb *Mailbox[T]) *receiver[T] {
	r := &receiver[T]{mb: mb}
	r.got = func(v T) { r.v = v; r.wake() }
	return r
}

func (r *receiver[T]) start(wake func()) { r.wake = wake; r.mb.GetThen(r.got) }

// get blocks p until the mailbox hands the receiver a message.
func (r *receiver[T]) get(p *Proc) T {
	p.Await(r.start)
	v := r.v
	var zero T
	r.v = zero
	return v
}

func TestEventOrdering(t *testing.T) {
	env := NewEnv(1)
	var got []int
	env.At(30, func() { got = append(got, 3) })
	env.At(10, func() { got = append(got, 1) })
	env.At(20, func() { got = append(got, 2) })
	env.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	env := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		env.At(5, func() { got = append(got, i) })
	}
	env.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	env := NewEnv(1)
	var at Time
	env.At(100, func() {
		env.After(50, func() { at = env.Now() })
	})
	env.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv(1)
	env.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		env.At(50, func() {})
	})
	env.Run()
}

func TestProcSleep(t *testing.T) {
	env := NewEnv(1)
	var wake Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(2 * Second)
		wake = p.Now()
	})
	env.Run()
	if wake != 2*Second {
		t.Fatalf("woke at %v, want 2s", wake)
	}
}

func TestProcInterleaving(t *testing.T) {
	env := NewEnv(1)
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	env.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// checkGoroutines fails t if the runtime's goroutine count is above base. A
// coroutine's goroutine exits inside the next or stop call that ends it, so
// no waiting is needed. The count may dip below base: the previous test's
// runner goroutine can still be exiting when base is taken.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("goroutines = %d, want at most the baseline %d", n, base)
	}
}

func TestRunUntilStopsEarlyAndKillsBlocked(t *testing.T) {
	env := NewEnv(1)
	reached, unwound := false, false
	env.Go("longsleep", func(p *Proc) {
		defer func() { unwound = true }()
		p.Sleep(100 * Second)
		reached = true
	})
	end := env.RunUntil(1 * Second)
	if reached {
		t.Error("process ran past deadline")
	}
	if !unwound {
		t.Error("killed process's defer did not run")
	}
	if end != 1*Second {
		t.Errorf("end = %v, want 1s", end)
	}

	// Killing a blocked process must release its goroutine, every time.
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		env := NewEnv(int64(i))
		env.Go("blocked", func(p *Proc) { p.Sleep(100 * Second) })
		env.Go("finished", func(p *Proc) { p.Sleep(1) })
		env.RunUntil(1 * Second)
		if env.LiveProcs() != 0 {
			t.Fatalf("run %d: LiveProcs = %d after RunUntil, want 0", i, env.LiveProcs())
		}
	}
	checkGoroutines(t, base)
}

func TestProcPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv(1)
	env.Go("sleeper", func(p *Proc) { p.Sleep(100 * Second) })
	env.Go("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	func() {
		defer func() {
			const want = `sim: process "bad" panicked: boom`
			if r := recover(); r != want {
				t.Fatalf("recovered %v, want %q", r, want)
			}
		}()
		env.Run()
		t.Fatal("Run returned normally")
	}()
	if env.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after panic, want 0", env.LiveProcs())
	}
	env.Stop() // already stopped: must be a no-op
	checkGoroutines(t, base)
}

// TestProcSleepAllocatesNothing guards the hand-off cost: a process switch
// (schedule, park, dispatch) must not allocate.
func TestProcSleepAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	var allocs float64
	env.Go("switcher", func(p *Proc) {
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("Sleep allocates %v per switch, want 0", allocs)
	}
}

// TestAwaitedGetAllocatesNothing guards the awaited receive: a process that
// parks on a bound receiver and is woken by the drain allocates nothing.
func TestAwaitedGetAllocatesNothing(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var allocs float64
	env.Go("recv", func(p *Proc) {
		r := newReceiver(mb)
		put := func() { mb.Put(1) }
		allocs = testing.AllocsPerRun(1000, func() {
			env.After(1, put)
			r.get(p)
		})
	})
	env.Run()
	if allocs != 0 {
		t.Fatalf("an awaited receive allocates %v, want 0", allocs)
	}
}

func TestResourceFIFO(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	var order []string
	worker := func(name string, hold Duration) func(*Proc) {
		return func(p *Proc) {
			p.Await(res.AcquireThen)
			order = append(order, name+"+")
			p.Sleep(hold)
			order = append(order, name+"-")
			res.Release()
		}
	}
	env.Go("a", worker("a", 10))
	env.Go("b", worker("b", 10))
	env.Go("c", worker("c", 10))
	env.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacityTwo(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 2)
	var maxInUse int
	work := func(p *Proc) {
		p.Await(res.AcquireThen)
		if res.InUse() > maxInUse {
			maxInUse = res.InUse()
		}
		p.Sleep(10)
		res.Release()
	}
	for i := 0; i < 5; i++ {
		env.Go("w", work)
	}
	env.Run()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
}

func TestResourceHoldForSerializes(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.Go("h", func(p *Proc) {
			hold(p, res, 10)
			finish = append(finish, p.Now())
		})
	}
	env.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

// hold occupies one unit of r for d from process p: it awaits the claim,
// sleeps and releases.
func hold(p *Proc, r *Resource, d Duration) {
	p.Await(r.AcquireThen)
	p.Sleep(d)
	r.Release()
}

// holdForThen occupies one unit of r for d and then calls fn, all as pure
// events: the AcquireThen → After(d) → Release chain that netsim's delivery
// stages and disk's access stages bind once per pooled operation.
func holdForThen(r *Resource, d Duration, fn func()) {
	r.AcquireThen(func() {
		r.env.After(d, func() {
			r.Release()
			fn()
		})
	})
}

func TestHoldForThenSerializes(t *testing.T) {
	// The event-callback hold must produce the same schedule as three
	// processes calling hold (cf. TestResourceHoldForSerializes).
	env := NewEnv(1)
	res := NewResource(env, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		env.At(0, func() {
			holdForThen(res, 10, func() { finish = append(finish, env.Now()) })
		})
	}
	env.Run()
	want := []Time{10, 20, 30}
	if len(finish) != len(want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestHoldForThenMatchesHoldFor(t *testing.T) {
	// Identical contention patterns through the process API and the event
	// API must finish at identical instants: the byte-identical-output
	// guarantee of the eventized network path rests on this equivalence.
	holds := []Duration{7, 13, 5, 29, 11, 3}
	run := func(eventized bool) []Time {
		env := NewEnv(1)
		res := NewResource(env, 2)
		finish := make([]Time, len(holds))
		for i, d := range holds {
			i, d := i, d
			start := Time(i) * 2
			if eventized {
				env.At(start, func() {
					holdForThen(res, d, func() { finish[i] = env.Now() })
				})
			} else {
				env.At(start, func() {
					env.Go("h", func(p *Proc) {
						hold(p, res, d)
						finish[i] = p.Now()
					})
				})
			}
		}
		env.Run()
		return finish
	}
	procs, events := run(false), run(true)
	for i := range holds {
		if procs[i] != events[i] {
			t.Fatalf("hold %d: proc engine finished at %v, event engine at %v\nprocs:  %v\nevents: %v",
				i, procs[i], events[i], procs, events)
		}
	}
}

func TestAcquireThenMixedFIFOWithProcs(t *testing.T) {
	// Awaited process claims and callback claims share one queue and are
	// served in strict arrival order.
	env := NewEnv(1)
	res := NewResource(env, 1)
	var order []string
	env.Go("first", func(p *Proc) {
		p.Await(res.AcquireThen)
		p.Sleep(10)
		res.Release()
	})
	env.At(1, func() {
		res.AcquireThen(func() {
			order = append(order, "event")
			res.Release()
		})
	})
	env.At(2, func() {
		env.Go("proc", func(p *Proc) {
			p.Await(res.AcquireThen)
			order = append(order, "proc")
			res.Release()
		})
	})
	env.At(3, func() {
		res.AcquireThen(func() {
			order = append(order, "event2")
			res.Release()
		})
	})
	env.Run()
	want := []string{"event", "proc", "event2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAcquireThenImmediateRunsSynchronously(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	ran := false
	res.AcquireThen(func() { ran = true })
	if !ran {
		t.Fatal("uncontended AcquireThen deferred its callback")
	}
	if res.InUse() != 1 {
		t.Fatalf("InUse = %d, want 1", res.InUse())
	}
	res.Release()
}

// TestAwaitSynchronousCompletion runs a chain that calls wake inside start:
// Await must return without parking and without scheduling an event, so a
// process spawned behind the awaiter at the same instant has not run yet.
func TestAwaitSynchronousCompletion(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	otherRan := false
	env.Go("awaiter", func(p *Proc) {
		pending := env.Pending()
		p.Await(res.AcquireThen) // free: the claim completes inside start
		p.Await(func(wake func()) { wake() })
		if env.Pending() != pending {
			t.Errorf("pending events %d -> %d across synchronous Awaits", pending, env.Pending())
		}
		if otherRan {
			t.Error("awaiter parked: a same-instant process ran in between")
		}
		if res.InUse() != 1 {
			t.Errorf("InUse = %d, want 1", res.InUse())
		}
		res.Release()
	})
	env.Go("other", func(p *Proc) { otherRan = true })
	env.Run()
	if !otherRan {
		t.Fatal("second process never ran")
	}
}

// TestAwaitAsynchronousCompletion parks on chains that complete in later
// events: a timer, and a claim queued behind a holder.
func TestAwaitAsynchronousCompletion(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	var timerAt, claimAt Time
	env.Go("holder", func(p *Proc) { hold(p, res, 30) })
	env.Go("awaiter", func(p *Proc) {
		p.Await(func(wake func()) { env.After(5, wake) })
		timerAt = p.Now()
		p.Await(res.AcquireThen)
		claimAt = p.Now()
		res.Release()
	})
	env.Run()
	if timerAt != 5 || claimAt != 30 {
		t.Fatalf("resumed at %v and %v, want 5 and 30", timerAt, claimAt)
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", env.LiveProcs())
	}
}

// TestAwaitStopUnwinds stops the environment while a process awaits a chain
// that never completes: the process's defers run and no process is left.
func TestAwaitStopUnwinds(t *testing.T) {
	env := NewEnv(1)
	var parked func()
	deferred := false
	env.Go("awaiter", func(p *Proc) {
		defer func() { deferred = true }()
		p.Await(func(wake func()) { parked = wake })
		t.Error("Await returned without a wake")
	})
	env.Run()
	if parked == nil {
		t.Fatal("start never ran")
	}
	if !deferred {
		t.Fatal("Stop did not run the awaiting process's defers")
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", env.LiveProcs())
	}
}

func TestSpawnedAndLiveProcs(t *testing.T) {
	env := NewEnv(1)
	if env.LiveProcs() != 0 || env.Spawns()["w"] != 0 {
		t.Fatal("fresh env reports procs")
	}
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *Proc) { p.Sleep(10) })
	}
	env.Go("other", func(p *Proc) { p.Sleep(5) })
	if env.LiveProcs() != 4 {
		t.Fatalf("LiveProcs = %d, want 4", env.LiveProcs())
	}
	env.Run()
	if n := env.Spawns(); n["w"] != 3 || n["other"] != 1 || n["nosuch"] != 0 || len(n) != 2 {
		t.Fatalf("spawn counts: %v", n)
	}
	if env.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Run = %d, want 0", env.LiveProcs())
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv(1)
	res := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	res.Release()
}

func TestMailboxBlockingGet(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var got int
	var at Time
	env.Go("recv", func(p *Proc) {
		got = newReceiver(mb).get(p)
		at = p.Now()
	})
	env.Go("send", func(p *Proc) {
		p.Sleep(42)
		mb.Put(7)
	})
	env.Run()
	if got != 7 || at != 42 {
		t.Fatalf("got %d at %v, want 7 at 42", got, at)
	}
}

func TestMailboxFIFOAcrossReceivers(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[int]).Init(env)
	var got []int
	for i := 0; i < 3; i++ {
		env.Go("recv", func(p *Proc) { got = append(got, newReceiver(mb).get(p)) })
	}
	env.Go("send", func(p *Proc) {
		p.Sleep(1)
		mb.Put(1)
		mb.Put(2)
		mb.Put(3)
	})
	env.Run()
	sort.Ints(got)
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("got %v", got)
		}
	}
}

func TestMailboxTryGet(t *testing.T) {
	env := NewEnv(1)
	mb := new(Mailbox[string]).Init(env)
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox returned ok")
	}
	mb.Put("x")
	v, ok := mb.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func() []Time {
		env := NewEnv(99)
		res := NewResource(env, 2)
		var finish []Time
		for i := 0; i < 8; i++ {
			env.Go("w", func(p *Proc) {
				d := Duration(env.Rand().Intn(100) + 1)
				hold(p, res, d)
				finish = append(finish, p.Now())
			})
		}
		env.Run()
		return finish
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a, b)
		}
	}
}

// refEvent and refHeap are the reference model for eventQueue: a plain
// binary min-heap of single events keyed on (at, seq), the order the
// instant queue must reproduce exactly.
type refEvent struct {
	at  Time
	seq uint64
}

type refHeap struct{ ev []refEvent }

func (h *refHeap) less(i, j int) bool {
	a, b := h.ev[i], h.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *refHeap) push(e refEvent) {
	h.ev = append(h.ev, e)
	for i := len(h.ev) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

func (h *refHeap) pop() refEvent {
	n := len(h.ev) - 1
	top := h.ev[0]
	h.ev[0] = h.ev[n]
	h.ev = h.ev[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return top
		}
		h.ev[i], h.ev[smallest] = h.ev[smallest], h.ev[i]
		i = smallest
	}
}

// queueOp is one step of a queue schedule: a pop, a push at the time of the
// last pop (as Env.After(0) schedules), or a push at time at.
type queueOp struct {
	pop, atNow bool
	at         Time
}

// collidingTimes returns n times, ascending from base, that all hash to
// base's slot in the open-instant table.
func collidingTimes(base Time, n int) []Time {
	out := []Time{base}
	for t := base + 1; len(out) < n; t++ {
		if openSlot(t) == openSlot(base) {
			out = append(out, t)
		}
	}
	return out
}

// checkQueueAgainstModel runs ops on an eventQueue and on the reference heap,
// then drains both, and reports the first pop where the two disagree on
// (at, seq). Pops on an empty queue are skipped.
func checkQueueAgainstModel(ops []queueOp) error {
	var q eventQueue
	var ref refHeap
	var seq uint64
	var popped uint64 // seq of the event whose fn ran last
	var now Time      // time of the last pop
	pop := func(step int) error {
		at, fn := q.pop()
		fn()
		now = at
		want := ref.pop()
		if at != want.at || popped != want.seq {
			return fmt.Errorf("pop at step %d: queue gave (at %d, seq %d), model (at %d, seq %d)",
				step, at, popped, want.at, want.seq)
		}
		if q.len() != len(ref.ev) {
			return fmt.Errorf("after pop at step %d: queue holds %d, model %d", step, q.len(), len(ref.ev))
		}
		return nil
	}
	for i, op := range ops {
		if op.pop {
			if q.len() == 0 {
				continue
			}
			if err := pop(i); err != nil {
				return err
			}
			continue
		}
		at := op.at
		if op.atNow {
			at = now
		}
		seq++
		s := seq
		q.push(at, func() { popped = s })
		ref.push(refEvent{at: at, seq: s})
	}
	for q.len() > 0 {
		if err := pop(len(ops)); err != nil {
			return err
		}
	}
	if len(ref.ev) != 0 {
		return fmt.Errorf("queue drained with %d events left in the model", len(ref.ev))
	}
	return nil
}

// randomQueueOps builds a schedule the way simulations load the queue, mixing
// bursts at one time, spreads over many distinct times, pushes at the time
// just popped and times that collide in the open-instant table.
func randomQueueOps(r *rand.Rand, n int) []queueOp {
	collide := collidingTimes(Time(r.Intn(1000)), 6)
	var ops []queueOp
	var base Time // rises with the pops, as virtual time does
	for len(ops) < n {
		switch r.Intn(6) {
		case 0: // a burst at one time
			at := base + Time(r.Intn(4))
			for k := r.Intn(40); k >= 0; k-- {
				ops = append(ops, queueOp{at: at})
			}
		case 1: // many distinct times
			for k := r.Intn(40); k >= 0; k-- {
				ops = append(ops, queueOp{at: base + Time(r.Intn(500))})
			}
		case 2: // pushes at the time just popped, between pops
			for k := r.Intn(10); k >= 0; k-- {
				ops = append(ops, queueOp{pop: true}, queueOp{atNow: true})
			}
		case 3: // times sharing one slot, interleaved
			for k := r.Intn(30); k >= 0; k-- {
				ops = append(ops, queueOp{at: collide[r.Intn(len(collide))]})
			}
		default: // a run of pops
			for k := r.Intn(50); k >= 0; k-- {
				ops = append(ops, queueOp{pop: true})
			}
			base += Time(r.Intn(3))
		}
	}
	return ops
}

// Property: the instant queue pops events in exactly the reference heap's
// (at, seq) order on random schedules.
func TestEventQueueMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ops := randomQueueOps(r, 50+r.Intn(400))
		if err := checkQueueAgainstModel(ops); err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
	}
}

// decodeQueueOps reads a schedule from fuzz input, two bytes per step: the
// first picks the step's kind (pop, push at the time just popped, push at a
// time, push at a time that collides in the open-instant table), the second
// its time.
func decodeQueueOps(data []byte) []queueOp {
	collide := collidingTimes(0, 16)
	var ops []queueOp
	for i := 0; i+1 < len(data); i += 2 {
		kind, arg := data[i]%4, Time(data[i+1])
		switch kind {
		case 0:
			ops = append(ops, queueOp{pop: true})
		case 1:
			ops = append(ops, queueOp{atNow: true})
		case 2:
			ops = append(ops, queueOp{at: arg})
		case 3:
			ops = append(ops, queueOp{at: collide[arg%16]})
		}
	}
	return ops
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0})
	f.Add([]byte{3, 0, 3, 1, 3, 0, 3, 2, 0, 0, 3, 1, 0, 0, 3, 0})
	f.Add([]byte{2, 9, 2, 3, 2, 200, 0, 0, 2, 3, 1, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkQueueAgainstModel(decodeQueueOps(data)); err != nil {
			t.Fatal(err)
		}
	})
}

// The queue's edges seen through Env: a RunUntil deadline between two
// instants, Pending, and Stop with events still queued.
func TestRunUntilBetweenInstants(t *testing.T) {
	env := NewEnv(1)
	var order []Time
	for _, at := range []Time{10, 20, 10, 30, 20} {
		env.At(at, func() { order = append(order, env.Now()) })
	}
	var sleeper bool
	env.Go("sleeper", func(p *Proc) {
		defer func() { sleeper = true }()
		p.Sleep(40)
	})
	if got := env.Pending(); got != 6 {
		t.Fatalf("Pending before run = %d, want 6", got)
	}
	if end := env.RunUntil(25); end != 25 {
		t.Fatalf("RunUntil(25) = %v, want 25", end)
	}
	if want := []Time{10, 10, 20, 20}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("ran at %v, want %v", order, want)
	}
	// The event at 30 and the sleeper's wake at 40 stay queued, unrun.
	if got := env.Pending(); got != 2 {
		t.Fatalf("Pending after RunUntil(25) = %d, want 2", got)
	}
	if !sleeper {
		t.Fatal("Stop did not unwind the sleeping process")
	}
	if env.Now() != 25 {
		t.Fatalf("Now = %v after RunUntil(25)", env.Now())
	}
}

// Property: DurationOf is monotone in bytes for fixed bandwidth.
func TestDurationOfMonotoneProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return DurationOf(x, 1e9) <= DurationOf(y, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationOfExact(t *testing.T) {
	// 1 MiB at 1 MiB/s is exactly one second.
	got := DurationOf(1<<20, 1<<20)
	if got != Second {
		t.Fatalf("got %v, want 1s", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := NewEnv(7).Rand().Int63()
	b := NewEnv(7).Rand().Int63()
	if a != b {
		t.Fatal("same seed produced different first values")
	}
	c := rand.New(rand.NewSource(8)).Int63()
	if a == c {
		t.Fatal("different seeds produced identical first values (suspicious)")
	}
}

func TestTimeString(t *testing.T) {
	for _, c := range []struct {
		t    Time
		want string
	}{
		{1*Second + 500*Millisecond, "1.500000000s"},
		{0, "0.000000000s"},
		{-1, "-0.000000001s"},
		{-160813116, "-0.160813116s"},
		{-(1*Second + 500*Millisecond), "-1.500000000s"},
		{MaxTime, "9223372036.854775807s"},
		{-MaxTime - 1, "-9223372036.854775808s"},
	} {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestStopIdempotent(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) { p.Sleep(1000) })
	env.RunUntil(10)
	env.Stop()
	env.Stop() // must not panic or deadlock
}
