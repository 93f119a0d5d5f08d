package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

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
	if env.LiveProcs() != 0 || env.Spawned("w") != 0 {
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
	if env.Spawned("w") != 3 || env.Spawned("other") != 1 || env.Spawned("nosuch") != 0 {
		t.Fatalf("spawn counts: w=%d other=%d", env.Spawned("w"), env.Spawned("other"))
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
	mb := NewMailbox[int](env)
	var got int
	var at Time
	env.Go("recv", func(p *Proc) {
		got = mb.Get(p)
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
	mb := NewMailbox[int](env)
	var got []int
	for i := 0; i < 3; i++ {
		env.Go("recv", func(p *Proc) { got = append(got, mb.Get(p)) })
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
	mb := NewMailbox[string](env)
	if _, ok := mb.TryGet(); ok {
		t.Fatal("TryGet on empty mailbox returned ok")
	}
	mb.Put("x")
	v, ok := mb.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q,%v", v, ok)
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv(1)
	sig := NewSignal(env)
	woke := 0
	for i := 0; i < 4; i++ {
		env.Go("w", func(p *Proc) {
			sig.Wait(p)
			woke++
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(10)
		sig.Fire()
	})
	env.Run()
	if woke != 4 {
		t.Fatalf("woke = %d, want 4", woke)
	}
}

func TestLatchOpenBeforeWait(t *testing.T) {
	env := NewEnv(1)
	l := NewLatch(env)
	l.Open()
	passed := false
	env.Go("w", func(p *Proc) {
		l.Wait(p) // must not block
		passed = true
	})
	env.Run()
	if !passed {
		t.Fatal("waiter blocked on open latch")
	}
}

func TestWaitGroupZeroWaitDoesNotBlock(t *testing.T) {
	env := NewEnv(1)
	wg := NewWaitGroup(env)
	ok := false
	env.Go("w", func(p *Proc) {
		wg.Wait(p)
		ok = true
	})
	env.Run()
	if !ok {
		t.Fatal("Wait on zero counter blocked")
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

// Property: popping the heap always yields events in nondecreasing (at, seq)
// order regardless of insertion order.
func TestHeapOrderingProperty(t *testing.T) {
	f := func(times []int16) bool {
		var h eventHeap
		for i, tm := range times {
			at := Time(tm)
			if at < 0 {
				at = -at
			}
			h.Push(event{at: at, seq: uint64(i)})
		}
		var prev event
		first := true
		for h.Len() > 0 {
			e := h.Pop()
			if !first {
				if e.at < prev.at || (e.at == prev.at && e.seq < prev.seq) {
					return false
				}
			}
			prev, first = e, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
	got := (1*Second + 500*Millisecond).String()
	if got != "1.500000000s" {
		t.Fatalf("String = %q", got)
	}
}

func TestStopIdempotent(t *testing.T) {
	env := NewEnv(1)
	env.Go("p", func(p *Proc) { p.Sleep(1000) })
	env.RunUntil(10)
	env.Stop()
	env.Stop() // must not panic or deadlock
}
