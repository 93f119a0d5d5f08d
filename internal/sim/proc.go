package sim

import (
	"fmt"
	"iter"
)

// errKilled is the sentinel recovered by the process wrapper when the
// environment shuts a blocked process down.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed at shutdown" }

// Proc is a simulated process: a coroutine that runs in strict alternation
// with the scheduler. A process blocks in exactly two ways, Sleep and Await,
// each called from the process's own body.
type Proc struct {
	env  *Env
	pid  int
	name string

	// next, stop and yield are the process's iter.Pull coroutine: next runs
	// the body until it parks (false once it has finished), yield parks it
	// (false once stop has killed it), and stop unwinds a parked body.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// dispatchFn is the process's reusable dispatch event, allocated once at
	// spawn. Every Sleep schedules it and Await hands it to the event
	// chain as the wake callback; caching it here keeps the simulator's
	// hottest path (hundreds of wake events per rank) from allocating a
	// fresh closure per event.
	dispatchFn func()

	// awaiting is set while Await runs its start function: a wake that
	// arrives then (the chain completed synchronously) only clears it, and
	// Await returns without parking.
	awaiting bool

	// span is the causal span the process is currently executing under
	// (0 = none). Layers that start a child operation save the old value,
	// install their own span, and restore on return, so records emitted by
	// lower layers can name their parent.
	span uint64
}

// Go spawns fn as a new simulated process starting at the current virtual
// time. The returned Proc identifies the process; fn receives it for calling
// blocking primitives.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go after environment stopped")
	}
	e.nextPID++
	e.spawns[name]++
	p := &Proc{env: e, pid: e.nextPID, name: name}
	p.dispatchFn = func() { e.dispatch(p) }
	e.procs[p] = struct{}{}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					// next re-panics this value in the scheduler.
					panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
				}
			}
		}()
		fn(p)
	})
	// First activation is a normal scheduled event at the current time.
	e.schedule(e.now, p.dispatchFn)
	return p
}

// dispatch hands the CPU to p until it blocks or finishes. Called inside
// Await's start, p is the runner already, and the wake is only recorded.
func (e *Env) dispatch(p *Proc) {
	if p.awaiting {
		p.awaiting = false
		return
	}
	if _, ok := p.next(); !ok {
		delete(e.procs, p)
	}
}

// park blocks the calling process until some event dispatches it. Only
// Sleep and Await call it, from p's own body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killedError{})
	}
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Span returns the causal span the process is currently executing under
// (0 = none).
func (p *Proc) Span() uint64 { return p.span }

// SetSpan installs a causal span as the process's current context and
// returns the previous one so callers can restore it.
func (p *Proc) SetSpan(s uint64) (prev uint64) {
	prev = p.span
	p.span = s
	return prev
}

// Sleep suspends the process for d nanoseconds of virtual time. Negative
// durations sleep zero time but still yield to the scheduler.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p.dispatchFn)
	p.park()
}

// Await blocks the process on an event chain: it calls start with a wake
// callback and parks until the chain calls wake, once, from a later event.
// A chain that completes synchronously, calling wake inside start, lets
// Await return without parking or scheduling anything, just as a free
// resource claim falls through. A process therefore runs the same event
// chain as a pure event caller, not a process-side copy of it.
func (p *Proc) Await(start func(wake func())) {
	p.awaiting = true
	start(p.dispatchFn)
	if p.awaiting {
		p.awaiting = false
		p.park()
	}
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%d,%s)", p.pid, p.name) }
