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
// with the scheduler. All blocking methods (Sleep, Resource.Acquire,
// Mailbox.Get, ...) must be called from the process's own body.
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
	// spawn. Every Sleep/unpark schedules it; caching it here keeps the
	// simulator's hottest path (hundreds of wake events per rank) from
	// allocating a fresh closure per event.
	dispatchFn func()

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

// dispatch hands the CPU to p until it blocks or finishes.
func (e *Env) dispatch(p *Proc) {
	if _, ok := p.next(); !ok {
		delete(e.procs, p)
	}
}

// park blocks the calling process until some event calls unpark (via
// dispatch). It must only be called from p's own body.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killedError{})
	}
}

// unpark schedules p to resume at the current virtual time.
func (p *Proc) unpark() { p.env.schedule(p.env.now, p.dispatchFn) }

// unparkAt schedules p to resume at instant at.
func (p *Proc) unparkAt(at Time) { p.env.schedule(at, p.dispatchFn) }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the process's unique id within its environment.
func (p *Proc) PID() int { return p.pid }

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
	p.unparkAt(p.env.now + d)
	p.park()
}

// Yield gives other ready processes a chance to run at the same instant.
func (p *Proc) Yield() { p.Sleep(0) }

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%d,%s)", p.pid, p.name) }
