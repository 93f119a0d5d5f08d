package sim

// WaitGroup counts outstanding simulated tasks; Wait blocks a process until
// the count returns to zero. Deterministic analogue of sync.WaitGroup.
//
// Like Mailbox and Signal, a WaitGroup serves process waiters (Wait) and
// event-callback waiters (WaitThen) from one FIFO queue, and the zero-count
// wake is batched: one scheduled drain event releases every waiter in wait
// order, sequencing-identical to the retired one-unpark-event-per-waiter
// scheme (those events carried consecutive sequence numbers with nothing
// schedulable between them).
type WaitGroup struct {
	env     *Env
	count   int
	waiters []waiter
}

// NewWaitGroup returns a wait group bound to env.
func NewWaitGroup(env *Env) *WaitGroup { return &WaitGroup{env: env} }

// Add increments the task count by n (n may be negative; Done is Add(-1)).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 && len(wg.waiters) > 0 {
		ws := wg.waiters
		wg.waiters = nil
		wg.env.schedule(wg.env.now, func() {
			for _, w := range ws {
				w.serve(wg.env)
			}
		})
	}
}

// Done decrements the task count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, waiter{p: p})
		p.park()
	}
}

// WaitThen runs fn once the count returns to zero — synchronously when it
// already is (mirroring a process Wait that falls straight through),
// otherwise from the batched zero-count drain. The registration is one-shot:
// unlike Wait's re-check loop, fn runs even if an earlier waiter in the same
// drain re-raises the count (which matches the unconditional unparks of the
// retired scheme; join-style users never re-raise).
func (wg *WaitGroup) WaitThen(fn func()) {
	if wg.count == 0 {
		fn()
		return
	}
	wg.waiters = append(wg.waiters, waiter{fn: fn})
}
