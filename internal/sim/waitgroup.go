package sim

// WaitGroup counts outstanding simulated tasks; Wait blocks a process until
// the count returns to zero. Deterministic analogue of sync.WaitGroup. As
// with Signal, the zero-count wake is batched: one scheduled drain event
// releases every waiter in wait order.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
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
		wg.env.schedule(wg.env.now, func() { wg.env.dispatchAll(ws) })
	}
}

// Done decrements the task count.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks p until the count is zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, p)
		p.park()
	}
}
