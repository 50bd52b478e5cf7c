//go:build go1.23

package sim

import "iter"

// Proc is a coroutine process: model code that needs a thread-like control
// flow (the NetPIPE driver, an MPI rank, the firmware bring-up sequence)
// runs as a Proc. Each Proc is a standard-library coroutine (iter.Pull):
// wake switches into it and park switches back to whoever woke it, from
// whichever goroutine runs the simulator (a lane worker, say), so
// execution stays strictly sequential and deterministic. A Proc may only
// touch the simulator from its own body, through its methods and
// Signal.Wait. A panic in a process body propagates to the caller of Run;
// Close unwinds processes still parked when a simulator is abandoned.
type Proc struct {
	s      *Sim
	name   string
	idx    int // position in s.live; -1 once finished or stopped
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	wakeFn func() // p.wake bound once; Sleep runs hot, a fresh method value per call is measurable
}

// stopped is the sentinel panic that unwinds a process stopped by Close.
type stopped struct{}

// Go spawns fn as a coroutine process starting at the current virtual time.
// fn begins executing when the start event fires.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, idx: len(s.live)}
	s.live = append(s.live, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			s.drop(p)
			if r := recover(); r != nil && r != (stopped{}) {
				panic(r)
			}
		}()
		fn(p)
	})
	p.wakeFn = p.wake
	s.After(0, p.wakeFn)
	return p
}

// drop removes p from the live set, moving the last entry into its slot.
func (s *Sim) drop(p *Proc) {
	if i, n := p.idx, len(s.live)-1; i >= 0 {
		last := s.live[n]
		s.live[i], last.idx = last, i
		s.live[n], s.live, p.idx = nil, s.live[:n], -1
	}
}

// Close stops every live process: a parked body unwinds (its defers run)
// and one never started is discarded, so no goroutine keeps an abandoned
// simulator reachable. The simulator must not run again.
func (s *Sim) Close() {
	for len(s.live) > 0 {
		p := s.live[len(s.live)-1]
		s.drop(p)
		p.stop()
	}
}

// wake transfers control to the process and returns when it parks again
// (by sleeping, waiting, or finishing).
func (p *Proc) wake() {
	if p.idx < 0 {
		panic("sim: waking dead process " + p.name)
	}
	p.next()
}

// park returns control to the waker until the next wake; if Close stops
// the process meanwhile, it unwinds instead.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulator.
func (p *Proc) Sim() *Sim { return p.s }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Sleep advances virtual time by d for this process. Other events run in
// the meantime.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.s.After(d, p.wakeFn)
	p.park()
}

// Signal is a broadcast condition variable for coroutine processes and
// callback waiters. A typical use: a Portals event queue raises its signal
// when the firmware posts an event, waking a process blocked in PtlEQWait.
//
// Signal has no memory: a Raise with no waiters is lost. Users must re-check
// their predicate after waking (standard condition-variable discipline).
type Signal struct {
	s       *Sim
	procs   []*Proc
	callbks []func()

	// Drained waiter arrays from the last Raise, handed back to the live
	// slices so steady-state Wait/Notify never reallocates.
	procsSpare   []*Proc
	callbksSpare []func()
}

// NewSignal returns a signal bound to s.
func NewSignal(s *Sim) *Signal { return &Signal{s: s} }

// Wait blocks the calling process until the next Raise.
func (g *Signal) Wait(p *Proc) {
	g.procs = append(g.procs, p)
	p.park()
}

// WaitTimeout blocks the calling process until the next Raise or until d has
// elapsed, whichever comes first. It reports whether the signal was raised
// (false means timeout). Pass Never for no timeout.
func (g *Signal) WaitTimeout(p *Proc, d Time) bool {
	if d == Never {
		g.Wait(p)
		return true
	}
	raised := false
	fired := false
	// The timer and the raise race; whichever runs first wakes the process
	// and disarms the other.
	wakeOnce := func(byRaise bool) {
		if fired {
			return
		}
		fired = true
		raised = byRaise
		p.wake()
	}
	g.callbks = append(g.callbks, func() { wakeOnce(true) })
	g.s.After(d, func() { wakeOnce(false) })
	p.park()
	return raised
}

// Notify registers fn to be called (once, at Raise time) on the next Raise.
// It is the callback analogue of Wait.
func (g *Signal) Notify(fn func()) {
	g.callbks = append(g.callbks, fn)
}

// Raise wakes every current waiter. Processes are woken in the order they
// waited, at the current virtual time; callbacks run immediately.
// Waiters that arrive during Raise are not woken (they wait for the next
// Raise).
func (g *Signal) Raise() {
	procs := g.procs
	cbs := g.callbks
	// New waiters go into the spare arrays (ping-pong buffering). The spares
	// are nilled while we iterate so a nested Raise from a woken process
	// falls back to fresh slices instead of scribbling over this iteration.
	g.procs = g.procsSpare[:0]
	g.callbks = g.callbksSpare[:0]
	g.procsSpare = nil
	g.callbksSpare = nil
	for _, fn := range cbs {
		fn()
	}
	for _, p := range procs {
		p.wake()
	}
	for i := range procs {
		procs[i] = nil
	}
	for i := range cbs {
		cbs[i] = nil
	}
	g.procsSpare = procs[:0]
	g.callbksSpare = cbs[:0]
}
