package core

import (
	"iter"

	"xsim/internal/vclock"
)

// A carrier is the coroutine that executes one closure VP's body, created
// at the VP's first resume and exited when the body ends — the analogue of
// xSim's user-space thread that lives as long as its simulated process. A
// VP that has never started is pure data and owns no carrier. While the VP
// lives, the carrier's stack is the VP's stack: Block parks it by yielding
// from the coroutine, a direct switch back to the partition worker that
// never passes through the Go scheduler.
//
// Live goroutine count therefore scales with started-and-not-yet-dead VPs
// rather than world size, and a dead VP's stack is freed when it dies.
// Bodies that park forever still pin one coroutine each — the Program
// execution mode (program.go) is the escape hatch that removes the stack
// entirely.
//
// next and yield are the two ends of the coroutine (iter.Pull over run):
// the partition worker calls next to run the carrier until it parks
// (ok true) or its VP dies (ok false, the coroutine has exited), and the
// carrier calls yield to hand control back. A carrier is only ever resumed
// by its own partition's worker, or by the engine's teardown after every
// worker has returned, so next is never called concurrently.
type carrier struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	v     *vp
}

// run is the carrier's coroutine body: it executes its VP's body to
// termination, classifying the outcome and running the death hook in the
// deferred recover (finishDeath), and returns, which ends the coroutine.
func (cr *carrier) run(yield func(struct{}) bool) {
	cr.yield = yield
	v := cr.v
	v.state = vpRunning
	v.clock = vclock.Max(v.clock, v.wakeAt)
	e := v.ctx.eng
	defer func() {
		v.finishDeath(e, recover())
	}()
	if v.killed {
		panic(unwindSentinel{DeathKilled})
	}
	v.checkUnwind()
	e.body(&v.ctx)
}

// startVP gives a never-executed VP its carrier. Called by the scheduler
// immediately before the first resume.
func (p *partition) startVP(v *vp) {
	cr := &carrier{v: v}
	// The method value is the coroutine body itself: a wrapper closure
	// would add a frame to every carrier's stack (see ci.sh's 8f gate).
	cr.next, _ = iter.Pull(cr.run)
	v.car = cr
	p.carriersSpawned++
	p.carriersLive++
	if p.carriersLive > p.carriersHi {
		p.carriersHi = p.carriersLive
	}
}

// endCarrier detaches a dead VP's exited carrier.
func (p *partition) endCarrier(v *vp) {
	v.car = nil
	p.carriersLive--
}
