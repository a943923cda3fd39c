package core

import (
	"iter"

	"xsim/internal/vclock"
)

// A carrier is a reusable coroutine that executes VP bodies. VPs no longer
// each own a goroutine for the whole run: a VP that has never started is
// pure data, and its first resume borrows a carrier from its partition's
// pool — spawning one only when the pool is empty. While the VP lives, the
// carrier's stack is the VP's stack (Block parks it by yielding from the
// coroutine, a direct switch back to the partition worker that never
// passes through the Go scheduler); when the VP dies, the carrier hands
// its stack off by looping back to the pool and adopting the next VP the
// scheduler assigns it.
//
// Live goroutine count therefore scales with started-and-not-yet-dead VPs
// rather than world size, and a run of run-to-completion bodies executes on
// a single carrier per partition. Bodies that park forever still pin one
// coroutine each — the Program execution mode (program.go) is the escape
// hatch that removes the stack entirely.
//
// next and yield are the two ends of the coroutine (iter.Pull over loop):
// the partition worker calls next to run the carrier until it parks or its
// VP dies, and the carrier calls yield to hand control back. A carrier is
// only ever resumed by its own partition's worker, or by the engine's
// teardown after every worker has returned, so next is never called
// concurrently.
type carrier struct {
	next  func() (yieldKind, bool)
	yield func(yieldKind) bool
	// v is the carrier's current assignment, written by the scheduler
	// before the next call that starts the adoption; nil is the shutdown
	// token (drainCarriers).
	v *vp
}

// loop is the carrier's coroutine body: it adopts VPs assigned by the
// scheduler until it receives the shutdown token. Every adoption ends in
// the same yield of yieldDead, so the scheduler cannot tell a fresh
// carrier from a recycled one.
func (cr *carrier) loop(yield func(yieldKind) bool) {
	cr.yield = yield
	for {
		v := cr.v
		if v == nil {
			return
		}
		v.state = vpRunning
		v.clock = vclock.Max(v.clock, v.wakeAt)
		cr.runBody(v)
		yield(yieldDead)
	}
}

// runBody executes one VP body to termination, classifying the outcome and
// running the death hook in the deferred recover (finishDeath).
func (cr *carrier) runBody(v *vp) {
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

// startVP gives a never-executed VP a carrier: the top of the partition's
// idle pool, or a fresh coroutine when the pool is empty. Called by the
// scheduler immediately before the first resume.
func (p *partition) startVP(v *vp) {
	var cr *carrier
	if n := len(p.idle) - 1; n >= 0 {
		cr = p.idle[n]
		p.idle[n] = nil
		p.idle = p.idle[:n]
		p.carrierReuses++
	} else {
		cr = &carrier{}
		// The method value is the coroutine body itself: a wrapper closure
		// would add a frame to every carrier's stack (see ci.sh's 8f gate).
		cr.next, _ = iter.Pull(cr.loop)
		p.carriersSpawned++
		p.carriersLive++
		if p.carriersLive > p.carriersHi {
			p.carriersHi = p.carriersLive
		}
	}
	cr.v = v
	v.car = cr
}

// recycleCarrier detaches a dead VP's carrier and returns it to the idle
// pool for the next startVP.
func (p *partition) recycleCarrier(v *vp) {
	cr := v.car
	if cr == nil {
		return
	}
	v.car = nil
	cr.v = nil
	p.idle = append(p.idle, cr)
	if len(p.idle) > p.carrierIdleHi {
		p.carrierIdleHi = len(p.idle)
	}
}

// drainCarriers retires every pooled carrier at engine teardown: resumed
// with the shutdown token, each coroutine returns from loop, so when this
// returns every carrier has exited and the partition's live-carrier gauge
// reads zero. Every carrier is guaranteed to be in the pool here — VP
// death (including the teardown kills) always recycles the carrier.
func (p *partition) drainCarriers() {
	for i, cr := range p.idle {
		if _, ok := cr.next(); ok {
			panic("core: drained carrier yielded without exiting")
		}
		p.carriersLive--
		p.idle[i] = nil
	}
	p.idle = p.idle[:0]
}
