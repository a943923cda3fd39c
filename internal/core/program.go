package core

import "xsim/internal/vclock"

// Program is the resumable state-machine execution mode: an alternative to
// a closure body for VPs whose control flow can be expressed as explicit
// steps between blocking points. A parked Program VP is pure data — no
// goroutine, no stack — which is what makes million-rank worlds fit in
// memory.
//
// Step is called on the scheduler's own stack every time the VP is resumed
// (and once for the initial start, with wake == nil). It runs the VP's
// logic up to the next blocking point and returns:
//
//   - (park, false) to block: the VP parks with park as its block reason
//     (rendered by deadlock reports exactly like a Block argument), and the
//     next Step receives the waker's wake value.
//   - (_, true) when the VP's work is complete (DeathCompleted).
//
// Inside Step the full Ctx API is available except Block itself — a
// Program parks by returning, and Ctx.Block panics with a diagnostic if
// called without a carrier. Blocking primitives are park-shaped instead:
// Ctx.SleepPark arms the sleep timer and hands back the park value to
// return from Step, and the MPI layer's step states (WaitState, RecvState,
// CollectiveState, ...) do the same for waits and collectives. Closure
// bodies run those same primitives and hand the park value to Block, so
// the two modes are digest-identical by construction. FailNow/Exitf/Abort
// work unchanged: they unwind via panic, which the scheduler recovers and
// classifies exactly as it does for carrier-run bodies.
type Program interface {
	Step(c *Ctx, wake any) (park any, done bool)
}

// stepProgram advances a Program VP by one Step on the scheduler stack,
// with the bookkeeping a carrier resume performs around Block. Returns
// true when the VP died (completed, failed, killed, or panicked).
func (p *partition) stepProgram(v *vp) bool {
	var wake any
	if v.state == vpCreated {
		// First entry: mirror the carrier's start preamble.
		v.state = vpRunning
		v.clock = vclock.Max(v.clock, v.wakeAt)
	} else {
		wake = v.resumed()
	}
	p.progSteps++
	park, done, died := p.runStep(v, wake)
	if died {
		v.prog = nil // a dead VP never steps again; free the program state
		return true
	}
	if done {
		v.finishDeath(p.eng, nil)
		v.prog = nil
		return true
	}
	v.state = vpBlocked
	v.blockReason = park
	return false
}

// runStep invokes Program.Step under the same recover/classify wrapper a
// carrier's run uses, so kills, failures, and stray panics inside a
// step land in the identical death taxonomy. died reports that the step
// unwound; park/done are only meaningful when it did not.
func (p *partition) runStep(v *vp, wake any) (park any, done bool, died bool) {
	defer func() {
		if r := recover(); r != nil {
			v.finishDeath(p.eng, r)
			died = true
		}
	}()
	if v.killed {
		panic(unwindSentinel{DeathKilled})
	}
	v.checkUnwind()
	if v.prog == nil {
		v.prog = p.eng.progFor(&v.ctx)
	}
	park, done = v.prog.Step(&v.ctx, wake)
	return park, done, false
}
