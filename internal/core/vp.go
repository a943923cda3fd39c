package core

import (
	"fmt"
	"runtime/debug"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// DeathReason records why a VP stopped executing.
type DeathReason int

const (
	// DeathCompleted means the VP body returned normally.
	DeathCompleted DeathReason = iota
	// DeathFailed means the VP's scheduled (or self-triggered) process
	// failure activated.
	DeathFailed
	// DeathAborted means the VP unwound due to a simulated MPI abort.
	DeathAborted
	// DeathKilled means the engine tore the VP down at shutdown (e.g.
	// after a deadlock was detected).
	DeathKilled
	// DeathPanicked means the VP body panicked with a real error.
	DeathPanicked
)

// String returns a human-readable reason.
func (r DeathReason) String() string {
	switch r {
	case DeathCompleted:
		return "completed"
	case DeathFailed:
		return "failed"
	case DeathAborted:
		return "aborted"
	case DeathKilled:
		return "killed"
	case DeathPanicked:
		return "panicked"
	default:
		return fmt.Sprintf("DeathReason(%d)", int(r))
	}
}

// Unwind sentinels. VP unwinding uses panic/recover internally: the
// sentinel propagates out of arbitrarily nested application code to the VP
// wrapper, which classifies it. Application code must not recover() across
// simulator calls.
type unwindSentinel struct{ reason DeathReason }

// vpState tracks where a VP is in its lifecycle.
type vpState int

const (
	vpCreated vpState = iota // never executed: pure data, no carrier
	vpRunning                // currently executing (its partition's turn)
	vpReady                  // resumable, waiting in the ready heap
	vpBlocked                // waiting for a Wake
	vpDead                   // terminated
)

// vp is one simulated MPI process (virtual process). All fields are owned
// by the VP's partition: they are touched either by the VP goroutine while
// it runs (its partition's scheduler is parked) or by the partition
// scheduler while the VP is not running.
type vp struct {
	rank  int
	part  *partition
	clock vclock.Time

	// tof is the scheduled time of failure (earliest failure time); the
	// VP actually fails at the first clock update at or after tof. Never
	// means the VP never fails — the paper initialises this to "fail
	// never" on startup.
	tof vclock.Time
	// abortAt is the time of a pending simulated MPI abort, or Never.
	abortAt vclock.Time

	state vpState
	// blockReason is the value passed to Block, rendered only if a
	// deadlock report is ever printed: a string, or a value implementing
	// BlockReason() string for callers that want to avoid formatting a
	// reason on every block (see BlockReasonString).
	blockReason any

	// car is the carrier currently executing this VP's body, nil when the
	// VP has none (never started, program-mode, or dead). Block parks the
	// VP by yielding from the carrier's coroutine.
	car *carrier
	// prog is the VP's resumable program in RunPrograms mode, created
	// lazily at the first step.
	prog Program

	// wakeAt, wakeVal, killed carry the resume data while the VP sits in
	// the ready heap: clock becomes max(clock, wakeAt), wakeVal is
	// returned from Block, and killed tears the VP down instead of
	// resuming it. Plain fields instead of a heap-allocated message keep
	// the block/wake cycle allocation-free.
	wakeAt  vclock.Time
	wakeVal any
	killed  bool

	death     DeathReason
	deathTime vclock.Time
	panicVal  any
	panicMsg  string

	// sleeping and sleepSeq guard Ctx.Sleep against stale timer events
	// (a timer for a sleep the VP already left must be dropped).
	sleeping bool
	sleepSeq uint64

	// waited accumulates virtual time spent blocked or advanced to
	// operation completions; the rest of the clock's advance since start
	// is busy time (Elapse/Compute and charged I/O). The power model
	// turns the two into energy.
	waited vclock.Duration

	// seq numbers this VP's emitted events for deterministic ordering.
	seq uint64
	// userData holds the higher layer's (MPI) per-VP state.
	userData any

	// ctx is the VP's durable simulator handle (it only holds the engine
	// and a self-pointer, both fixed for the run); keeping it in the flat
	// VP slab means bodies, programs and death hooks share one Ctx without
	// a per-call allocation.
	ctx Ctx
}

func (v *vp) nextSeq() uint64 {
	v.seq++
	return v.seq
}

// checkUnwind activates a pending failure or abort if the VP's clock has
// reached it. It must be called from VP context after every clock update —
// this is the paper's activation rule: a scheduled failure activates when
// the targeted process executes, updates its clock, and the clock reaches
// or passes the time of failure.
func (v *vp) checkUnwind() {
	failPending := v.clock >= v.tof
	abortPending := v.clock >= v.abortAt
	switch {
	case failPending && abortPending:
		// Both thresholds crossed: the earlier-scheduled one wins.
		if v.tof <= v.abortAt {
			panic(unwindSentinel{DeathFailed})
		}
		panic(unwindSentinel{DeathAborted})
	case failPending:
		panic(unwindSentinel{DeathFailed})
	case abortPending:
		panic(unwindSentinel{DeathAborted})
	}
}

// Ctx is the simulator handle passed to application (and MPI layer) code
// running inside a VP. All methods must be called from the VP's own
// goroutine.
type Ctx struct {
	eng *Engine
	vp  *vp
}

// Rank returns the VP's rank.
func (c *Ctx) Rank() int { return c.vp.rank }

// N returns the total number of VPs in the simulation.
func (c *Ctx) N() int { return len(c.eng.vps) }

// Now returns the VP's virtual clock. Reading the clock is a clock update
// point: like xSim's handling of timing functions (gettimeofday), it lets
// the simulator regain control, so a pending failure or abort activates
// here.
func (c *Ctx) Now() vclock.Time {
	c.vp.checkUnwind()
	return c.vp.clock
}

// NowQuiet returns the VP's virtual clock without giving the simulator a
// chance to activate failures. The MPI layer uses it for internal
// bookkeeping timestamps.
func (c *Ctx) NowQuiet() vclock.Time { return c.vp.clock }

// Elapse advances the VP's virtual clock by d, modelling computation or
// other local activity. Negative durations are ignored. The clock update
// is an activation point for pending failures and aborts. A run of equal
// clock updates with nothing between them — the iterations of a compute
// phase — is one ElapseSteps call instead of a loop over Elapse.
func (c *Ctx) Elapse(d vclock.Duration) {
	if d > 0 {
		if uint64(d) >= c.vp.room() {
			c.vp.overflow(d, 1)
		}
		c.vp.clock = c.vp.clock.Add(d)
	}
	c.vp.checkUnwind()
}

// room is how far the VP's clock may still advance before it reaches
// vclock.Never, exact for any clock in unsigned arithmetic.
func (v *vp) room() uint64 { return uint64(vclock.Never) - uint64(v.clock) }

// overflow unwinds the VP for asking to advance its clock by steps × d to
// or past vclock.Never (ErrClockOverflow).
func (v *vp) overflow(d vclock.Duration, steps int) {
	adv := d.String()
	if steps > 1 {
		adv = fmt.Sprintf("%d × %v", steps, d)
	}
	panic(clockOverflow{fmt.Errorf("%w: rank %d at %v + %s", ErrClockOverflow, v.rank, v.clock, adv)})
}

// ElapseSteps is up to n consecutive Elapse(d) calls in O(1). It advances
// the clock by taken × d and returns taken: n, or fewer when a pending
// failure or abort would have unwound the VP inside the loop, in which case
// the taken-th step is the one whose clock update reaches it (the first at
// or past the earlier of the two times, found by one ceiling division). The
// total is a multiple of the already-rounded d, so clocks are bit-identical
// to the loop's.
//
// Like Elapse it unwinds the VP with ErrClockOverflow if the taken steps
// would carry the clock to vclock.Never. Unlike Elapse it is not itself an
// activation point: the caller first records what the taken steps were (an
// iteration count, a tracker) and then calls Elapse(0), where the VP
// unwinds at exactly the clock, and with exactly the record, the loop's
// last Elapse would have left.
func (c *Ctx) ElapseSteps(d vclock.Duration, n int) (taken int) {
	v := c.vp
	if n <= 0 {
		return 0
	}
	taken = min(n, vclock.StepsToReach(v.clock, d, vclock.Min(v.tof, v.abortAt)))
	if d > 0 {
		// taken × d < room, tested without forming the product.
		if uint64(d) > (v.room()-1)/uint64(taken) {
			v.overflow(d, taken)
		}
		v.clock = v.clock.Add(vclock.Duration(taken) * d)
	}
	return taken
}

// Sleep advances the VP's virtual clock by d while yielding to the
// simulator, unlike Elapse: events due before the deadline (message
// arrivals, failure activations, aborts) are processed in virtual-time
// order while the VP sleeps, so a sleeping VP fails or aborts at the
// scheduled time rather than at the end of the phase. Use Elapse to model
// native computation (the simulator cannot regain control mid-compute) and
// Sleep for interruptible waiting. It is SleepPark driven on a carrier:
// arm the timer, block on the park value.
func (c *Ctx) Sleep(d vclock.Duration) {
	if park, ok := c.SleepPark(d); ok {
		c.Block(park)
	}
}

// SleepPark is the one body of a sleep: it schedules the timer event that
// will wake the VP after d and returns the park value to block on (a
// closure VP passes it to Block, a Program returns it from Step) with ok
// true. For d <= 0 it returns (nil, false) after an activation check — the
// sleep has already elapsed and the caller continues without parking. The
// resume (Block's return, or the scheduler's next Step) clears the
// sleeping flag, which guards against stale timers from abandoned sleeps.
func (c *Ctx) SleepPark(d vclock.Duration) (park any, ok bool) {
	v := c.vp
	if d <= 0 {
		v.checkUnwind()
		return nil, false
	}
	if uint64(d) >= v.room() {
		v.overflow(d, 1)
	}
	v.sleepSeq++
	// The timer generation rides in the event's first scalar word.
	c.Emit(Event{Time: v.clock.Add(d), Kind: kindTimer, Target: v.rank, Words: [EventWords]uint64{v.sleepSeq}})
	v.sleeping = true
	return "sleep", true
}

// AdvanceTo moves the VP's clock forward to t if t is later (e.g. to the
// completion time of an already-completed request). Like Elapse, it is an
// activation point for pending failures and aborts.
func (c *Ctx) AdvanceTo(t vclock.Time) {
	if t > c.vp.clock {
		c.vp.waited += t.Sub(c.vp.clock)
		c.vp.clock = t
	}
	c.vp.checkUnwind()
}

// AbortNow unwinds this VP as part of a simulated MPI abort at its current
// clock. It does not return.
func (c *Ctx) AbortNow() {
	c.vp.abortAt = c.vp.clock
	panic(unwindSentinel{DeathAborted})
}

// Block parks the VP until a handler wakes it via SchedCtx.Wake. It
// returns the value passed to Wake after advancing the clock to the wake
// time; the resume is an activation point. The reason appears in deadlock
// reports: pass a string, or — on hot paths that must not pay for
// formatting a reason that is almost never read — any value implementing
// BlockReason() string, which is rendered lazily only if a report is
// printed.
func (c *Ctx) Block(reason any) any {
	v := c.vp
	cr := v.car
	if cr == nil {
		// Program VPs have no coroutine to park: they must park by
		// returning from Step. A blocking call reaching here is a
		// programming error.
		panic(fmt.Sprintf("core: rank %d called Block from a program VP (park by returning from Program.Step)", v.rank))
	}
	v.state = vpBlocked
	v.blockReason = reason
	cr.yield(struct{}{}) // back to the scheduler until SchedCtx.Wake's resume
	if v.killed {
		panic(unwindSentinel{DeathKilled})
	}
	val := v.resumed()
	v.checkUnwind()
	return val
}

// resumed is the wake side of a park, for both drivers (Block on a carrier,
// stepProgram on the scheduler stack): the VP runs again, its block reason
// and sleeping flag are cleared (the latter guards against stale timers
// from abandoned sleeps), and its clock advances to the wake time, the
// difference counted as waited. It returns the waker's value.
func (v *vp) resumed() any {
	v.state = vpRunning
	v.blockReason = nil
	v.sleeping = false
	val := v.wakeVal
	v.wakeVal = nil // don't retain the value past this resume
	if v.wakeAt > v.clock {
		v.waited += v.wakeAt.Sub(v.clock)
		v.clock = v.wakeAt
	}
	return val
}

// Emit schedules an event. The event's Src and Seq are assigned by the
// engine; its Time must not be before the VP's current clock, and events
// that cross partitions must respect the engine's lookahead (Time at least
// clock+lookahead) — both are programming errors that panic. The event
// value is copied into the destination partition's queue, so the argument
// never escapes and emission allocates nothing beyond the queue's own
// amortised growth.
func (c *Ctx) Emit(ev Event) {
	v := c.vp
	if ev.Time < v.clock {
		check.Failf("emit-before-now", v.rank, ev.Time, eventDesc(&ev),
			"rank %d emitted an event before its clock %v", v.rank, v.clock)
	}
	ev.Src = int32(v.rank)
	ev.Seq = v.nextSeq()
	c.eng.route(v.part, v.clock, &ev)
}

// EmitBroadcast schedules one copy of ev per partition with Target set to
// BroadcastTarget. The same lookahead rule applies for remote partitions.
func (c *Ctx) EmitBroadcast(ev Event) {
	v := c.vp
	if ev.Time < v.clock {
		check.Failf("emit-before-now", v.rank, ev.Time, eventDesc(&ev),
			"rank %d broadcast an event before its clock %v", v.rank, v.clock)
	}
	ev.Target = BroadcastTarget
	ev.Src = int32(v.rank)
	for _, p := range c.eng.parts {
		ev.Seq = v.nextSeq()
		c.eng.routeToPartition(v.part, v.clock, p, &ev)
	}
}

// FailNow triggers an immediate process failure of this VP: the unwind
// path for an application that returns without calling Finalize. A
// failure scheduled ahead of time enters through Engine.ScheduleFailure
// instead, whose event wakes a blocked VP at its time of failure.
func (c *Ctx) FailNow() {
	c.vp.tof = c.vp.clock
	panic(unwindSentinel{DeathFailed})
}

// Data returns the higher layer's per-VP state attached with SetData.
func (c *Ctx) Data() any { return c.vp.userData }

// SetData attaches per-VP state for the higher layer.
func (c *Ctx) SetData(d any) { c.vp.userData = d }

// Logf writes an informational message through the engine's logger,
// prefixed with the VP's rank and clock. With no logger configured it
// returns before formatting anything — mirroring the lazy BlockReason
// discipline, callers may log on hot paths without paying for Sprintf.
func (c *Ctx) Logf(format string, args ...any) {
	if c.eng.cfg.Logf == nil {
		return
	}
	c.eng.logf("[rank %d @ %v] %s", c.vp.rank, c.vp.clock, fmt.Sprintf(format, args...))
}

// Partition returns the id of the partition that owns this VP. Partition
// assignment is fixed for the run, so higher layers may key
// partition-local storage (free lists, scratch buffers) by it.
func (c *Ctx) Partition() int { return c.vp.part.id }

// finishDeath classifies a VP's termination from the recover() outcome r
// (nil for a normal return) and runs the death hook. It is the single
// death path shared by carrier-executed bodies (carrier.go) and scheduler-
// stepped programs (program.go).
func (v *vp) finishDeath(eng *Engine, r any) {
	switch s := r.(type) {
	case nil:
		v.death = DeathCompleted
	case unwindSentinel:
		v.death = s.reason
	case clockOverflow: // a typed outcome, returned by Run without a stack
		v.death = DeathPanicked
		v.panicVal = s
	default:
		v.death = DeathPanicked
		v.panicVal = r
		v.panicMsg = fmt.Sprintf("rank %d panicked: %v\n%s", v.rank, r, debug.Stack())
	}
	v.deathTime = v.clock
	v.state = vpDead
	v.blockReason = nil
	if v.death != DeathKilled && eng.onDeath != nil {
		// Death bookkeeping (dropping queued messages, broadcasting
		// the failure notification) runs in VP context so it can
		// emit events on the VP's behalf.
		func() {
			defer func() {
				if r2 := recover(); r2 != nil {
					v.panicMsg = fmt.Sprintf("rank %d death hook panicked: %v\n%s", v.rank, r2, debug.Stack())
					if v.death != DeathPanicked {
						v.death = DeathPanicked
						v.panicVal = r2
					}
				}
			}()
			eng.onDeath(&v.ctx, v.death)
		}()
	}
}
