package core

import (
	"fmt"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// partition owns a contiguous range of VPs and executes them one at a time,
// interleaved by virtual timestamps — the analogue of one native MPI
// process in xSim's oversubscribed execution. With Workers > 1 the engine
// runs partitions concurrently under conservative window synchronisation.
type partition struct {
	id  int
	eng *Engine

	// lo, hi delimit the owned rank range [lo, hi).
	lo, hi int

	eventQ eventHeap
	ready  readyHeap

	// cur holds the event being dispatched: it is copied out of eventQ
	// before its handler runs, because the handler emits and a push may
	// reuse the slot it was in. A field rather than a local so that handing
	// its address to a handler allocates nothing.
	cur Event

	// sctx is the partition's reusable handler context; it is passed to
	// every handler invocation, valid only for the duration of the call.
	sctx SchedCtx

	// crossOut buffers events destined for other partitions during a
	// window. At the window barrier each buffer is swapped (not copied)
	// into the destination partition's inbox slot.
	crossOut [][]Event

	// inbox[src] is the buffer partition src published for this
	// partition in the current round; it is drained into eventQ after
	// the exchange barrier. Buffers ping-pong between crossOut and inbox
	// so the steady-state exchange allocates nothing.
	inbox [][]Event

	// watermark is the virtual time of the item currently being
	// processed; wakes and handler emissions must not go backwards past
	// it (that would break deterministic global time order).
	watermark vclock.Time

	// horizon bounds the window being processed: items strictly before it
	// are safe. processWindow sets it and re-reads it per item, because a
	// cross-partition emission may lower it mid-window (parallel.go).
	horizon vclock.Time

	// seq numbers the engine's own pre-run events (ScheduleFailure).
	seq uint64

	live int // VPs not yet dead

	// validate mirrors Config.Validate: when set, the invariant checks in
	// this file and parallel.go are live; when clear they are single
	// untaken branches.
	validate bool

	// events and resumes count processed work items for the engine's
	// statistics; the remaining counters feed Engine.Metrics. All are
	// touched only by the partition's own worker.
	events      uint64
	resumes     uint64
	crossEvents uint64
	rounds      uint64
	widthSum    vclock.Duration

	// Carrier and program-mode lifecycle gauges (Engine.Metrics).
	carriersSpawned uint64
	carriersLive    int
	carriersHi      int
	progSteps       uint64
}

// handlerSrc returns the deterministic event source id for handler
// emissions on behalf of a rank (distinct from VP emissions, which use
// the rank itself, and from EngineSrc=-1): rank r maps to -2-r. Deriving
// the source from the rank rather than from the emitting partition keeps
// same-virtual-time tie-breaks identical at every worker count — with a
// partition-derived source, two handler emissions meeting in one queue at
// the same time would order by partition layout, which differs between
// the sequential and parallel engines.
func handlerSrc(rank int) int32 { return int32(-2 - rank) }

func (p *partition) owns(rank int) bool { return rank >= p.lo && rank < p.hi }

func (p *partition) nextSeq() uint64 {
	p.seq++
	return p.seq
}

// releaseQueues drops the storage of the partition's queues once the run
// is over. The event queue keeps a spare chunk and the ready heap grows to
// the partition's VP count; neither is needed to read the results, and
// kept they would be the largest block of dead memory a finished engine
// holds.
func (p *partition) releaseQueues() {
	p.eventQ.release()
	p.ready.a = nil
	p.cur = Event{}
	for i := range p.crossOut {
		p.crossOut[i] = nil
		p.inbox[i] = nil
	}
}

// localNext returns the earliest pending work item's virtual time, or
// vclock.Never if the partition is idle. Called only between windows (or
// before the first), when no VP is running.
func (p *partition) localNext() vclock.Time {
	next := vclock.Never
	if ev := p.eventQ.peek(); ev != nil {
		next = ev.Time
	}
	if re, ok := p.ready.peek(); ok && re.at < next {
		next = re.at
	}
	return next
}

// stopStrideMask throttles the cancellation poll inside a window: the
// atomic stop flag is read once per stopStrideMask+1 processed items, so
// the hot path pays one local counter increment and a predictable branch,
// while a cancelled sequential run (whose single window spans the whole
// simulation) still stops promptly.
const stopStrideMask = 1<<10 - 1

// processWindow processes all pending items with virtual time strictly
// before horizon, in deterministic (time, src, seq) order, preferring
// events over VP resumes on equal times. Items generated during the window
// that still fall before the horizon are processed too, and the horizon is
// re-read per item: a cross-partition emission lowers it (routeToPartition),
// so the window ends one lookahead past the earliest one. A Cancel observed
// mid-window returns early; the run is being torn down, so the unprocessed
// remainder of the window is irrelevant.
func (p *partition) processWindow(horizon vclock.Time) {
	p.horizon = horizon
	for n := uint(0); ; n++ {
		if n&stopStrideMask == 0 && p.eng.stop.Load() {
			return
		}
		next := p.eventQ.peek()
		re, haveReady := p.ready.peek()
		switch {
		case next != nil && next.Time < p.horizon && (!haveReady || next.Time <= re.at):
			ev := &p.cur
			p.eventQ.popInto(ev)
			if p.validate && ev.Time < p.watermark {
				check.Failf("watermark-monotonic", ev.Target, ev.Time, eventDesc(ev),
					"partition %d dispatched an event before its watermark %v", p.id, p.watermark)
			}
			p.watermark = ev.Time
			p.events++
			p.dispatch(ev)
		case haveReady && re.at < p.horizon:
			p.ready.pop()
			if p.validate && re.at < p.watermark {
				check.Failf("watermark-monotonic", re.rank, re.at, "",
					"partition %d resumed rank %d before its watermark %v", p.id, re.rank, p.watermark)
			}
			p.watermark = re.at
			p.resumes++
			p.resume(re.rank)
		default:
			return
		}
	}
}

// dispatch routes an event to its handler.
func (p *partition) dispatch(ev *Event) {
	switch ev.Kind {
	case kindFailure:
		p.handleFailureEvent(ev)
		return
	case kindTimer:
		v := &p.eng.vps[ev.Target]
		if v.state == vpBlocked && v.sleeping && ev.Words[0] == v.sleepSeq {
			p.wake(v, ev.Time, nil)
		}
		return
	}
	if int(ev.Kind) >= len(p.eng.handlers) || p.eng.handlers[ev.Kind] == nil {
		panic(fmt.Sprintf("core: no handler registered for event kind %d", ev.Kind))
	}
	p.eng.handlers[ev.Kind](&p.sctx, ev)
}

// handleFailureEvent activates a scheduled process failure. If the target
// VP is blocked it is woken so that the failure activates at the scheduled
// time; if it is ready or will run later, the time-of-failure field makes
// the failure activate at the VP's next clock update — the actual failure
// time is when the simulator regains control, at or after the scheduled
// time, exactly as in the paper.
func (p *partition) handleFailureEvent(ev *Event) {
	v := &p.eng.vps[ev.Target]
	if v.state == vpDead {
		return
	}
	if ev.Time < v.tof {
		v.tof = ev.Time
	}
	if v.state == vpBlocked {
		p.wake(v, ev.Time, nil)
	}
}

// wake moves a blocked VP to the ready heap. at is the logical wake time;
// the effective resume time also respects the VP's own clock and the
// partition watermark. The wake data is parked in the VP's own fields —
// nothing is allocated.
func (p *partition) wake(v *vp, at vclock.Time, val any) {
	if v.part != p {
		panic(fmt.Sprintf("core: partition %d woke rank %d owned by partition %d", p.id, v.rank, v.part.id))
	}
	if v.state != vpBlocked {
		panic(fmt.Sprintf("core: wake of rank %d in state %d", v.rank, v.state))
	}
	if p.validate && at < p.watermark {
		check.Failf("wake-monotonic", v.rank, at, "",
			"wake of rank %d at %v precedes partition %d's watermark %v", v.rank, at, p.id, p.watermark)
	}
	if at < p.watermark {
		at = p.watermark
	}
	v.state = vpReady
	v.wakeAt = at
	v.wakeVal = val
	p.ready.push(readyEntry{at: vclock.Max(at, v.clock), rank: v.rank})
}

// resume hands execution to a ready VP and waits for it to block or die.
// In program mode the step runs inline on the scheduler stack; in closure
// mode it is one call of the carrier's next (the wake data already sits in
// the VP's fields), which returns when the VP parks or dies, with a carrier
// created on the VP's first resume.
func (p *partition) resume(rank int) {
	v := &p.eng.vps[rank]
	clockBefore := v.clock
	var dead bool
	if p.eng.progMode() {
		dead = p.stepProgram(v)
	} else {
		if v.state == vpCreated {
			p.startVP(v)
		}
		if _, ok := v.car.next(); !ok {
			p.endCarrier(v)
			dead = true
		}
	}
	if p.validate && v.clock < clockBefore {
		check.Failf("clock-monotonic", rank, v.clock, "",
			"rank %d's clock moved backwards across a resume: %v -> %v", rank, clockBefore, v.clock)
	}
	if dead {
		p.live--
	}
}

// kill tears down a VP that is still alive at engine shutdown.
func (p *partition) kill(v *vp) {
	switch v.state {
	case vpDead:
		return
	case vpBlocked, vpCreated, vpReady:
	default:
		panic(fmt.Sprintf("core: kill of running rank %d", v.rank))
	}
	if v.state == vpCreated || p.eng.progMode() {
		// No stack to unwind: a never-started VP has no carrier (lazy
		// spawn) and a parked program is pure data. Mark it dead directly;
		// DeathKilled skips the death hook, so the outcome matches the
		// unwind path exactly.
		v.killed = true
		v.wakeVal = nil
		v.blockReason = nil
		v.death = DeathKilled
		v.deathTime = v.clock
		v.state = vpDead
		p.live--
		return
	}
	v.wakeVal = nil
	v.killed = true
	if _, ok := v.car.next(); ok {
		panic("core: killed VP yielded without dying")
	}
	p.endCarrier(v)
	p.live--
}

// BlockReasonString renders a Block reason (equally, a Program's park
// value) for a deadlock report or a layer's own diagnostic: plain strings
// pass through, and hot-path callers that parked with a lazy reason
// (anything implementing BlockReason() string) are formatted only here —
// never on the block fast path.
func BlockReasonString(r any) string {
	switch x := r.(type) {
	case nil:
		return ""
	case string:
		return x
	case interface{ BlockReason() string }:
		return x.BlockReason()
	default:
		return fmt.Sprint(x)
	}
}

// blockedReport describes the blocked VPs of this partition for deadlock
// diagnostics.
func (p *partition) blockedReport() []string {
	var out []string
	for r := p.lo; r < p.hi; r++ {
		v := &p.eng.vps[r]
		if v.state == vpBlocked {
			out = append(out, fmt.Sprintf("rank %d blocked at %v: %s", v.rank, v.clock, BlockReasonString(v.blockReason)))
		}
	}
	return out
}

// SchedCtx is the engine handle passed to event handlers. Handlers run in
// scheduler context: no VP of this partition is executing, so the handler
// may inspect and mutate the per-VP state of local VPs. The context is
// only valid for the duration of the handler call — handlers must not
// retain it (the engine reuses one SchedCtx per partition).
type SchedCtx struct {
	eng  *Engine
	part *partition
}

// Now returns the virtual time of the event being processed.
func (s *SchedCtx) Now() vclock.Time { return s.part.watermark }

// LocalRanks returns the rank range [lo, hi) owned by this partition.
func (s *SchedCtx) LocalRanks() (lo, hi int) { return s.part.lo, s.part.hi }

// Partition returns this partition's id (see Ctx.Partition).
func (s *SchedCtx) Partition() int { return s.part.id }

// Alive reports whether rank has not terminated. rank must be local.
func (s *SchedCtx) Alive(rank int) bool { return s.local(rank).state != vpDead }

// Blocked reports whether rank is parked in Block. rank must be local.
func (s *SchedCtx) Blocked(rank int) bool { return s.local(rank).state == vpBlocked }

// Data returns rank's attached per-VP state. rank must be local.
func (s *SchedCtx) Data(rank int) any { return s.local(rank).userData }

// Wake resumes a blocked local VP at virtual time at (clamped to the
// current event time), delivering val as Block's return value.
func (s *SchedCtx) Wake(rank int, at vclock.Time, val any) {
	s.part.wake(s.local(rank), at, val)
}

// SetAbortAt schedules rank's unwind for a simulated MPI abort at time t;
// it takes effect at the VP's next clock update. rank must be local.
func (s *SchedCtx) SetAbortAt(rank int, t vclock.Time) {
	v := s.local(rank)
	if t < v.abortAt {
		v.abortAt = t
	}
}

// EmitFor schedules an event from handler context on behalf of a local
// rank — the rank whose simulated activity (a matched receive, a
// rendezvous transfer, a timeout) the handler is performing. The event's
// deterministic ordering key derives from that rank (Src = handlerSrc,
// Seq from the rank's own sequence counter), never from the emitting
// partition, so same-virtual-time tie-breaks are identical at every
// worker count. Its Time must not precede the current event time, and
// cross-partition targets must respect the engine lookahead. The event
// value is copied into the destination queue, so the argument never
// escapes.
func (s *SchedCtx) EmitFor(onBehalf int, ev Event) {
	v := s.local(onBehalf)
	if ev.Time < s.part.watermark {
		check.Failf("emit-before-now", onBehalf, ev.Time, eventDesc(&ev),
			"handler on partition %d emitted an event before the current event time %v", s.part.id, s.part.watermark)
	}
	ev.Src = handlerSrc(onBehalf)
	ev.Seq = v.nextSeq()
	s.eng.route(s.part, s.part.watermark, &ev)
}

func (s *SchedCtx) local(rank int) *vp {
	v := &s.eng.vps[rank]
	if v.part != s.part {
		panic(fmt.Sprintf("core: partition %d accessed rank %d owned by partition %d", s.part.id, rank, v.part.id))
	}
	return v
}
