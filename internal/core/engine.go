// Package core implements the heart of the simulator: a deterministic
// discrete-event engine that executes simulated MPI processes (virtual
// processes, VPs) as cooperatively scheduled goroutines with per-VP virtual
// clocks.
//
// The execution model mirrors xSim's: each VP runs application code
// natively and yields to the simulator only when it blocks in a receive or
// performs a simulator-internal function; the simulator interleaves VPs by
// message receive timestamps. With Workers > 1, VPs are partitioned across
// worker goroutines (the analogue of xSim's native MPI processes) that
// synchronise through conservative safe windows bounded by the
// cross-partition lookahead, so parallel runs produce results identical to
// sequential ones.
//
// Process failures follow the paper's semantics: each VP carries a time of
// failure (initialised to "fail never"); a scheduled failure activates when
// the VP next updates its clock at or past that time, i.e. the scheduled
// time is the earliest failure time and the actual failure time is when the
// simulator regains control.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// ErrStopped is wrapped by the error Run returns when the run was cut
// short by Cancel: the engine stopped at a window boundary, tore down the
// surviving VPs, and the Result holds the partial state.
var ErrStopped = errors.New("core: run cancelled")

// panicError is the error Run returns when a VP body panicked: the rank,
// the panic value and the stack as text, and, when the body panicked with
// an error (an application refusing its configuration with a typed one),
// that error underneath for errors.As.
type panicError struct {
	msg string
	val any
}

func (e *panicError) Error() string { return "core: " + e.msg }

func (e *panicError) Unwrap() error {
	err, _ := e.val.(error)
	return err
}

// ErrDeadlock is wrapped by the error Run returns when the simulation
// ended with live VPs blocked forever.
var ErrDeadlock = errors.New("core: deadlock detected")

// ErrClockOverflow is wrapped by the error Run returns when a VP asked to
// advance its clock (Elapse, ElapseSteps, or a sleep's timer) to or past
// the end of virtual time, vclock.Never. The VP dies where it asked; the
// others run on and are torn down as at any run end.
var ErrClockOverflow = errors.New("core: clock overflow")

// clockOverflow is the panic value that unwinds such a VP, carrying the
// error Run returns: the rank, its clock and the advance it asked for.
type clockOverflow struct{ err error }

// Config parameterises an Engine.
type Config struct {
	// NumVPs is the number of simulated MPI processes.
	NumVPs int
	// Workers is the number of partitions executing VPs. 1 (the default
	// when zero) is fully sequential; larger values run partitions
	// concurrently under conservative window synchronisation.
	Workers int
	// Lookahead is the minimum virtual delay of any cross-partition
	// event, required when Workers > 1. Higher layers must never emit a
	// cross-partition event closer than this to the emitting VP's clock;
	// the network model's minimum link latency is the natural choice.
	Lookahead vclock.Duration
	// StartClock initialises every VP's clock, supporting continuous
	// virtual time across simulated application restarts (the paper's
	// exit-time file).
	StartClock vclock.Time
	// Logf, when non-nil, receives the simulator's informational
	// messages (failure injections, aborts, shutdown statistics).
	Logf func(format string, args ...any)
	// Validate compiles the engine's internal invariant checks into the
	// run: per-VP clock monotonicity across resumes, monotonic partition
	// watermarks, wake ordering, and parallel-window horizon safety.
	// A violation panics with a *check.Violation naming the VP, event and
	// virtual time. When false the checks reduce to an untaken branch on
	// the hot paths (no allocation, no work).
	Validate bool
}

// Handler processes events of a registered kind in scheduler context.
type Handler func(*SchedCtx, *Event)

// Engine drives one simulation run.
type Engine struct {
	cfg Config
	// vps is the flat backing array of all VPs: one contiguous value slab
	// instead of a pointer-per-VP table, so a million-rank world costs one
	// allocation and no per-VP pointer chasing. Addresses into it are
	// stable (the slice is never grown), so &e.vps[r] may be retained.
	vps   []vp
	parts []*partition
	// handlers is indexed by Kind — a dense slice instead of a map keeps
	// the per-event dispatch to a bounds check and a load.
	handlers []Handler
	onDeath  func(*Ctx, DeathReason)
	ran      bool

	// body is the closure-mode VP body (Run); progFor the program-mode
	// factory (RunPrograms). Exactly one is set for a run.
	body    func(*Ctx)
	progFor func(*Ctx) Program

	// round is the parallel window protocol's barrier (parallel.go): each
	// round passes it twice, once to fold per-partition next-item times
	// into the global (min1, argmin, min2) triple and once for the
	// cross-event exchange.
	round roundSync

	// stop is the cooperative cancellation flag (Cancel). Partitions poll
	// it at window boundaries and every stopStride processed items, so a
	// cancelled run returns within one simulation window. stopRound is
	// the per-round consensus derived from it by partition 0 under the
	// round barrier, so every worker observes the same decision in the
	// same round.
	stop      atomic.Bool
	stopRound bool
}

// Cancel requests a cooperative stop of a running simulation. It is safe
// to call from any goroutine, before, during, or after Run; the engine
// observes it at the next window boundary (or every stopStride processed
// items within a window), tears down the surviving VPs, and Run returns
// an error wrapping ErrStopped alongside the partial Result.
func (e *Engine) Cancel() { e.stop.Store(true) }

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.NumVPs <= 0 || cfg.NumVPs > maxVPs {
		return nil, fmt.Errorf("core: NumVPs must be in [1,%d], got %d", maxVPs, cfg.NumVPs)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: Workers must be positive, got %d", cfg.Workers)
	}
	if cfg.Workers > cfg.NumVPs {
		cfg.Workers = cfg.NumVPs
	}
	if cfg.Workers > 1 && cfg.Lookahead <= 0 {
		return nil, errors.New("core: Workers > 1 requires a positive Lookahead")
	}
	if cfg.StartClock < 0 {
		return nil, fmt.Errorf("core: StartClock must be non-negative, got %v", cfg.StartClock)
	}
	eng := &Engine{
		cfg:   cfg,
		vps:   make([]vp, cfg.NumVPs),
		parts: make([]*partition, cfg.Workers),
	}
	// Contiguous block partitioning: neighbouring ranks usually
	// communicate most, so blocks minimise cross-partition traffic.
	per := cfg.NumVPs / cfg.Workers
	extra := cfg.NumVPs % cfg.Workers
	lo := 0
	for i := range eng.parts {
		hi := lo + per
		if i < extra {
			hi++
		}
		p := &partition{
			id:       i,
			eng:      eng,
			lo:       lo,
			hi:       hi,
			crossOut: make([][]Event, cfg.Workers),
			inbox:    make([][]Event, cfg.Workers),
			live:     hi - lo,
			validate: cfg.Validate,
		}
		p.sctx = SchedCtx{eng: eng, part: p}
		eng.parts[i] = p
		for r := lo; r < hi; r++ {
			v := &eng.vps[r]
			v.rank = r
			v.part = p
			v.clock = cfg.StartClock
			v.tof = vclock.Never
			v.abortAt = vclock.Never
			// No carrier, no stack: a VP that has never executed is pure
			// data. Its first resume creates its carrier (carrier.go).
			v.ctx = Ctx{eng: eng, vp: v}
		}
		lo = hi
	}
	return eng, nil
}

// RegisterHandler installs the handler for an event kind. Kinds below the
// engine-reserved range or duplicate registrations panic (programming
// errors).
func (e *Engine) RegisterHandler(kind Kind, h Handler) {
	if kind < reservedKinds {
		panic(fmt.Sprintf("core: kind %d is reserved by the engine", kind))
	}
	for len(e.handlers) <= int(kind) {
		e.handlers = append(e.handlers, nil)
	}
	if e.handlers[kind] != nil {
		panic(fmt.Sprintf("core: duplicate handler for kind %d", kind))
	}
	e.handlers[kind] = h
}

// OnDeath installs a hook invoked in VP context when a VP terminates for
// any reason except an engine-shutdown kill. The MPI layer uses it to drop
// queued messages and broadcast failure notifications.
func (e *Engine) OnDeath(hook func(*Ctx, DeathReason)) { e.onDeath = hook }

// ScheduleFailure schedules a process failure of rank at virtual time t
// (the earliest failure time wins). It is the one way a scheduled failure
// enters a run: the failure event it pushes wakes a blocked VP at t, and
// a running VP fails at its first clock update at or past t. Must be
// called before Run.
func (e *Engine) ScheduleFailure(rank int, t vclock.Time) error {
	if e.ran {
		return errors.New("core: ScheduleFailure after Run")
	}
	if rank < 0 || rank >= len(e.vps) {
		return fmt.Errorf("core: failure rank %d out of range [0,%d)", rank, len(e.vps))
	}
	if t < e.cfg.StartClock {
		return fmt.Errorf("core: failure time %v precedes start clock %v", t, e.cfg.StartClock)
	}
	v := &e.vps[rank]
	if t < v.tof {
		v.tof = t
	}
	p := v.part
	p.eventQ.push(&Event{Time: t, Src: EngineSrc, Seq: p.nextSeq(), Kind: kindFailure, Target: rank})
	return nil
}

// Result summarises a simulation run.
type Result struct {
	// FinalClocks holds each VP's virtual clock at termination.
	FinalClocks []vclock.Time
	// Deaths holds each VP's termination reason.
	Deaths []DeathReason
	// Busy and Waited hold each VP's accumulated executing and blocked
	// virtual time (their sum is the VP's clock advance since start);
	// the power model turns them into energy.
	Busy   []vclock.Duration
	Waited []vclock.Duration
	// MinClock, MaxClock, AvgClock summarise the final clocks — the
	// per-process timing statistics xSim prints at shutdown. MaxClock is
	// the simulated time of the application exit, which the paper's
	// restart support persists to carry virtual time across runs.
	MinClock, MaxClock vclock.Time
	AvgClock           vclock.Time
	// Completed, Failed, Aborted count VPs by death reason.
	Completed, Failed, Aborted int
	// Deadlocked reports whether the run ended with live VPs blocked
	// forever; Blocked describes them.
	Deadlocked bool
	Blocked    []string
}

// Run executes body once per VP and drives the simulation to completion.
// It returns an error if the configuration was already consumed, a VP
// panicked, or the simulation deadlocked (the deadlock Result is still
// returned for inspection).
//
// No goroutine is spawned per VP up front: every VP starts as pure data in
// the ready heap, its first resume creates its carrier coroutine, and the
// carrier exits when the VP dies (carrier.go). Live goroutine count
// therefore scales with the VPs that have started and not yet died, not
// with world size.
func (e *Engine) Run(body func(*Ctx)) (*Result, error) {
	if e.ran {
		return nil, errors.New("core: engine can only run once")
	}
	e.ran = true
	e.body = body
	return e.run()
}

// RunPrograms executes one Program per VP and drives the simulation to
// completion. progFor is called once per VP, in VP context, at the VP's
// first execution. Program VPs never own a goroutine or a stack: a parked
// program is pure data, so this is the execution mode that scales to
// millions of VPs (see Program).
func (e *Engine) RunPrograms(progFor func(*Ctx) Program) (*Result, error) {
	if e.ran {
		return nil, errors.New("core: engine can only run once")
	}
	e.ran = true
	e.progFor = progFor
	return e.run()
}

// run is the shared driver behind Run and RunPrograms.
func (e *Engine) run() (*Result, error) {
	for i := range e.vps {
		v := &e.vps[i]
		v.wakeAt = e.cfg.StartClock
		v.part.ready.push(readyEntry{at: e.cfg.StartClock, rank: v.rank})
	}

	if len(e.parts) == 1 {
		e.parts[0].processWindow(vclock.Never)
	} else {
		e.runParallel()
	}

	// Termination, cancellation, or deadlock: any VP still alive either
	// was cut short by Cancel or is blocked forever. Nothing queued will be
	// processed any more.
	for _, p := range e.parts {
		p.releaseQueues()
	}
	cancelled := e.stop.Load()
	res := &Result{
		FinalClocks: make([]vclock.Time, len(e.vps)),
		Deaths:      make([]DeathReason, len(e.vps)),
		Busy:        make([]vclock.Duration, len(e.vps)),
		Waited:      make([]vclock.Duration, len(e.vps)),
	}
	alive := 0
	for _, p := range e.parts {
		if p.live > 0 {
			alive += p.live
			if !cancelled {
				res.Deadlocked = true
				res.Blocked = append(res.Blocked, p.blockedReport()...)
			}
		}
	}
	// Tear down surviving VPs. The kills are synchronous and a dead VP's
	// carrier has exited, so when run returns every coroutine is gone.
	for _, p := range e.parts {
		for r := p.lo; r < p.hi; r++ {
			p.kill(&e.vps[r])
		}
	}

	var firstPanic *vp
	res.MinClock = vclock.Never
	for i := range e.vps {
		v := &e.vps[i]
		res.FinalClocks[i] = v.clock
		res.Deaths[i] = v.death
		res.Busy[i] = v.clock.Sub(e.cfg.StartClock) - v.waited
		res.Waited[i] = v.waited
		switch v.death {
		case DeathCompleted:
			res.Completed++
		case DeathFailed:
			res.Failed++
		case DeathAborted:
			res.Aborted++
		case DeathPanicked:
			if firstPanic == nil {
				firstPanic = v
			}
		}
		if v.clock < res.MinClock {
			res.MinClock = v.clock
		}
		if v.clock > res.MaxClock {
			res.MaxClock = v.clock
		}
	}
	res.AvgClock = meanClock(res.FinalClocks)
	e.logf("[sim] shutdown: %d completed, %d failed, %d aborted; process times min %v max %v avg %v",
		res.Completed, res.Failed, res.Aborted, res.MinClock, res.MaxClock, res.AvgClock)

	if firstPanic != nil {
		if o, ok := firstPanic.panicVal.(clockOverflow); ok {
			return res, o.err
		}
		return res, &panicError{msg: firstPanic.panicMsg, val: firstPanic.panicVal}
	}
	if cancelled && alive > 0 {
		return res, fmt.Errorf("%w with %d VPs still alive at %v", ErrStopped, alive, res.MaxClock)
	}
	if res.Deadlocked {
		return res, fmt.Errorf("%w with %d blocked VPs:\n%s",
			ErrDeadlock, len(res.Blocked), strings.Join(res.Blocked, "\n"))
	}
	return res, nil
}

// meanClock is the floor of the clocks' mean. The sum is kept in 128 bits:
// a million VPs averaging past 8,796 s overflow an int64. n summands below
// 2^64 keep the high word below n, so Div64 cannot overflow.
func meanClock(clocks []vclock.Time) vclock.Time {
	var hi, lo, carry uint64
	for _, c := range clocks {
		lo, carry = bits.Add64(lo, uint64(c), 0)
		hi += carry
	}
	avg, _ := bits.Div64(hi, lo, uint64(len(clocks)))
	return vclock.Time(avg)
}

// route delivers a copy of an event emitted at senderClock by from's current
// VP or handler to the partition owning its target. A local target is
// answered from from's own rank range: reading the target's VP for its
// partition would be a cache miss per event at scale.
func (e *Engine) route(from *partition, senderClock vclock.Time, ev *Event) {
	if from.owns(ev.Target) {
		from.eventQ.push(ev)
		return
	}
	if ev.Target < 0 || ev.Target >= len(e.vps) {
		panic(fmt.Sprintf("core: event target %d out of range", ev.Target))
	}
	e.routeToPartition(from, senderClock, e.vps[ev.Target].part, ev)
}

// progMode reports whether this run executes Programs (RunPrograms) rather
// than goroutine bodies.
func (e *Engine) progMode() bool {
	return e.progFor != nil
}

// routeToPartition delivers a copy of an event to an explicit partition,
// enforcing the lookahead constraint for cross-partition delivery.
func (e *Engine) routeToPartition(from *partition, senderClock vclock.Time, to *partition, ev *Event) {
	if to == from {
		from.eventQ.push(ev)
		return
	}
	if ev.Time < senderClock.Add(e.cfg.Lookahead) {
		check.Failf("lookahead", ev.Target, ev.Time, eventDesc(ev),
			"cross-partition event from partition %d to %d violates lookahead %v from sender clock %v",
			from.id, to.id, e.cfg.Lookahead, senderClock)
	}
	from.crossEvents++
	from.crossOut[to.id] = append(from.crossOut[to.id], *ev)
	// A reply to this event can reach from no earlier than one lookahead
	// after it arrives: from's window must end there (parallel.go).
	if h := ev.Time.Add(e.cfg.Lookahead); h < from.horizon {
		from.horizon = h
	}
}

// NumVPs returns the number of simulated processes.
func (e *Engine) NumVPs() int { return len(e.vps) }

// Lookahead returns the configured cross-partition lookahead.
func (e *Engine) Lookahead() vclock.Duration { return e.cfg.Lookahead }

// Workers returns the number of partitions.
func (e *Engine) Workers() int { return len(e.parts) }

// ValidateEnabled reports whether the engine's invariant checks are
// compiled in; higher layers (MPI) inherit their own Validate mode from
// it.
func (e *Engine) ValidateEnabled() bool { return e.cfg.Validate }

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}
