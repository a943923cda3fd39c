package mpi

import (
	"fmt"
	"math/bits"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// CollectiveAlgo selects the collective communication algorithm.
type CollectiveAlgo int

const (
	// Linear collectives (the paper's configuration): the root
	// communicates with every other rank sequentially.
	Linear CollectiveAlgo = iota
	// Tree collectives use binomial trees, the usual optimisation; kept
	// for the collective-algorithm ablation.
	Tree
)

// String names the algorithm.
func (a CollectiveAlgo) String() string {
	if a == Tree {
		return "tree"
	}
	return "linear"
}

// WorldConfig parameterises the simulated MPI world.
type WorldConfig struct {
	// Net is the network model (required).
	Net *netmodel.Model
	// Proc is the processor model used by Env.Compute.
	Proc procmodel.Model
	// CallOverhead is the per-MPI-call CPU cost charged to the caller.
	CallOverhead vclock.Duration
	// Collectives selects the collective algorithm (default Linear, as
	// in the paper).
	Collectives CollectiveAlgo
	// FSStore and FSHierarchy expose the simulated parallel file system
	// to applications; FSStore may be nil if the application does no I/O.
	FSStore *fsmodel.Store
	// FSHierarchy describes the checkpoint storage and its costs: one
	// tier for a flat file system, several (node-local memory → burst
	// buffer → PFS) for staged writes. Empty means one free tier,
	// matching the paper's Table II configuration.
	FSHierarchy fsmodel.Hierarchy
	// Tracer, when set, receives one typed event per MPI operation
	// (sends, receive posts, completions, failures, detections, aborts)
	// for timeline analysis. Partitions record into it in parallel.
	Tracer *trace.Buffer
}

// trace records an event if tracing is enabled.
func (w *World) trace(ev trace.Event) {
	if w.cfg.Tracer != nil {
		w.cfg.Tracer.Record(ev)
	}
}

// World wires the simulated MPI layer into a core engine. Create the
// engine, then the world, then call World.Run with the application.
type World struct {
	cfg WorldConfig
	eng *core.Engine
	// validate compiles the MPI layer's internal invariant checks into
	// the run: posted-receive index consistency, unexpected-queue
	// conservation, a pending-request sweep at Finalize, and the
	// box-conservation sweep when a run ends cleanly (checkBoxes). It
	// follows the engine's Validate switch. A violation is a
	// *check.Violation naming the rank, operation and virtual time, and
	// becomes the run's error.
	validate bool
	// sweeps holds each rank's Validate-mode budget (checkOp), kept off
	// the Env; nil when Validate is off.
	sweeps []sweepBudget
	m      metrics
	// pools holds one data-plane pool per engine partition; a pool is
	// only touched by its partition's execution context (see pool.go).
	pools []*dpPool
	// boxShift is the number of low bits of a box handle that name the
	// owner partition (World.box).
	boxShift uint
}

// Event kinds registered by the MPI layer.
const (
	kindEnvelope core.Kind = core.FirstUserKind + iota
	kindCts
	kindData
	kindReqTimeout
	kindFailNotify
	kindAbortNotify
	kindRevoke
)

// NewWorld validates cfg, registers the MPI event handlers and death hook
// on eng, and returns the world.
func NewWorld(eng *core.Engine, cfg WorldConfig) (*World, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("mpi: WorldConfig.Net is required")
	}
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Proc.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.FSHierarchy) == 0 {
		cfg.FSHierarchy = fsmodel.Hierarchy{{}}
	}
	if err := cfg.FSHierarchy.Validate(); err != nil {
		return nil, err
	}
	if cfg.CallOverhead < 0 {
		return nil, fmt.Errorf("mpi: CallOverhead must be non-negative")
	}
	if cfg.Net.Topo.Nodes() < eng.NumVPs() {
		return nil, fmt.Errorf("mpi: topology has %d nodes for %d ranks (one rank per node)",
			cfg.Net.Topo.Nodes(), eng.NumVPs())
	}
	if eng.Workers() > 1 {
		la := eng.Lookahead()
		if minDelay := min(cfg.Net.System.Latency, cfg.Net.OnNode.Latency); la > minDelay {
			return nil, fmt.Errorf("mpi: engine lookahead %v exceeds minimum event delay %v", la, minDelay)
		}
	}
	w := &World{cfg: cfg, eng: eng, validate: eng.ValidateEnabled()}
	if w.validate {
		w.sweeps = make([]sweepBudget, eng.NumVPs())
	}
	w.m.failures = make(map[int]*failureRec)
	w.pools = make([]*dpPool, eng.Workers())
	for i := range w.pools {
		w.pools[i] = &dpPool{part: uint32(i)}
	}
	w.boxShift = uint(bits.Len(uint(len(w.pools) - 1)))
	eng.RegisterHandler(kindEnvelope, w.handleEnvelope)
	eng.RegisterHandler(kindCts, w.handleCts)
	eng.RegisterHandler(kindData, w.handleData)
	eng.RegisterHandler(kindReqTimeout, w.handleReqTimeout)
	eng.RegisterHandler(kindFailNotify, w.handleFailNotify)
	eng.RegisterHandler(kindAbortNotify, w.handleAbortNotify)
	eng.RegisterHandler(kindRevoke, w.handleRevoke)
	eng.OnDeath(w.onDeath)
	return w, nil
}

// Engine returns the underlying core engine.
func (w *World) Engine() *core.Engine { return w.eng }

// Config returns the world configuration.
func (w *World) Config() WorldConfig { return w.cfg }

// notifyDelay is the latency of simulator-internal failure, abort and
// revoke notifications: the system link latency, which is never below the
// engine lookahead.
func (w *World) notifyDelay() vclock.Duration { return w.cfg.Net.System.Latency }

// Run executes app once per simulated MPI process and drives the
// simulation to completion. An application that returns without calling
// Env.Finalize is treated as a process failure, mirroring the paper's
// fault model (returning from main or calling exit without MPI_Finalize).
func (w *World) Run(app func(*Env)) (*core.Result, error) {
	return w.checkRun(w.eng.Run(func(c *core.Ctx) {
		e := &Env{}
		e.init(w, c)
		app(e)
		if !e.finalized {
			c.Logf("exited without MPI_Finalize: simulated MPI process failure")
			c.FailNow()
		}
	}))
}

// checkRun runs the box-conservation sweep after a clean run in Validate
// mode, and makes a violation the run's error.
func (w *World) checkRun(res *core.Result, err error) (*core.Result, error) {
	if w.validate && err == nil {
		err = w.checkBoxes(res.MaxClock)
	}
	return res, err
}

// init wires up a (possibly embedded) Env in VP context.
func (e *Env) init(w *World, c *core.Ctx) {
	e.w, e.ctx = w, c
	e.world = Comm{env: e, id: 0, n: c.N(), rank: c.Rank()}
	e.dp = w.pools[c.Partition()]
	e.failBase = int32(len(e.dp.failed))
	e.cold = &noCold
	c.SetData(e)
}

// onDeath broadcasts the simulator-internal failure notification when a
// simulated MPI process fails: an informational message is printed, and
// every simulated process is notified of the failed rank and its time of
// failure so that it can maintain its own list of failed peers.
func (w *World) onDeath(c *core.Ctx, reason core.DeathReason) {
	// Whatever the death reason, the rank's queued unexpected envelopes
	// are unreachable now — release them and their payload buffers.
	if e, ok := c.Data().(*Env); ok {
		if w.validate {
			e.checkIndexes("death")
		}
		e.drainUnexpected()
		e.releaseIndexes()
	}
	if reason != core.DeathFailed {
		return
	}
	at := c.NowQuiet()
	c.Logf("simulated MPI process failure injected (rank %d, time of failure %v)", c.Rank(), at)
	w.trace(trace.Event{At: at, Kind: trace.KindFailure, Rank: int32(c.Rank()), Peer: -1})
	w.m.recordFailure(c.Rank(), at, at.Add(w.notifyDelay()))
	c.EmitBroadcast(core.Event{
		Time:  at.Add(w.notifyDelay()),
		Kind:  kindFailNotify,
		Words: [core.EventWords]uint64{uint64(c.Rank()), uint64(at)},
	})
}

// Env is one simulated MPI process: the handle its application calls and
// the MPI library state behind it, in one object that is also the core
// VP's data, where handlers find it. Only the owning partition touches it:
// the VP while it runs, or the partition's handlers. At a million ranks it
// is the per-VP memory bill, so every index starts empty and what few
// processes touch sits behind cold. An Env is never copied once in use: a
// posted receive's Request.postQ may point at one of its queues.
type Env struct {
	w   *World
	ctx *core.Ctx

	// dp is the data-plane pool of the partition this VP lives on,
	// shared by every local rank (only one of them executes at a time).
	dp *dpPool

	// Posted receives are indexed by (communicator, source) — a srcIndex,
	// whose inline tier is all most ranks use, since they only ever receive
	// from a handful of distinct sources — with wildcard-source receives in
	// a separate ordered intrusive list; request ids, issued at post time,
	// establish MPI's first-match-in-post-order rule across the two.
	posted     srcIndex[Request]
	postedWild list[Request]
	// Requests that have more to wait for once posted or matched — a
	// rendezvous send until its clear-to-send, a receive matched to a
	// rendezvous envelope until its data — thread through the pending
	// list, in filing order; a receive waiting for a match is in its
	// posted list instead, never in both (Env.incomplete collects the
	// two in id order). Handler lookups walk the list.
	pending list[Request]
	// failBase counts the partition's failure notifications from before
	// this state was built, which the process never received (failures).
	failBase int32
	// waiting is the wait the VP is currently parked in, nil when it is not
	// parked in one.
	waiting *WaitState
	// nextReqID numbers this VP's requests.
	nextReqID uint64
	// cold holds what only some processes ever touch: the shared, empty
	// noCold until the process first writes to it (coldRec).
	cold *procCold

	finalized bool
	// prog marks a process executing as a program VP (World.RunProgs): it
	// has no goroutine to park, so Block refuses with a typed
	// ClosureOnlyError.
	prog       bool
	nextCommID int32
	// scratch holds the step states the closure-mode blocking calls drive
	// (see closure); nil until the first call that has to park, so a
	// program VP, which parks through states of its own, never pays for it.
	scratch *closureScratch

	// world is the world communicator (id 0, every rank).
	world Comm
}

// procCold is the MPI state that a rank of the paper's halo exchange (but
// the barrier root) never touches: its receives are posted first, and it
// never probes, revokes, reduces or contends for its NIC.
type procCold struct {
	// Unexpected envelopes sit in a per-(comm, src) FIFO (unexp) and, at
	// the same time, in their communicator's arrival-order list (byComm,
	// one entry per communicator, few per rank); arriveSeq stamps arrival
	// order (used by validation and probes). unexpNow is the number
	// queued (the gauge behind the partition's high-water mark).
	unexp     srcIndex[envelope]
	byComm    []arrivalList
	arriveSeq uint64
	unexpNow  int
	// probe is the blocking probe the process is parked in, nil when it is
	// not parked in one (a process blocks in one call at a time).
	probe *probeRec
	// revoked communicator ids (ULFM extension).
	revoked map[int]bool
	// f64s is the collectives' per-process scratch for decoded operands
	// (see scratchF64); reused across reduction hops.
	f64s []float64
	// injectFreeAt and ejectFreeAt model endpoint contention: the
	// virtual times this node's NIC finishes its current injection and
	// ejection (used only when the network model enables contention).
	injectFreeAt vclock.Time
	ejectFreeAt  vclock.Time
}

// noCold is the cold record of every process without one of its own. It
// stays empty: it is only ever read, and every write goes through coldRec.
var noCold procCold

// coldRec returns the process's own cold record, allocating it on first use.
func (e *Env) coldRec() *procCold {
	if e.cold == &noCold {
		e.cold = new(procCold)
	}
	return e.cold
}

func (e *Env) newReqID() uint64 {
	e.nextReqID++
	return e.nextReqID
}

// closureScratch is the step state behind the closure-mode blocking calls:
// Env.wait, Comm.Probe and the collective methods are loops that run the
// same step functions a Prog does on these states and Block on the park
// values. A process blocks in one call at a time, so one of each suffices.
type closureScratch struct {
	wait  WaitState
	reqs  []*Request // the set wait waits on
	probe ProbeState
	coll  CollectiveState
}

// closure returns the process's closure-mode step states, allocating them
// on first use.
func (e *Env) closure() *closureScratch {
	if e.scratch == nil {
		e.scratch = new(closureScratch)
	}
	return e.scratch
}

// Block is the MPI layer's one blocking primitive. A blocking call is a
// loop: run the operation's step function (WaitStep, CollectiveStep,
// RestoreStep, a Prog's Step, ...) and, until it reports done, hand the
// park value it returned to Block, which parks the calling closure VP
// until a handler wakes it and returns the wake value. A program VP has no
// goroutine to park — it must return the park value from Prog.Step
// instead — so there Block panics with a *ClosureOnlyError naming the
// operation the park value describes.
func (e *Env) Block(park any) any {
	if e.prog {
		panic(&ClosureOnlyError{Op: core.BlockReasonString(park), Rank: e.Rank()})
	}
	return e.ctx.Block(park)
}

// RunProg drives p to completion on the calling closure VP: Step, Block on
// the park value, Step again with the wake value. It is how an application
// written once as a Prog also runs in closure mode (World.Run), where the
// scheduler does not step it; p must call Finalize before reporting done,
// as under RunProgs.
func (e *Env) RunProg(p Prog) {
	var wake any
	for {
		park, done := p.Step(e, wake)
		if done {
			return
		}
		wake = e.Block(park)
	}
}

// Rank returns the process's world rank.
func (e *Env) Rank() int { return e.ctx.Rank() }

// Size returns the world size (total simulated MPI processes).
func (e *Env) Size() int { return e.ctx.N() }

// World returns the world communicator (all ranks).
func (e *Env) World() *Comm { return &e.world }

// Now returns the process's virtual clock. Like a timing function in xSim
// (gettimeofday), it updates the clock and lets a pending failure or abort
// activate.
func (e *Env) Now() vclock.Time { return e.ctx.Now() }

// Elapse advances the virtual clock by d, modelling local computation.
func (e *Env) Elapse(d vclock.Duration) { e.ctx.Elapse(d) }

// Compute advances the virtual clock by the processor model's time for ops
// work units (reference-core cycles). An application that repeats the same
// work with nothing in between converts it once with ComputeTime and takes
// the whole run of repetitions in one ElapseSteps.
func (e *Env) Compute(ops float64) { e.ctx.Elapse(e.ComputeTime(ops)) }

// ComputeTime returns the processor model's time for ops work units,
// rounded to the clock's resolution, without advancing the clock.
func (e *Env) ComputeTime(ops float64) vclock.Duration { return e.w.cfg.Proc.ComputeTime(ops) }

// ElapseSteps advances the virtual clock as up to n consecutive Elapse(d)
// calls would, in O(1), and returns how many it took: fewer than n when a
// pending failure or abort activates at the end of that step. It does not
// unwind; the caller records its progress and then calls Elapse(0), the
// activation point. See core.Ctx.ElapseSteps.
func (e *Env) ElapseSteps(d vclock.Duration, n int) int { return e.ctx.ElapseSteps(d, n) }

// Sleep advances the virtual clock by d while yielding to the simulator
// (interruptible by failures and aborts, unlike Elapse): SleepStep driven
// on the calling closure VP.
func (e *Env) Sleep(d vclock.Duration) {
	var ss SleepState
	for {
		done, park := e.SleepStep(&ss, d)
		if done {
			return
		}
		e.Block(park)
	}
}

// Finalize marks a clean MPI exit. Applications that return without
// calling it are treated as failed processes. In Validate mode it also
// runs the conservation sweep: a clean exit must leave no pending
// requests, no posted receives, no outstanding probes, and an unexpected
// queue consistent with its depth gauge.
func (e *Env) Finalize() {
	if e.w.validate && !e.finalized {
		e.checkFinalize()
	}
	if !e.finalized {
		// Unmatched messages are unreachable after a clean exit: release
		// the envelopes and their payload buffers back to the pool.
		e.drainUnexpected()
	}
	e.finalized = true
}

// Finalized reports whether Finalize was called.
func (e *Env) Finalized() bool { return e.finalized }

// Abort aborts the simulated application from this process (MPI_Abort on
// the world communicator). It does not return.
func (e *Env) Abort(code int) { e.world.Abort(code) }

// FailedPeers returns a snapshot of this process's failed-peer list as a
// map from world rank to time of failure. The list belongs to the
// partition: one table holds every notification its ranks received, and
// a process reads the entries that arrived after its state was built.
func (e *Env) FailedPeers() map[int]vclock.Time {
	out := make(map[int]vclock.Time)
	for _, f := range e.failures() {
		out[f.rank] = f.tof
	}
	return out
}

// PeerFailed reports whether this process has been notified of the given
// world rank's failure. It is the allocation-free form of FailedPeers for
// hot paths that only test one peer's liveness (the redundancy layer's
// failover checks).
func (e *Env) PeerFailed(rank int) bool {
	_, dead := e.failedAt(rank)
	return dead
}

// FSStore returns the simulated parallel file system contents (nil if the
// world was configured without one).
func (e *Env) FSStore() *fsmodel.Store { return e.w.cfg.FSStore }

// FSHierarchy returns the checkpoint storage hierarchy: at least one
// tier, the last one durable.
func (e *Env) FSHierarchy() fsmodel.Hierarchy { return e.w.cfg.FSHierarchy }

// Logf writes an informational message through the simulator's logger.
func (e *Env) Logf(format string, args ...any) { e.ctx.Logf(format, args...) }

// chargeCall charges the per-call CPU overhead; every MPI call is a clock
// update point where pending failures and aborts activate. It stays out of
// line: inlined, its unwind paths add 32 B to the frame of every send,
// receive and wait, which sit under the event push on a closure carrier's
// stack and take it past 4 KiB (BenchmarkHaloStackPerVP).
//
//go:noinline
func (e *Env) chargeCall() { e.ctx.Elapse(e.w.cfg.CallOverhead) }
