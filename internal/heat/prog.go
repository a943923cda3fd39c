package heat

import (
	"fmt"
	"sync"

	"xsim/internal/checkpoint"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// NewProg returns a program-mode factory for the heat application: the
// same heatRunner Run drives on a closure VP, stepped by the scheduler
// instead, so closure- and program-mode experiments produce the same
// virtual timelines by construction. Program mode is what lets the
// headline experiments run at 256k–1M ranks: a parked rank is its
// heatRunner, one object of at most 320 bytes holding its geometry, its
// file-system handle and its halo requests (TestHeatRunnerLayout), and
// its MPI process bundle and posted-receive block, instead of a
// goroutine stack.
func NewProg(cfg Config) func(rank int) mpi.Prog {
	// One shared, read-only Config for every rank: at a million VPs an
	// embedded copy per runner is ~180 bytes/rank for identical data.
	return func(rank int) mpi.Prog { return &heatRunner{state: state{cfg: &cfg}} }
}

// heatRunner phases, in control-flow order.
const (
	hpInit = iota
	hpRestore
	hpAfterRestore
	hpInitialHalo
	hpIterStart
	hpIterHalo
	hpMaybeCkpt
	hpBarrier
	hpFinish
)

// heatRunner is one rank's heat application — the only implementation of
// the application loop — as a resumable state machine. A million of them
// are parked at once, so a rank is this one object, and what it needs only
// inside one phase is held only there: the restore state while the
// restart read runs, the collective state while the barrier runs.
type heatRunner struct {
	state // its cfg is shared across ranks; read-only after NewProg
	pc    int

	fs            checkpoint.FS
	startIter     int
	restoreIter   int
	prevCkpt      int
	iter          int
	chain         []int
	incr          bool
	full          bool
	proactiveDone bool
	haloPosted    bool

	rs *checkpoint.RestoreState // non-nil while a restore runs
	// reqs is the halo exchange's one request list, receives first, in
	// directions order, then sends; ws waits on it in place.
	reqs [2 * len(directions)]*mpi.Request
	ws   mpi.WaitState
	cs   *mpi.CollectiveState // non-nil while a barrier runs
}

// collStates recycles the barrier's collective state: every rank holds one
// from BeginBarrier until it leaves the barrier, and the next barrier
// takes it again instead of allocating a million of them. A state is
// zeroed before it goes back: the pool is shared by every world and
// goroutine, and the wait sets inside it would otherwise keep pointing at
// requests their partition has since recycled.
var collStates = sync.Pool{New: func() any { return new(mpi.CollectiveState) }}

// haloStep swaps boundary faces with the six neighbours as a resumable
// step: receives are posted first, then sends, then everything completes —
// the standard deadlock-free pattern. In modelled mode the messages carry
// sizes only.
func (p *heatRunner) haloStep(world *mpi.Comm) (done bool, park any) {
	if !p.haloPosted {
		p.haloPosted = true
		for i, d := range directions {
			req, err := world.Irecv(p.neighbor(d.dx, d.dy, d.dz), oppositeTag(d.tag))
			if err != nil {
				panic(fmt.Sprintf("heat: halo irecv: %v", err))
			}
			p.reqs[i] = req
		}
		for i, d := range directions {
			var req *mpi.Request
			var err error
			if p.cfg.RealCompute {
				req, err = world.Isend(p.neighbor(d.dx, d.dy, d.dz), d.tag, p.packFace(d))
			} else {
				req, err = world.IsendN(p.neighbor(d.dx, d.dy, d.dz), d.tag, p.faceSize(d))
			}
			if err != nil {
				panic(fmt.Sprintf("heat: halo isend: %v", err))
			}
			p.reqs[len(directions)+i] = req
		}
		if p.cfg.onHaloPosted != nil {
			p.cfg.onHaloPosted(int(p.rank))
		}
		p.ws.Begin(p.reqs[:]...)
	}
	done, park, err := world.WaitallStep(&p.ws)
	if !done {
		return false, park
	}
	if err != nil {
		panic(fmt.Sprintf("heat: halo waitall: %v", err))
	}
	if p.cfg.RealCompute {
		// The requests are complete, so these waits cannot block; each
		// charges the per-receive wait call an MPI application pays to
		// read a face out of its request.
		for i, d := range directions {
			msg, err := world.Wait(p.reqs[i])
			if err != nil {
				panic(fmt.Sprintf("heat: halo wait: %v", err))
			}
			p.unpackFace(d, msg.Data)
		}
	}
	// Recycle the completed requests (freeing charges nothing and keeps
	// steady-state allocation flat at oversubscription scale) and drop the
	// references: a parked rank must not pin a dozen dead Requests until
	// the next exchange.
	for i := range p.reqs {
		world.Free(p.reqs[i])
		p.reqs[i] = nil
	}
	p.haloPosted = false
	return true, nil
}

// latestCheckpoint returns the newest iteration this rank can restart
// from. The candidates follow from the checkpoint cadence — every multiple
// of the interval, and the last iteration — so the rank probes them
// directly, newest first, instead of scanning the store or listing them;
// proactive checkpoints land off the cadence, which makes every iteration
// a candidate.
func (p *heatRunner) latestCheckpoint(rank int) (int, bool) {
	cfg := p.cfg
	every := cfg.CheckpointInterval
	if cfg.ProactiveTrigger > 0 {
		every = 1
	}
	for it := cfg.Iterations; it > 0; it = (it - 1) / every * every {
		if p.fs.ProbeValid(prefix, rank, it) {
			return it, true
		}
	}
	return 0, false
}

// phaseLength returns how many iterations the compute phase starting after
// p.iter runs: up to and including the first that does anything besides
// compute — a halo exchange, a cadence checkpoint, the last iteration, or,
// with a proactive trigger armed, the first whose end clock reaches it.
// Real compute runs its stencil between clock updates, one iteration at a
// time.
func (p *heatRunner) phaseLength(env *mpi.Env, perIter vclock.Duration) int {
	cfg := p.cfg
	if cfg.RealCompute {
		return 1
	}
	until := func(every int) int { return every - p.iter%every }
	n := min(until(cfg.ExchangeInterval), until(cfg.CheckpointInterval), cfg.Iterations-p.iter)
	if cfg.ProactiveTrigger > 0 && !p.proactiveDone {
		n = min(n, vclock.StepsToReach(env.Now(), perIter, cfg.ProactiveTrigger))
	}
	return n
}

// Step advances the application: the paper's loop, unrolled into
// resumable phases.
func (p *heatRunner) Step(env *mpi.Env, wake any) (any, bool) {
	cfg := p.cfg
	world := env.World()
	rank := env.Rank()
	tr := cfg.Tracker
	for {
		switch p.pc {
		case hpInit:
			if err := cfg.Validate(env.Size()); err != nil {
				panic(err)
			}
			if err := cfg.CheckClockRange(env.Now(), cfg.iterationTime(env)); err != nil {
				panic(err)
			}
			tr.setPhase(rank, PhaseInit)
			fs, err := checkpoint.NewFS(env)
			if err != nil {
				panic(err)
			}
			p.fs = fs
			p.state = newState(cfg, rank)
			// Restart support: load the newest valid checkpoint, deleting
			// any corrupted ones encountered (the cleanup script outside
			// the simulation already removed incomplete sets).
			it, ok := p.latestCheckpoint(rank)
			if !ok {
				p.pc = hpAfterRestore
				continue
			}
			p.restoreIter = it
			switch hier := env.FSHierarchy(); {
			case cfg.RealCompute:
				p.rs = new(checkpoint.RestoreState)
				p.rs.Begin(prefix, rank, it, false)
			case len(hier) == 1 && cfg.DeltaFraction == 0:
				// ROADMAP 1b pins this undercharge: a modelled restart
				// from a one-tier store reads the payload at one client's
				// bandwidth, with no metadata operation and no header,
				// where the write it restores charged the contended cost.
				env.Elapse(hier[0].ReadCost(cfg.payloadBytes()))
				p.startIter = it
				p.pc = hpAfterRestore
				continue
			default:
				// Tier-aware restore: read the whole delta chain, each file
				// from the fastest tier holding a surviving copy.
				p.rs = new(checkpoint.RestoreState)
				p.rs.Begin(prefix, rank, it, true)
			}
			p.pc = hpRestore
		case hpRestore:
			done, park, err := p.fs.RestoreStep(p.rs)
			if !done {
				return park, false
			}
			if err != nil {
				panic(fmt.Sprintf("heat: rank %d cannot reload checkpoint %d: %v", rank, p.restoreIter, err))
			}
			if cfg.RealCompute {
				p.restore(p.rs.Payload())
			}
			p.rs = nil
			p.startIter = p.restoreIter
			p.pc = hpAfterRestore
		case hpAfterRestore:
			if tr != nil {
				tr.startIter[rank] = p.startIter
			}
			p.prevCkpt = p.startIter // previous checkpoint iteration (0 = none)
			p.incr = !cfg.RealCompute && cfg.DeltaFraction > 0
			if p.incr && p.startIter > 0 {
				// The current incremental chain, base (full checkpoint) first.
				p.chain = checkpoint.Chain(env.FSStore(), prefix, rank, p.startIter)
			}
			// Initialise the ghost layers of the (initial or restored) state
			// so the first computation phase sees its neighbours' boundaries.
			tr.setPhase(rank, PhaseHalo)
			p.pc = hpInitialHalo
		case hpInitialHalo:
			done, park := p.haloStep(world)
			if !done {
				return park, false
			}
			p.iter = p.startIter
			p.pc = hpIterStart
		case hpIterStart:
			if p.iter >= cfg.Iterations {
				p.pc = hpFinish
				continue
			}
			if cfg.onPhase != nil {
				cfg.onPhase(rank, p.iter+1)
			}
			tr.setPhase(rank, PhaseCompute)
			// A compute phase: every iteration up to and including the next
			// one that also exchanges or checkpoints, each the same modelled
			// cost, taken as one clock advance. When a failure or abort
			// activates inside the phase the advance stops at the end of the
			// iteration it strikes in, and Elapse(0), the activation point,
			// unwinds the rank with that iteration on record.
			perIter := cfg.iterationTime(env)
			p.iter += env.ElapseSteps(perIter, p.phaseLength(env, perIter))
			if tr != nil {
				tr.iters[rank] = p.iter
			}
			env.Elapse(0)
			if cfg.RealCompute {
				p.stencil()
			}
			if p.iter%cfg.ExchangeInterval == 0 || p.iter == cfg.Iterations {
				tr.setPhase(rank, PhaseHalo)
				p.pc = hpIterHalo
				continue
			}
			p.pc = hpMaybeCkpt
		case hpIterHalo:
			done, park := p.haloStep(world)
			if !done {
				return park, false
			}
			p.pc = hpMaybeCkpt
		case hpMaybeCkpt:
			iter := p.iter
			// Proactive fault tolerance: a failure predictor fired, so write
			// an extra checkpoint now to minimise the progress a restart
			// would lose.
			proactive := cfg.ProactiveTrigger > 0 && !p.proactiveDone &&
				env.Now() >= cfg.ProactiveTrigger
			if proactive {
				p.proactiveDone = true
			}
			if !(proactive || iter%cfg.CheckpointInterval == 0 || iter == cfg.Iterations) {
				p.pc = hpIterStart
				continue
			}
			tr.setPhase(rank, PhaseCheckpoint)
			meta := checkpoint.Meta{Iteration: iter, Rank: rank}
			p.full = !p.incr || len(p.chain) == 0 || len(p.chain) >= cfg.fullEvery()
			var err error
			switch {
			case cfg.RealCompute:
				err = p.fs.Write(prefix, meta, p.encode())
			case p.full:
				err = p.fs.WriteSized(prefix, meta, cfg.payloadBytes())
			default:
				meta.Incremental, meta.BaseIteration = true, p.chain[len(p.chain)-1]
				err = p.fs.WriteSized(prefix, meta, cfg.deltaBytes())
			}
			if err != nil {
				panic(fmt.Sprintf("heat: rank %d checkpoint %d: %v", rank, iter, err))
			}
			tr.setPhase(rank, PhaseBarrier)
			p.pc = hpBarrier
		case hpBarrier:
			// A global barrier synchronises all processes so the previous
			// checkpoint can be deleted safely.
			if p.cs == nil {
				p.cs = collStates.Get().(*mpi.CollectiveState)
				p.cs.BeginBarrier()
			}
			done, park, err := world.CollectiveStep(p.cs)
			if !done {
				return park, false
			}
			*p.cs = mpi.CollectiveState{} // no stale request pointers across ranks or worlds
			collStates.Put(p.cs)
			p.cs = nil
			if err != nil {
				panic(fmt.Sprintf("heat: rank %d barrier after checkpoint %d: %v", rank, p.iter, err))
			}
			iter := p.iter
			tr.setPhase(rank, PhaseDelete)
			if p.incr {
				// A full checkpoint supersedes the previous chain; a delta
				// extends the chain and deletes nothing (every link is
				// still needed for restore).
				if p.full {
					for _, old := range p.chain {
						if old != iter {
							p.fs.Delete(prefix, old, rank)
						}
					}
					p.chain = append(p.chain[:0], iter)
				} else {
					p.chain = append(p.chain, iter)
				}
			} else if p.prevCkpt > 0 && p.prevCkpt != iter {
				p.fs.Delete(prefix, p.prevCkpt, rank)
			}
			if tr != nil {
				tr.ckpts[rank]++
			}
			p.prevCkpt = iter
			p.pc = hpIterStart
		case hpFinish:
			tr.setPhase(rank, PhaseDone)
			if cfg.OnFinal != nil && cfg.RealCompute {
				cfg.OnFinal(rank, p.TotalHeat())
			}
			env.Finalize()
			return nil, true
		default:
			panic(fmt.Sprintf("heat: program in phase %d", p.pc))
		}
	}
}
