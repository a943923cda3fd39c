package xsim

import (
	"errors"

	"xsim/internal/checkpoint"
	"xsim/internal/redundancy"
)

// replPrefix names the replicated stencil's checkpoint files.
const replPrefix = "repl"

// haloHops is one iteration's ring exchange through the replicated
// communicator, in order: both halos out, then both in. A hop's peer is
// dir logical ranks away; tag 0 carries the rightward halo, tag 1 the
// leftward one.
var haloHops = [...]struct {
	send     bool
	dir, tag int
}{{send: true, dir: 1, tag: 0}, {send: true, dir: -1, tag: 1}, {dir: -1, tag: 0}, {dir: 1, tag: 1}}

// newReplicatedStencil returns the replication crossover's application, a
// heat-proxy stencil, one program per rank: every iteration computes,
// exchanges ring halos of p.HaloBytes (the synthetic checkpoint size too)
// through a degree-way replicated communicator, and every interval
// iterations (0 = never) checkpoints at p.CheckpointSeconds (Daly's δ,
// charged explicitly so the zero-cost file system still produces the
// checkpoint/restart trade-off); a restarted run first charges
// p.RestartSeconds (Daly's R). The total problem is fixed: at degree r
// the world splits into Ranks/r logical ranks that each compute r×
// p.ComputeSeconds per iteration, which is what makes the replication
// arms comparable to the unreplicated checkpoint arm. A process failure
// is absorbed by the surviving replicas of the failed logical rank; only
// when every replica of some logical rank has died does the application
// abort (and a Campaign with Replicas set to the degree restarts it from
// the latest replica-covered checkpoint, with continuous virtual time).
func newReplicatedStencil(p CrossoverParams, degree, interval int) func(rank int) Prog {
	// The halo is only ever read (an eager send copies it), so every rank
	// sends the same zero bytes.
	halo := make([]byte, p.HaloBytes)
	return func(int) Prog { return &stencilRank{cfg: &p, degree: degree, interval: interval, halo: halo} }
}

// stencilRank is one rank of the replicated stencil as a resumable state
// machine; rc is nil until the first step. Once an iteration has
// computed, exchanging holds until its last halo hop (hop indexes
// haloHops) completes.
type stencilRank struct {
	cfg              *CrossoverParams
	degree, interval int
	halo             []byte
	rc               *redundancy.Comm
	fs               *CheckpointFS
	iter, hop        int
	exchanging       bool
	send             redundancy.SendState
	recv             redundancy.RecvState
}

// Step advances the rank: setup on the first call, then one iteration's
// compute, halo hops and checkpoint per pass of the loop.
func (p *stencilRank) Step(env *Env, _ any) (any, bool) {
	if p.rc == nil {
		// Wrap the world and resume from the latest replica-covered
		// checkpoint. The restart bookkeeping happens before any virtual
		// time passes, so every rank resumes from the same iteration: the
		// scan sees the store exactly as the previous run left it.
		rc, err := redundancy.WrapN(env, p.degree)
		if err == nil && p.interval > 0 {
			p.fs, err = NewCheckpointFS(env)
		}
		if err != nil {
			env.Logf("replicated stencil: %v", err)
			env.Abort(2)
		}
		p.rc = rc
		if p.interval > 0 {
			p.iter = latestReplicatedCheckpoint(env.FSStore(), replPrefix, rc.Size(), p.degree)
		}
		if _, restarted := checkpoint.LoadExitTime(env.FSStore()); restarted && Seconds(p.cfg.RestartSeconds) > 0 {
			env.Elapse(Seconds(p.cfg.RestartSeconds))
		}
	}
	for ; p.iter < p.cfg.Iterations; p.iter++ {
		if !p.exchanging {
			env.Elapse(Duration(p.degree) * Seconds(p.cfg.ComputeSeconds))
			p.exchanging = true
		}
		for n := p.rc.Size(); p.hop < len(haloHops) && n > 1; p.hop++ {
			h := haloHops[p.hop]
			peer := (p.rc.Logical() + h.dir + n) % n
			if h.send {
				done, park, err := p.rc.SendStep(&p.send, peer, h.tag, p.halo)
				if !done {
					return park, false
				}
				if err != nil {
					p.abort(env, err)
				}
				continue
			}
			// Silent-data-corruption reports carry the message and do not
			// stop the solve; everything else (a logical rank with no live
			// replicas, above all) aborts the run.
			done, park, msg, err := p.rc.RecvStep(&p.recv, peer, h.tag)
			if !done {
				return park, false
			}
			var sdc *redundancy.SDCError
			if err != nil && !errors.As(err, &sdc) {
				p.abort(env, err)
			}
			msg.Release()
		}
		p.hop, p.exchanging = 0, false
		if done := p.iter + 1; p.fs != nil && done%p.interval == 0 && done < p.cfg.Iterations {
			if cost := Seconds(p.cfg.CheckpointSeconds); cost > 0 {
				env.Elapse(cost)
			}
			meta := CheckpointMeta{Iteration: done, Rank: env.Rank(), PayloadSize: p.cfg.HaloBytes}
			if err := p.fs.WriteSized(replPrefix, meta, p.cfg.HaloBytes); err != nil {
				p.abort(env, err)
			}
		}
	}
	env.Finalize()
	return nil, true
}

// abort ends the run from this rank: err leaves some logical rank, or
// this one's checkpoint, beyond repair.
func (p *stencilRank) abort(env *Env, err error) {
	env.Logf("replicated stencil: rank %d (logical %d replica %d): %v",
		env.Rank(), p.rc.Logical(), p.rc.Replica(), err)
	env.Abort(1)
}

// latestReplicatedCheckpoint returns the highest checkpointed iteration at
// which every logical rank is covered by at least one replica's valid
// checkpoint file — the furthest point a replicated restart can resume
// from. Files of replicas that died mid-write are incomplete and do not
// cover their logical rank, but any surviving replica's file does.
func latestReplicatedCheckpoint(store *Store, prefix string, n, degree int) int {
	best := 0
	for _, it := range store.Iterations(prefix) {
		if it > best && checkpoint.SetComplete(store, prefix, it, n, degree) {
			best = it
		}
	}
	return best
}
