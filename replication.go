package xsim

import (
	"errors"

	"xsim/internal/checkpoint"
	"xsim/internal/redundancy"
)

// replicatedStencil parameterises the replication crossover's
// application, a heat-proxy stencil: a ring halo exchange whose every
// logical rank is backed by Degree replicas through the redundancy layer's
// communicator, so injected process failures are absorbed as long as one
// replica of each logical rank survives. The total problem size is fixed:
// at degree r the world splits into Ranks/r logical ranks that each carry
// r× the per-rank work, which is what makes the replication arms
// comparable to the unreplicated checkpoint arm. Every field but the
// checkpoint ones must be set.
type replicatedStencil struct {
	// Degree is the replication degree r (1 = unreplicated baseline).
	Degree int
	// Iterations is the iteration count of the full solve.
	Iterations int
	// ComputePerIteration is the per-iteration compute time of one
	// logical rank at degree 1; at degree r every replica computes r×
	// this (fixed total problem over fewer logical ranks).
	ComputePerIteration Duration
	// HaloBytes is the per-direction halo payload (and the synthetic
	// per-rank checkpoint size). It must not exceed the network's
	// EagerThreshold: every rank sends both halos before it receives
	// either, and a rendezvous send waits for its matching receive, so
	// larger halos deadlock the ring.
	HaloBytes int
	// CheckpointInterval checkpoints every k iterations (0 disables).
	CheckpointInterval int
	// CheckpointCost is the simulated cost of writing one checkpoint
	// (Daly's δ), charged explicitly so the zero-cost file-system model
	// still produces the checkpoint/restart trade-off.
	CheckpointCost Duration
	// RestartCost is charged once at the start of every restarted run
	// (Daly's R).
	RestartCost Duration
}

// replPrefix names the replicated stencil's checkpoint files.
const replPrefix = "repl"

// Halo tags of the replicated stencil.
const (
	tagHaloRight = 0
	tagHaloLeft  = 1
)

// runReplicatedStencil returns the replicated stencil application: every
// iteration computes, exchanges ring halos through an r-way replicated
// communicator, and optionally checkpoints. A process failure is absorbed
// by the surviving replicas of the failed logical rank; only when every
// replica of some logical rank has died does the application abort (and a
// Campaign with Replicas set to the degree restarts it from the latest
// replica-covered checkpoint, with continuous virtual time).
func runReplicatedStencil(cfg replicatedStencil) App {
	return func(env *Env) {
		defer env.Finalize()
		rc, err := redundancy.WrapN(env, cfg.Degree)
		if err != nil {
			env.Logf("replicated stencil: %v", err)
			env.Abort(2)
			return
		}
		n := rc.Size()
		me := rc.Logical()

		// Restart bookkeeping happens before any virtual time passes, so
		// every rank resumes from the same iteration: the scan sees the
		// store exactly as the previous run left it.
		store := env.FSStore()
		ckpts := cfg.CheckpointInterval > 0
		startIter := 0
		if ckpts {
			startIter = latestReplicatedCheckpoint(store, replPrefix, n, cfg.Degree)
		}
		if _, restarted := checkpoint.LoadExitTime(store); restarted && cfg.RestartCost > 0 {
			env.Elapse(cfg.RestartCost)
		}
		var fs *CheckpointFS
		if ckpts {
			fs, err = NewCheckpointFS(env)
			if err != nil {
				env.Logf("replicated stencil: %v", err)
				env.Abort(2)
				return
			}
		}

		abort := func(err error) {
			env.Logf("replicated stencil: rank %d (logical %d replica %d): %v",
				env.Rank(), me, rc.Replica(), err)
			env.Abort(1)
		}
		// drain consumes one halo: silent-data-corruption reports carry
		// the message and do not stop the solve; everything else (a
		// logical rank with no live replicas, above all) aborts the run.
		drain := func(src, tag int) bool {
			msg, err := rc.Recv(src, tag)
			var sdc *redundancy.SDCError
			if err != nil && !errors.As(err, &sdc) {
				abort(err)
				return false
			}
			msg.Release()
			return true
		}

		halo := make([]byte, cfg.HaloBytes)
		right := (me + 1) % n
		left := (me - 1 + n) % n
		for iter := startIter; iter < cfg.Iterations; iter++ {
			env.Elapse(Duration(cfg.Degree) * cfg.ComputePerIteration)
			if n > 1 {
				if err := rc.Send(right, tagHaloRight, halo); err != nil {
					abort(err)
					return
				}
				if err := rc.Send(left, tagHaloLeft, halo); err != nil {
					abort(err)
					return
				}
				if !drain(left, tagHaloRight) || !drain(right, tagHaloLeft) {
					return
				}
			}
			if done := iter + 1; ckpts && done%cfg.CheckpointInterval == 0 && done < cfg.Iterations {
				if cfg.CheckpointCost > 0 {
					env.Elapse(cfg.CheckpointCost)
				}
				meta := CheckpointMeta{Iteration: done, Rank: env.Rank(), PayloadSize: cfg.HaloBytes}
				if err := fs.WriteSized(replPrefix, meta, cfg.HaloBytes); err != nil {
					abort(err)
					return
				}
			}
		}
	}
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
