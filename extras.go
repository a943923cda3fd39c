package xsim

import (
	"xsim/internal/checkpoint"
	"xsim/internal/fsmodel"
	"xsim/internal/powermodel"
	"xsim/internal/redundancy"
	"xsim/internal/softerror"
	"xsim/internal/trace"
	"xsim/internal/ulfm"
)

// TraceBuffer records simulator events for timeline analysis; attach one
// via Config.Trace and read it after the run (Events, WriteCSV,
// WriteChromeTrace, WriteSummary).
type TraceBuffer = trace.Buffer

// NewTrace returns a trace buffer retaining at most max events (<= 0 for
// unbounded).
func NewTrace(max int) *TraceBuffer { return trace.New(max) }

// SDCError reports a detected silent data corruption in a redundant
// communicator.
type SDCError = redundancy.SDCError

// WrapReplicated builds an r-way replicated communicator: the world splits
// into Ranks/degree logical ranks of degree replicas each. Every live
// sender replica sends a copy to every live receiver replica, which
// votes on the copies: silent data corruption is detected online, a
// logical rank survives while one of its replicas lives, and at degree ≥ 3
// the majority copy corrects the corruption. Degree 2 is the redMPI-style
// dual-redundant communicator (the upper half of the world mirrors the
// lower half).
func WrapReplicated(env *Env, degree int) (*redundancy.Comm, error) {
	return redundancy.WrapN(env, degree)
}

// PowerModel is the per-node power model (compute/idle/overhead watts).
type PowerModel = powermodel.Model

// PowerReport aggregates a run's energy.
type PowerReport = powermodel.Report

// PaperPower returns a plausible power model for the paper's simulated
// node (100 W compute, 40 W idle, 20 W overhead).
func PaperPower() PowerModel { return powermodel.Paper() }

// This file re-exports the extension surfaces (ULFM recovery and
// soft-error injection) so applications only import the xsim package.

// RunWithRecovery runs work on c, recovering from process failures by
// revoking the communicator, shrinking it to the survivors, and retrying —
// the user-level failure mitigation alternative to checkpoint/restart (the
// paper's ULFM future work). See internal/ulfm for details.
func RunWithRecovery(c *Comm, maxAttempts int, work ulfm.Work) (*Comm, error) {
	return ulfm.RunWithRecovery(c, maxAttempts, work)
}

// IsProcFailed reports whether err is (or wraps) a detected process
// failure.
func IsProcFailed(err error) (*ProcFailedError, bool) { return ulfm.IsProcFailed(err) }

// FlipFloat64 flips one bit of a float64 in place — the soft-error
// injection building block for studying silent data corruption in
// application state. bit must be in [0, 64).
func FlipFloat64(vals []float64, idx, bit int) (old, flipped float64) {
	return softerror.FlipFloat64(vals, idx, bit)
}

// FSHierarchy is an ordered list of storage tiers, fastest (node-local)
// first, stable backing store (PFS) last; a flat file system is one tier.
type FSHierarchy = fsmodel.Hierarchy

// PaperPFS returns the one-tier parallel file system of Table II's
// paper_io variant (1 ms metadata operations, 1 GB/s writes, 2 GB/s
// reads per client).
func PaperPFS() FSHierarchy { return fsmodel.PaperPFS() }

// PaperPFSShared is PaperPFS with a finite aggregate backplane, so
// per-client bandwidth degrades as 1/clients once the shared links
// saturate — the configuration that breaks the zero-cost checkpoint
// assumption at scale.
func PaperPFSShared() FSHierarchy { return fsmodel.PaperPFSShared() }

// PaperTieredFS returns the three-tier hierarchy used by the checkpoint
// I/O ablation: node-local memory → burst buffer → parallel file system,
// in the spirit of SCR-style multilevel checkpointing.
func PaperTieredFS() FSHierarchy { return fsmodel.PaperTieredFS() }

// CheckpointFS gives a simulated process timed access to the simulated
// parallel file system for application-level checkpointing (full,
// synthetic, and incremental writes; validated reads; restart helpers).
type CheckpointFS = checkpoint.FS

// CheckpointMeta describes a checkpoint file.
type CheckpointMeta = checkpoint.Meta

// NewCheckpointFS returns the process's checkpoint file-system handle; the
// simulation must have a file-system store (Config.Store is created by
// default).
func NewCheckpointFS(env *Env) (*CheckpointFS, error) {
	fs, err := checkpoint.NewFS(env)
	if err != nil {
		return nil, err
	}
	return &fs, nil
}
