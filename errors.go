package xsim

import (
	"errors"
	"fmt"

	"xsim/internal/core"
	"xsim/internal/runner"
)

// The Run family reports failures through typed sentinel errors, so every
// driver — single simulations, restart campaigns, and the concurrent
// experiment grids — means the same thing by "aborted", "deadlocked", and
// "cancelled". Match them with errors.Is; a run that fails inside a
// campaign additionally arrives wrapped in a *RunError naming the run.
var (
	// ErrAborted is wrapped by errors reporting a simulation that ended
	// with failed or aborted ranks where the caller required clean
	// completion (see Result.Err), and by a Campaign that exhausted
	// MaxRuns without the application completing — which is also how the
	// experiment drivers' single-run E1 campaigns report an unclean run.
	ErrAborted = errors.New("xsim: application did not complete cleanly")
	// ErrCancelled is wrapped by errors reporting a run cut short by
	// context cancellation. The partial Result (when available)
	// accompanies it.
	ErrCancelled = errors.New("xsim: run cancelled")
	// ErrDeadlock is wrapped by errors reporting a simulation that ended
	// with live processes blocked forever.
	ErrDeadlock = core.ErrDeadlock
	// ErrClockOverflow is wrapped by errors reporting a run in which a
	// process asked to advance its virtual clock past the clock's end
	// (2^63 ns); the error names the rank, its clock and the advance.
	ErrClockOverflow = core.ErrClockOverflow
)

// RunError is the typed error a failing campaign run becomes: it carries
// the run's spec (index, label, seed) and the underlying cause instead of
// killing the whole campaign. Retrieve it with errors.As.
type RunError = runner.RunError

// Err returns nil when every rank finished cleanly, and otherwise an
// error wrapping ErrAborted that counts the casualties — the typed
// counterpart of Success for callers that propagate errors instead of
// inspecting counters.
func (r *Result) Err() error {
	if r.Success() {
		return nil
	}
	return fmt.Errorf("%w: %d failed, %d aborted, %d completed of %d ranks",
		ErrAborted, r.Failed, r.Aborted, r.Completed, len(r.PerRank))
}
