package xsim

import (
	"context"
	"fmt"

	"xsim/internal/checkpoint"
	"xsim/internal/fault"
)

// Campaign drives an application through failure/restart cycles until it
// completes: each run draws one random failure (uniform rank, uniform time
// within 2×MTTF of the run start — the paper's worst-case model); when the
// application aborts, the simulated exit time is persisted and the next
// run resumes from it with continuous virtual time, after the checkpoint
// cleanup the paper performs with a shell script.
type Campaign struct {
	// Base is the per-run configuration template. Its Store is shared
	// across runs (one is created if nil); StartClock and Failures are
	// managed by the campaign (Base.Failures applies to the first run
	// only, for reproducing specific scenarios).
	Base Config
	// MTTF is the system mean-time-to-failure for random injection;
	// zero injects nothing beyond Base.Failures.
	MTTF Duration
	// DrawFailures, when set, replaces the MTTF draw: it returns the
	// failure schedule for each run (e.g. a component-based reliability
	// model's CampaignSource, the model `xsim-run reliability` explores).
	DrawFailures func(run int, start Time) Schedule
	// Seed makes the campaign's random failures repeatable.
	Seed int64
	// MaxRuns caps the failure/restart cycles (default 100).
	MaxRuns int
	// CheckpointPrefix, when set, enables the between-runs cleanup of
	// incomplete checkpoint sets.
	CheckpointPrefix string
	// Replicas is the application's replication degree r (0 and 1 mean
	// unreplicated): world rank l + k·Ranks/r is replica k of logical rank
	// l, the layout of runReplicatedStencil. It decides when a run is done
	// and which checkpoint sets the between-runs cleanup keeps. A run is
	// done when no rank aborted and every logical rank has a replica that
	// completed, so a failed replica whose buddy survived forces no
	// restart. A set is kept when every logical rank has a replica whose
	// file a restart would accept (checkpoint.SetComplete), so a dead
	// replica's missing file does not delete a set the restart resumes
	// from.
	Replicas int
	// AppFor builds the application for each run (fresh trackers etc.);
	// use the same closure for every run if no per-run state is needed.
	AppFor func(run int) App
	// ProgFor, when set, runs each campaign run in program mode: the
	// returned per-rank factory is passed to Sim.RunProgs instead of
	// executing an App closure per rank. It takes precedence over AppFor.
	ProgFor func(run int) func(rank int) Prog
}

// RunSummary describes one application run within a campaign.
type RunSummary struct {
	// Run is the 0-based run index.
	Run int
	// Start and End are the run's virtual start and exit times.
	Start, End Time
	// Injected is the failure drawn for this run (nil when none).
	Injected *Injection
	// Completed, Failed, Aborted count ranks by termination.
	Completed, Failed, Aborted int
}

// CampaignResult summarises a failure/restart campaign.
type CampaignResult struct {
	// Runs holds one summary per application run.
	Runs []RunSummary
	// Done reports whether the application eventually completed.
	Done bool
	// Start is the campaign's initial virtual clock (Base.StartClock);
	// restart chains continue the previous chain's virtual time, so it
	// need not be zero.
	Start Time
	// E2 is the simulated completion time including all failure/restart
	// cycles (the paper's E2 column).
	E2 Time
	// Failures is the number of process failures experienced (the
	// paper's F column).
	Failures int
	// Busy and Waited accumulate each rank's executing and blocked
	// virtual time across all runs of the campaign, for energy
	// accounting.
	Busy, Waited []Duration
	// SimTime sums each run's virtual clock advance; restarts resume
	// from the previous exit time, so over a whole chain this equals the
	// E2 completion time minus the campaign's start clock.
	SimTime Duration
	// Engine and MPI pool the per-run engine and MPI counters across the
	// whole restart chain.
	Engine EngineMetrics
	MPI    MPIMetrics
}

// Energy evaluates a power model over the whole campaign: every run's
// busy/wait time contributes, so the energy cost of lost work and
// restarts is included.
func (r *CampaignResult) Energy(m PowerModel) PowerReport {
	return m.SystemEnergy(r.Busy, r.Waited, Duration(r.E2))
}

// MTTFa returns the experienced application mean-time-to-failure — the
// campaign's elapsed virtual time divided by F+1, the paper's MTTFa
// column. The elapsed time is E2 − Start: a campaign in a restart chain
// begins at a nonzero StartClock, and dividing the absolute completion
// time would overstate the experienced MTTF.
func (r *CampaignResult) MTTFa() Duration {
	return Duration(r.E2-r.Start) / Duration(r.Failures+1)
}

// check reports a campaign that cannot run: neither application hook
// set, or a replication degree that does not divide the ranks.
func (c *Campaign) check() error {
	if c.AppFor == nil && c.ProgFor == nil {
		return fmt.Errorf("xsim: Campaign.AppFor or ProgFor is required")
	}
	if r := c.degree(); c.Base.Ranks%r != 0 {
		return fmt.Errorf("xsim: Campaign.Replicas %d does not divide Ranks %d", r, c.Base.Ranks)
	}
	return nil
}

// degree is the replication degree, at least 1.
func (c *Campaign) degree() int { return max(c.Replicas, 1) }

// done reports whether a run finished the application (see Replicas).
func (c *Campaign) done(res *Result) bool {
	r := c.degree()
	if r == 1 {
		return res.Success()
	}
	if res.Aborted > 0 {
		return false
	}
	n := c.Base.Ranks / r
	for l := 0; l < n; l++ {
		ok := false
		for k := 0; k < r && !ok; k++ {
			ok = res.Deaths[l+k*n] == "completed"
		}
		if !ok {
			return false
		}
	}
	return true
}

// Run executes the campaign; it is RunContext without cancellation.
func (c Campaign) Run() (*CampaignResult, error) {
	return c.RunContext(context.Background())
}

// RunContext executes the campaign's failure/restart chain. The chain is
// inherently ordered — each restart resumes from the previous run's
// persisted exit time — so its runs execute sequentially; the experiment
// drivers fan grids of independent campaigns out across the campaign
// pool instead. ctx cancels the chain between runs and, through
// Sim.RunContext, within a run at the next simulation window; the partial
// CampaignResult accompanies an error wrapping ErrCancelled.
func (c Campaign) RunContext(ctx context.Context) (*CampaignResult, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	maxRuns := c.MaxRuns
	if maxRuns == 0 {
		maxRuns = 100
	}
	if c.Base.Store == nil {
		c.Base.Store = NewStore()
	}
	store := c.Base.Store
	checkpoint.ClearExitTime(store)
	rcamp := fault.Campaign{Seed: c.Seed, Ranks: c.Base.Ranks, MTTF: c.MTTF}
	result := &CampaignResult{Start: c.Base.StartClock}
	start := c.Base.StartClock

	for run := 0; run < maxRuns; run++ {
		cfg := c.Base
		cfg.StartClock = start
		cfg.Failures = nil
		if run == 0 {
			cfg.Failures = append(cfg.Failures, c.Base.Failures...)
		}
		var drawn Schedule
		if c.DrawFailures != nil {
			drawn = c.DrawFailures(run, start)
		} else {
			drawn = rcamp.ForRun(run, start)
		}
		cfg.Failures = append(cfg.Failures, drawn...)

		if err := ctx.Err(); err != nil {
			return result, fmt.Errorf("%w before run %d: %v", ErrCancelled, run, context.Cause(ctx))
		}
		sim, err := New(cfg)
		if err != nil {
			return result, err
		}
		var res *Result
		if c.ProgFor != nil {
			res, err = sim.RunProgsContext(ctx, c.ProgFor(run))
		} else {
			res, err = sim.RunContext(ctx, c.AppFor(run))
		}
		if err != nil {
			return result, err
		}
		result.SimTime += res.SimTime.Sub(res.StartClock)
		result.Engine.Add(res.Engine)
		result.MPI.Add(res.MPI)
		summary := RunSummary{
			Run:       run,
			Start:     start,
			End:       res.SimTime,
			Completed: res.Completed,
			Failed:    res.Failed,
			Aborted:   res.Aborted,
		}
		// Report the run's earliest injection. The schedule must be sorted
		// first: on run 0 it is Base.Failures carry-overs followed by the
		// drawn failure, and neither part is ordered by time.
		if sorted := cfg.Failures.Sorted(); len(sorted) > 0 {
			inj := sorted[0]
			summary.Injected = &inj
		}
		result.Runs = append(result.Runs, summary)
		result.Failures += res.Failed
		if result.Busy == nil {
			result.Busy = make([]Duration, c.Base.Ranks)
			result.Waited = make([]Duration, c.Base.Ranks)
		}
		for r := range res.Busy {
			result.Busy[r] += res.Busy[r]
			result.Waited[r] += res.Waited[r]
		}

		if c.done(res) {
			result.Done = true
			result.E2 = res.SimTime
			return result, nil
		}
		// Abort path: persist the exit time for continuous virtual
		// timing, clean up incomplete checkpoint sets, restart.
		if err := checkpoint.SaveExitTime(store, res.SimTime); err != nil {
			return result, err
		}
		// A failed node takes its volatile tier copies (and any drains
		// still in flight at the failure) down with it, so the next run's
		// restart falls back to a deeper tier or an older set.
		for _, inj := range cfg.Failures {
			if inj.At <= res.SimTime {
				store.ResolveFailure(c.Base.FSHierarchy, inj.Rank, inj.At)
			}
		}
		if c.CheckpointPrefix != "" {
			r := c.degree()
			checkpoint.CleanIncompleteReplicaSets(store, c.CheckpointPrefix, c.Base.Ranks/r, r)
		}
		start = res.SimTime
	}
	result.E2 = start
	return result, fmt.Errorf("%w: campaign did not complete within %d runs (%d failures)",
		ErrAborted, maxRuns, result.Failures)
}
