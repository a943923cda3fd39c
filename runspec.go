package xsim

import (
	"context"

	"xsim/internal/runner"
)

// RunSpec is the shared trunk of every Run-family experiment: the
// simulation parameters and campaign-pool controls every driver reads
// under the same names, with one defaults path. A CampaignSpec's trunk
// fields build it for the kind's driver; TableIIConfig embeds it:
//
//	xsim.TableIIConfig{RunSpec: xsim.RunSpec{Ranks: 512, Workers: 2}}
type RunSpec struct {
	// Ranks is the number of simulated MPI processes; each driver fills
	// its own default (the paper's scale for Table II, 512 elsewhere).
	Ranks int
	// Workers is each run's engine parallelism (0/1 = sequential). It
	// composes with Pool: the default pool budget is GOMAXPROCS/Workers.
	Workers int
	// Seed drives the driver's random draws; per-run seeds derive
	// deterministically from it and the run index, so results are
	// identical at any pool size.
	Seed int64
	// CallOverhead is the per-MPI-call CPU cost; experiment drivers
	// default it to PaperCallOverhead.
	CallOverhead Duration
	// Logf receives simulator and campaign progress messages; nil
	// discards them (every driver treats nil the same way).
	Logf func(format string, args ...any)
	// Pool caps the number of simulation runs in flight (0 = the
	// GOMAXPROCS/Workers composition; 1 = sequential execution).
	Pool int
	// ProgMode runs the experiment's simulated applications in program
	// mode (resumable per-rank state machines instead of goroutine-backed
	// closures) where the driver supports it. The two modes are
	// observationally identical; program mode cuts per-rank memory from a
	// goroutine stack to a few hundred bytes, which is what makes the
	// headline experiments practical at 256k–1M ranks.
	ProgMode bool
	// OnProgress, when set, receives one serialized ProgressEvent per
	// run state change of the campaign pool (started, completed, failed)
	// — the wire-typed feed the campaign service streams to clients.
	// Callbacks are never concurrent.
	OnProgress func(ProgressEvent)
}

// defaults fills the spec's zero fields: the driver-specific default rank
// count and the paper's calibrated per-call overhead. It is the single
// defaults path all Run-family drivers share.
func (s *RunSpec) defaults(defaultRanks int) {
	if s.Ranks == 0 {
		s.Ranks = defaultRanks
	}
	if s.CallOverhead == 0 {
		s.CallOverhead = PaperCallOverhead
	}
}

// baseConfig returns the per-run simulation Config the spec describes.
func (s *RunSpec) baseConfig() Config {
	return Config{
		Ranks:        s.Ranks,
		Workers:      s.Workers,
		CallOverhead: s.CallOverhead,
		Logf:         s.Logf,
	}
}

// runnerConfig returns the campaign-pool configuration for this spec:
// the pool budget composes with the per-run engine workers, run
// completions stream through the spec's logger, and state changes
// through the spec's wire-typed progress hook.
func (s *RunSpec) runnerConfig() runner.Config {
	return runner.Config{
		Pool:          s.Pool,
		EngineWorkers: s.Workers,
		Logf:          s.Logf,
		OnProgress:    s.OnProgress,
	}
}

// campaignCell is one restart campaign of an experiment grid and the
// label its progress events and run errors carry.
type campaignCell struct {
	camp  Campaign
	label string
}

// runCells fans a grid's restart campaigns out across the campaign pool,
// one task per cell numbered in list order, and returns the results in
// that order (nil for a cell that failed or was skipped; see the error).
// It sets stats.Runner and absorbs the results in cell order, so the
// pooled metrics are identical at any pool size.
func (s *RunSpec) runCells(ctx context.Context, stats *CampaignStats, cells []campaignCell) ([]*CampaignResult, error) {
	tasks := make([]runner.Task[*CampaignResult], len(cells))
	for i, c := range cells {
		tasks[i] = runner.Task[*CampaignResult]{
			Spec: runner.Spec{Index: i, Label: c.label, Seed: c.camp.Seed},
			Run:  c.camp.RunContext,
		}
	}
	results, rstats, err := runner.Run(ctx, s.runnerConfig(), tasks)
	stats.Runner = rstats
	for _, r := range results {
		stats.absorbCampaign(r)
	}
	return results, err
}

// CampaignStats aggregates a concurrent campaign's execution: the pool's
// run accounting plus the pooled simulation metrics — wall time vs
// simulated virtual time, and the engine/MPI counter sums across every
// run of the campaign.
type CampaignStats struct {
	// Runner is the pool's run accounting (started/completed/failed,
	// wall time, summed per-run wall time).
	Runner runner.Stats
	// SimTime sums the virtual time simulated across all runs.
	SimTime Duration
	// Engine and MPI sum the per-run engine and MPI counters.
	Engine EngineMetrics
	// MPI sums the per-run MPI-layer counters; FailureMetric records are
	// concatenated.
	MPI MPIMetrics
}

// absorbCampaign accumulates a whole restart chain's pooled metrics.
func (cs *CampaignStats) absorbCampaign(res *CampaignResult) {
	if res == nil {
		return
	}
	cs.SimTime += res.SimTime
	cs.Engine.Add(res.Engine)
	cs.MPI.Add(res.MPI)
}
