package xsim

import (
	"context"
	"fmt"

	"xsim/internal/runner"
)

// CampaignSetConfig parameterises a set of independent failure/restart
// campaigns fanned out across the campaign pool: the same experiment
// repeated over many seeds — the averaging the paper's evaluation does by
// hand. Each campaign's restart chain stays internally ordered (a restart
// resumes from its predecessor's exit time); the chains themselves are
// independent and run concurrently.
type CampaignSetConfig struct {
	// RunSpec supplies the pool controls (Pool, Workers composition),
	// the base seed for derived campaign seeds, the progress logger, and
	// fills any zero simulation fields of Template.Base.
	RunSpec
	// Template is the per-campaign template. Its Seed is replaced by each
	// campaign's own seed, and its Base.Store must be nil: every campaign
	// gets a fresh private file-system store, because a store shared
	// across concurrent chains would race.
	Template Campaign
	// Seeds are the campaign seeds, one campaign per entry. When empty,
	// Count seeds are derived deterministically from RunSpec.Seed.
	Seeds []int64
	// Count is the number of derived-seed campaigns when Seeds is empty
	// (default 10).
	Count int
}

// CampaignSet is the result of a campaign fan-out.
type CampaignSet struct {
	// Seeds holds the campaign seeds actually used, in task order.
	Seeds []int64
	// Results holds one campaign result per seed, index-aligned with
	// Seeds regardless of completion order (nil for campaigns that
	// failed or were skipped by cancellation — see the returned error).
	Results []*CampaignResult
	// Stats pools the set's execution accounting and simulation metrics.
	Stats CampaignStats
}

// MeanE2 averages the completion time over the campaigns that finished.
func (s *CampaignSet) MeanE2() Duration {
	var sum float64
	n := 0
	for _, r := range s.Results {
		if r != nil && r.Done {
			sum += Duration(r.E2).Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return Seconds(sum / float64(n))
}

// RunCampaigns executes one failure/restart campaign per seed across the
// campaign pool. Per-campaign failures (a chain that exhausts MaxRuns, a
// panicking application) become *RunError entries in the joined error
// while the other campaigns keep running; cancellation stops the set
// within one simulation window and returns the finished results.
func RunCampaigns(ctx context.Context, cfg CampaignSetConfig) (*CampaignSet, error) {
	cfg.defaults(cfg.Template.Base.Ranks)
	if err := cfg.Template.check(); err != nil {
		return nil, err
	}
	if cfg.Template.Base.Store != nil {
		return nil, fmt.Errorf("xsim: RunCampaigns forbids a shared Template.Base.Store (each campaign gets a fresh one)")
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		count := cfg.Count
		if count == 0 {
			count = 10
		}
		seeds = make([]int64, count)
		for i := range seeds {
			seeds[i] = runner.DeriveSeed(cfg.Seed, i)
		}
	}

	// Fill the template's zero simulation fields from the spec so the set
	// and single-campaign paths describe runs the same way.
	base := cfg.Template.Base
	if base.Ranks == 0 {
		base.Ranks = cfg.Ranks
	}
	if base.Workers == 0 {
		base.Workers = cfg.Workers
	}
	if base.Net == nil {
		base.Net = cfg.Net
	}
	if base.CallOverhead == 0 {
		base.CallOverhead = cfg.CallOverhead
	}
	if base.Logf == nil {
		base.Logf = cfg.Logf
	}

	tasks := make([]runner.Task[*CampaignResult], len(seeds))
	for i, seed := range seeds {
		camp := cfg.Template
		camp.Base = base
		camp.Seed = seed
		tasks[i] = runner.Task[*CampaignResult]{
			Spec: runner.Spec{Index: i, Label: fmt.Sprintf("seed=%d", seed), Seed: seed},
			Run: func(ctx context.Context) (*CampaignResult, error) {
				return camp.RunContext(ctx)
			},
		}
	}
	results, rstats, err := runner.Run(ctx, cfg.runnerConfig(), tasks)
	set := &CampaignSet{Seeds: seeds, Results: results, Stats: CampaignStats{Runner: rstats}}
	for _, r := range results {
		set.Stats.absorbCampaign(r)
	}
	return set, err
}
