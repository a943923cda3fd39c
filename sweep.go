package xsim

import (
	"context"
	"fmt"
	"strings"

	"xsim/internal/daly"
	"xsim/internal/stats"
)

// IntervalSweepConfig parameterises the checkpoint-interval sweep: the
// figure-style extension of Table II. E2 is measured across a range of
// checkpoint intervals at a fixed system MTTF and compared with Daly's
// analytic expected-runtime model (the optimisation literature the paper
// cites) — locating the empirical optimum and the crossover between
// checkpointing too often and losing too much work.
type IntervalSweepConfig struct {
	// RunSpec carries the shared simulation parameters (Ranks defaults to
	// 512) and the campaign-pool controls. RunSpec.Seed is unused: the
	// sweep averages over the explicit Seeds list.
	RunSpec
	// Iterations is the total iteration count (default 1,000).
	Iterations int
	// Intervals are the checkpoint intervals to sweep (default
	// 500/250/125/62/31).
	Intervals []int
	// MTTF is the system mean-time-to-failure (default 3,000 s).
	MTTF Duration
	// Seeds are averaged per interval to smooth the random failure
	// draws (default 3 seeds starting at 133).
	Seeds []int64
}

// IntervalSweepPoint is one measured point of the sweep.
type IntervalSweepPoint struct {
	// C is the checkpoint interval in iterations.
	C int
	// E1 is the no-failure execution time at this interval.
	E1 Time
	// MeanE2 averages the measured completion times over the seeds.
	MeanE2 Duration
	// MeanF averages the experienced failures over the seeds.
	MeanF float64
	// Daly is the analytic expected runtime at this interval.
	Daly Duration
}

// IntervalSweep is the sweep result.
type IntervalSweep struct {
	Config IntervalSweepConfig
	// Points holds the measured series, in the order of
	// Config.Intervals.
	Points []IntervalSweepPoint
	// Baseline is the no-failure, single-checkpoint execution time.
	Baseline Time
	// CheckpointCost is the empirical per-checkpoint-cycle cost derived
	// from the E1 measurements (Daly's δ).
	CheckpointCost Duration
	// DalyOptimal is the analytic optimal interval in *iterations*.
	DalyOptimal float64
	// BestMeasured is the interval (in iterations) with the lowest
	// measured mean E2.
	BestMeasured int
	// Stats pools the sweep's execution accounting and simulation
	// metrics across every E1 run and seed campaign.
	Stats CampaignStats
}

// defaults fills the zero fields.
func (cfg *IntervalSweepConfig) defaults() {
	cfg.RunSpec.defaults(512)
	if cfg.Iterations == 0 {
		cfg.Iterations = 1000
	}
	if len(cfg.Intervals) == 0 {
		cfg.Intervals = []int{500, 250, 125, 62, 31}
	}
	if cfg.MTTF == 0 {
		cfg.MTTF = 3000 * Second
	}
	if len(cfg.Seeds) == 0 {
		cfg.Seeds = []int64{133, 134, 135}
	}
}

// RunIntervalSweepContext measures E2 across checkpoint intervals and fits
// Daly's model to the same scenario. It is the heat grid's free arm with
// one cell per (interval, seed), interval-major; each campaign's failure
// draws depend only on its seed, so the sweep is identical at any pool
// size. On error (a failed point, or cancellation) the partial sweep keeps
// its pooled Stats but no Points.
func RunIntervalSweepContext(ctx context.Context, cfg IntervalSweepConfig) (*IntervalSweep, error) {
	cfg.defaults()
	g, err := newHeatGrid(cfg.RunSpec, cfg.Iterations, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	for i, c := range cfg.Intervals {
		for _, seed := range cfg.Seeds {
			g.cells = append(g.cells, gridCell{
				interval: i, mttf: cfg.MTTF, seed: seed,
				label: fmt.Sprintf("c=%d seed=%d", c, seed),
			})
		}
	}
	rows, stats, err := g.run(ctx)
	sweep := &IntervalSweep{Config: cfg, Stats: stats}
	if err != nil {
		return sweep, err
	}

	sweep.Baseline = rows[0].E1
	cells := rows[1+len(cfg.Intervals):]
	for i, c := range cfg.Intervals {
		point := IntervalSweepPoint{C: c, E1: rows[1+i].E1}
		var sumE2, sumF float64
		for _, r := range cells[i*len(cfg.Seeds):][:len(cfg.Seeds)] {
			sumE2 += Duration(r.E2).Seconds()
			sumF += float64(r.F)
		}
		point.MeanE2 = Seconds(sumE2 / float64(len(cfg.Seeds)))
		point.MeanF = sumF / float64(len(cfg.Seeds))
		sweep.Points = append(sweep.Points, point)
	}

	// Fit Daly's model: the per-cycle checkpoint cost δ comes from the
	// measured E1 slope (extra cycles vs the baseline's single one), the
	// solve time from the baseline.
	var deltaSum float64
	var deltaN int
	for _, p := range sweep.Points {
		cycles := cfg.Iterations/p.C - 1 // extra checkpoint cycles vs baseline
		if cycles > 0 {
			deltaSum += p.E1.Sub(sweep.Baseline).Seconds() / float64(cycles)
			deltaN++
		}
	}
	if deltaN > 0 {
		sweep.CheckpointCost = Seconds(deltaSum / float64(deltaN))
	}
	iterTime := Seconds(sweep.Baseline.Seconds() / float64(cfg.Iterations))
	dp := daly.Params{
		Solve: Duration(sweep.Baseline),
		Delta: sweep.CheckpointCost,
		MTTF:  cfg.MTTF,
	}
	if err := dp.Validate(); err == nil {
		for i, p := range sweep.Points {
			tau := Duration(p.C) * iterTime / Duration(Second) * Second
			sweep.Points[i].Daly = dp.ExpectedRuntime(tau)
		}
		if iterTime > 0 {
			sweep.DalyOptimal = dp.OptimalInterval().Seconds() / iterTime.Seconds()
		}
	}

	best := 0
	for i, p := range sweep.Points {
		if p.MeanE2 < sweep.Points[best].MeanE2 {
			best = i
		}
	}
	if len(sweep.Points) > 0 {
		sweep.BestMeasured = sweep.Points[best].C
	}
	return sweep, nil
}

// Render prints the sweep series with the Daly comparison.
func (s *IntervalSweep) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint interval sweep: %d ranks, MTTF %.0f s, %d seeds averaged\n",
		s.Config.Ranks, s.Config.MTTF.Seconds(), len(s.Config.Seeds))
	fmt.Fprintf(&b, "baseline (single checkpoint): %.0f s; empirical checkpoint-cycle cost δ ≈ %.1f s\n\n",
		s.Baseline.Seconds(), s.CheckpointCost.Seconds())
	header := []string{"C", "E1", "mean E2", "mean F", "Daly E[T]"}
	var rows [][]string
	for _, p := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.C),
			fmt.Sprintf("%.0f s", p.E1.Seconds()),
			fmt.Sprintf("%.0f s", p.MeanE2.Seconds()),
			fmt.Sprintf("%.1f", p.MeanF),
			fmt.Sprintf("%.0f s", p.Daly.Seconds()),
		})
	}
	b.WriteString(stats.Table(header, rows))
	fmt.Fprintf(&b, "\nmeasured best interval: %d iterations; Daly optimum: %.0f iterations\n",
		s.BestMeasured, s.DalyOptimal)
	return b.String()
}
