package xsim

import (
	"context"
	"fmt"
	"strings"

	"xsim/internal/daly"
	"xsim/internal/stats"
)

// IntervalSweepParams parameterises an interval-sweep campaign, the
// figure-style extension of Table II (Ranks defaults to 512). E2 is
// measured across a range of checkpoint intervals at a fixed system MTTF
// and compared with Daly's analytic expected-runtime model (the
// optimisation literature the paper cites) — locating the empirical
// optimum and the crossover between checkpointing too often and losing too
// much work. The trunk's Seed is unused: the sweep averages over the
// explicit Seeds list to smooth the random failure draws.
type IntervalSweepParams struct {
	Iterations  int     `json:"iterations" help:"total iteration count"`
	Intervals   []int   `json:"intervals" help:"checkpoint intervals to sweep"`
	MTTFSeconds float64 `json:"mttf_seconds" help:"system MTTF in seconds"`
	Seeds       []int64 `json:"seeds" help:"one restart campaign per interval and seed (the trunk seed is unused)"`
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
	// Ranks, MTTF and Seeds (how many were averaged) head the rendering.
	Ranks int
	MTTF  Duration
	Seeds int
	// Points holds the measured series, in the order of the swept
	// intervals.
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

// defaults fills the zero fields: 1,000 iterations, intervals
// 500/250/125/62/31, MTTF 3,000 s, three seeds starting at 133.
func (p *IntervalSweepParams) defaults(rs *RunSpec) {
	rs.defaults(512)
	if p.Iterations == 0 {
		p.Iterations = 1000
	}
	if len(p.Intervals) == 0 {
		p.Intervals = []int{500, 250, 125, 62, 31}
	}
	p.MTTFSeconds = clockSeconds(p.MTTFSeconds)
	if p.MTTFSeconds == 0 {
		p.MTTFSeconds = 3000
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []int64{133, 134, 135}
	}
}

func (p *IntervalSweepParams) validate(_ int, v specChecker) []error {
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.seconds("mttf_seconds", p.MTTFSeconds)
	return v.errs
}

func (p *IntervalSweepParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) (renderer, error) {
	res, err := RunIntervalSweepContext(ctx, rs, *p)
	if err != nil {
		return nil, err
	}
	out.SimTimeNS = int64(res.Stats.SimTime)
	out.Sweep = &IntervalSweepOutcome{
		BaselineNS:       int64(res.Baseline),
		CheckpointCostNS: int64(res.CheckpointCost),
		DalyOptimalIters: res.DalyOptimal,
		BestMeasured:     res.BestMeasured,
		Points:           make([]WireSweepPoint, len(res.Points)),
	}
	for i, pt := range res.Points {
		out.Sweep.Points[i] = WireSweepPoint{
			C:        pt.C,
			E1NS:     int64(pt.E1),
			MeanE2NS: int64(pt.MeanE2),
			MeanF:    pt.MeanF,
			DalyNS:   int64(pt.Daly),
		}
	}
	return res, nil
}

// RunIntervalSweepContext measures E2 across checkpoint intervals and fits
// Daly's model to the same scenario. It is the heat grid's free arm with
// one cell per (interval, seed), interval-major; each campaign's failure
// draws depend only on its seed, so the sweep is identical at any pool
// size. On error (a failed point, or cancellation) the partial sweep keeps
// its pooled Stats but no Points.
func RunIntervalSweepContext(ctx context.Context, rs RunSpec, p IntervalSweepParams) (*IntervalSweep, error) {
	p.defaults(&rs)
	mttf := Seconds(p.MTTFSeconds)
	g, err := newHeatGrid(rs, p.Iterations, p.Intervals)
	if err != nil {
		return nil, err
	}
	for i, c := range p.Intervals {
		for _, seed := range p.Seeds {
			g.cells = append(g.cells, gridCell{
				interval: i, mttf: mttf, seed: seed,
				label: fmt.Sprintf("c=%d seed=%d", c, seed),
			})
		}
	}
	rows, stats, err := g.run(ctx)
	sweep := &IntervalSweep{Ranks: rs.Ranks, MTTF: mttf, Seeds: len(p.Seeds), Stats: stats}
	if err != nil {
		return sweep, err
	}

	sweep.Baseline = rows[0].E1
	cells := rows[1+len(p.Intervals):]
	for i, c := range p.Intervals {
		point := IntervalSweepPoint{C: c, E1: rows[1+i].E1}
		var sumE2, sumF float64
		for _, r := range cells[i*len(p.Seeds):][:len(p.Seeds)] {
			sumE2 += Duration(r.E2).Seconds()
			sumF += float64(r.F)
		}
		point.MeanE2 = Seconds(sumE2 / float64(len(p.Seeds)))
		point.MeanF = sumF / float64(len(p.Seeds))
		sweep.Points = append(sweep.Points, point)
	}

	// Fit Daly's model: the per-cycle checkpoint cost δ comes from the
	// measured E1 slope (extra cycles vs the baseline's single one), the
	// solve time from the baseline.
	var deltaSum float64
	var deltaN int
	for _, pt := range sweep.Points {
		cycles := p.Iterations/pt.C - 1 // extra checkpoint cycles vs baseline
		if cycles > 0 {
			deltaSum += pt.E1.Sub(sweep.Baseline).Seconds() / float64(cycles)
			deltaN++
		}
	}
	if deltaN > 0 {
		sweep.CheckpointCost = Seconds(deltaSum / float64(deltaN))
	}
	iterTime := Seconds(sweep.Baseline.Seconds() / float64(p.Iterations))
	dp := daly.Params{
		Solve: Duration(sweep.Baseline),
		Delta: sweep.CheckpointCost,
		MTTF:  mttf,
	}
	if err := dp.Validate(); err == nil {
		for i, pt := range sweep.Points {
			tau := Duration(pt.C) * iterTime / Duration(Second) * Second
			sweep.Points[i].Daly = dp.ExpectedRuntime(tau)
		}
		if iterTime > 0 {
			sweep.DalyOptimal = dp.OptimalInterval().Seconds() / iterTime.Seconds()
		}
	}

	best := 0
	for i, pt := range sweep.Points {
		if pt.MeanE2 < sweep.Points[best].MeanE2 {
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
		s.Ranks, s.MTTF.Seconds(), s.Seeds)
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
