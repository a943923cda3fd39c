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

func (p *IntervalSweepParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) (CampaignStats, error) {
	res, stats, err := runIntervalSweep(ctx, rs, *p)
	out.Sweep = res
	return stats, err
}

// runIntervalSweep measures E2 across checkpoint intervals and fits Daly's
// model to the same scenario. It is the heat grid's free arm with one cell
// per (interval, seed), interval-major; each campaign's failure draws
// depend only on its seed, so the sweep is identical at any pool size.
func runIntervalSweep(ctx context.Context, rs RunSpec, p IntervalSweepParams) (*IntervalSweepOutcome, CampaignStats, error) {
	p.defaults(&rs)
	mttf := Seconds(p.MTTFSeconds)
	g, err := newHeatGrid(rs, p.Iterations, p.Intervals)
	if err != nil {
		return nil, CampaignStats{}, err
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
	if err != nil {
		return nil, stats, err
	}

	baseline := rows[0].E1
	sweep := &IntervalSweepOutcome{BaselineNS: int64(baseline)}
	cells := rows[1+len(p.Intervals):]
	for i, c := range p.Intervals {
		var sumE2, sumF float64
		for _, r := range cells[i*len(p.Seeds):][:len(p.Seeds)] {
			sumE2 += Duration(r.E2).Seconds()
			sumF += float64(r.F)
		}
		sweep.Points = append(sweep.Points, WireSweepPoint{
			C:        c,
			E1NS:     int64(rows[1+i].E1),
			MeanE2NS: int64(Seconds(sumE2 / float64(len(p.Seeds)))),
			MeanF:    sumF / float64(len(p.Seeds)),
		})
	}

	// Fit Daly's model: the per-cycle checkpoint cost δ comes from the
	// measured E1 slope (extra cycles vs the baseline's single one), the
	// solve time from the baseline.
	var deltaSum float64
	var deltaN int
	for _, pt := range sweep.Points {
		cycles := p.Iterations/pt.C - 1 // extra checkpoint cycles vs baseline
		if cycles > 0 {
			deltaSum += Time(pt.E1NS).Sub(baseline).Seconds() / float64(cycles)
			deltaN++
		}
	}
	var delta Duration
	if deltaN > 0 {
		delta = Seconds(deltaSum / float64(deltaN))
	}
	sweep.CheckpointCostNS = int64(delta)
	iterTime := Seconds(baseline.Seconds() / float64(p.Iterations))
	dp := daly.Params{
		Solve: Duration(baseline),
		Delta: delta,
		MTTF:  mttf,
	}
	if err := dp.Validate(); err == nil {
		for i, pt := range sweep.Points {
			tau := Duration(pt.C) * iterTime / Duration(Second) * Second
			sweep.Points[i].DalyNS = int64(dp.ExpectedRuntime(tau))
		}
		if iterTime > 0 {
			sweep.DalyOptimalIters = dp.OptimalInterval().Seconds() / iterTime.Seconds()
		}
	}

	best := 0
	for i, pt := range sweep.Points {
		if pt.MeanE2NS < sweep.Points[best].MeanE2NS {
			best = i
		}
	}
	if len(sweep.Points) > 0 {
		sweep.BestMeasured = sweep.Points[best].C
	}
	return sweep, stats, nil
}

// render prints the sweep series with the Daly comparison.
func (p *IntervalSweepParams) render(rs RunSpec, out *CampaignOutcome) string {
	s := out.Sweep
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint interval sweep: %d ranks, MTTF %.0f s, %d seeds averaged\n",
		rs.Ranks, p.MTTFSeconds, len(p.Seeds))
	fmt.Fprintf(&b, "baseline (single checkpoint): %.0f s; empirical checkpoint-cycle cost δ ≈ %.1f s\n\n",
		Duration(s.BaselineNS).Seconds(), Duration(s.CheckpointCostNS).Seconds())
	header := []string{"C", "E1", "mean E2", "mean F", "Daly E[T]"}
	var rows [][]string
	for _, pt := range s.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.C),
			fmt.Sprintf("%.0f s", Duration(pt.E1NS).Seconds()),
			fmt.Sprintf("%.0f s", Duration(pt.MeanE2NS).Seconds()),
			fmt.Sprintf("%.1f", pt.MeanF),
			fmt.Sprintf("%.0f s", Duration(pt.DalyNS).Seconds()),
		})
	}
	b.WriteString(stats.Table(header, rows))
	fmt.Fprintf(&b, "\nmeasured best interval: %d iterations; Daly optimum: %.0f iterations\n",
		s.BestMeasured, s.DalyOptimalIters)
	return b.String()
}
