package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"xsim"
	"xsim/internal/reliability"
	"xsim/internal/vclock"
)

// runReliability explores the component-based system reliability model:
// it estimates the system MTTF of an n-node machine built from the default
// component model, and can emit failure schedules for the simulator's
// injection interface.
func runReliability(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("xsim-run reliability", stderr)
	var (
		nodes    = fs.Int("nodes", 32768, "system size in nodes (one simulated MPI rank per node)")
		samples  = fs.Int("samples", 100, "Monte-Carlo samples for the system MTTF estimate")
		schedule = fs.Int("schedule", 0, "emit this many first-failure draws as rank@seconds schedules")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	sys := reliability.System{Nodes: *nodes, Node: reliability.PaperNode()}
	if err := sys.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	fmt.Fprintf(stdout, "node model (series system):\n")
	for _, c := range sys.Node.Components {
		fmt.Fprintf(stdout, "  %-8s %s (mean TTF %.1f years)\n",
			c.Name, c.Dist.Name(), c.Dist.Mean().Seconds()/(365*24*3600))
	}

	const nodeSamples = 200
	rng := rand.New(rand.NewSource(*seed))
	var nodeYears float64
	for i := 0; i < nodeSamples; i++ {
		ttf, _ := sys.Node.SampleTTF(rng)
		nodeYears += ttf.Seconds() / (365 * 24 * 3600)
	}
	fmt.Fprintf(stdout, "\nnode MTTF ≈ %.1f years (sampled)\n", nodeYears/nodeSamples)

	mttf := sys.EstimateSystemMTTF(rand.New(rand.NewSource(*seed)), *samples)
	fmt.Fprintf(stdout, "system MTTF at %d nodes ≈ %.0f s (%.2f hours) over %d samples\n",
		*nodes, mttf.Seconds(), mttf.Seconds()/3600, *samples)
	fmt.Fprintf(stdout, "(the paper's Table II experiments use system MTTFs of 3,000 s and 6,000 s)\n")

	if *schedule > 0 {
		fmt.Fprintf(stdout, "\nfirst-failure schedules (rank@seconds, for xsim-run -app heat -failures / $XSIM_FAILURES):\n")
		src := sys.CampaignSource(*seed)
		for run := 0; run < *schedule; run++ {
			if err := context.Cause(ctx); err != nil {
				return err
			}
			s := src(run, vclock.Time(0))
			f := sys.FirstFailure(rand.New(rand.NewSource(*seed+int64(run))), 0)
			fmt.Fprintf(stdout, "  run %d: %s (component: %s)\n", run, xsim.Schedule(s).String(), f.Component)
		}
	}
	return nil
}
