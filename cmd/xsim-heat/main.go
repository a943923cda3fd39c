// Command xsim-heat runs the heat-equation application (the paper's
// targeted application) inside the simulator and regenerates the paper's
// evaluation:
//
//	xsim-heat -table2                 # Table II (scaled to -ranks)
//	xsim-heat -table2 -ranks 32768    # Table II at the paper's full scale
//	xsim-heat -table2 -pool 4         # four grid cells simulated at once
//	xsim-heat -phases                 # §V-D failure-mode classification
//	xsim-heat -io-ablation            # Table II with checkpoint-I/O cost on
//	                                  # (free vs flat PFS vs tiered vs tiered+incremental)
//	xsim-heat -mttf 3000 -interval 125
//	xsim-heat -failures "12@350,99@1200"
//
// The failure schedule can also come from the XSIM_FAILURES environment
// variable, mirroring xSim's command-line/environment injection interface.
// SIGINT cancels the run at the next simulation window; partial results
// are discarded.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"xsim"
	"xsim/internal/cliflags"
)

func main() {
	log.SetFlags(0)
	var (
		iterations = flag.Int("iterations", 1000, "total iteration count")
		interval   = flag.Int("interval", 0, "checkpoint/halo-exchange interval (default: iterations)")
		mttfSecs   = flag.Float64("mttf", 0, "system MTTF in seconds for random failure injection (0 = none)")
		failures   = flag.String("failures", os.Getenv("XSIM_FAILURES"), "failure schedule as rank@seconds,... (also via $XSIM_FAILURES)")
		table2     = flag.Bool("table2", false, "regenerate Table II (checkpoint interval × system MTTF sweep)")
		ioAblation = flag.Bool("io-ablation", false, "rerun the Table II sweep with checkpoint-I/O cost on (free vs flat PFS vs tiered vs tiered+incremental)")
		payloadMB  = flag.Int("payload-mb", 256, "modelled per-rank checkpoint payload in MiB for -io-ablation")
		sweep      = flag.Bool("sweep", false, "sweep the checkpoint interval against Daly's analytic optimum")
		phases     = flag.Bool("phases", false, "run the §V-D failure-mode classification")
		trials     = flag.Int("trials", 10, "trials for -phases")
		withIO     = flag.Bool("io", false, "enable the file-system cost model (checkpoint-I/O ablation)")
	)
	trunk := cliflags.Register(flag.CommandLine, cliflags.Options{
		Ranks:     512,
		RanksHelp: "simulated MPI ranks (32768 = the paper's scale)",
		Workers:   1,
		Seed:      133,
	})
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec, err := trunk.Spec()
	if err != nil {
		log.Fatal(err)
	}

	// The experiment families all end the same way: run, then render.
	var table interface{ Render() string }
	switch {
	case *ioAblation:
		fmt.Printf("checkpoint-I/O ablation: Table II with the I/O cost on\n")
		fmt.Printf("(%d simulated MPI ranks, %d iterations, %d MiB/rank checkpoints, seed %d)\n\n",
			spec.Ranks, *iterations, *payloadMB, spec.Seed)
		table, err = xsim.RunCheckpointIOAblationContext(ctx, xsim.CheckpointIOAblationConfig{
			RunSpec:           spec,
			Iterations:        *iterations,
			CheckpointPayload: *payloadMB << 20,
		})
	case *table2:
		cfg := xsim.TableIIConfig{
			RunSpec:    spec,
			Iterations: *iterations,
		}
		if *withIO {
			cfg.FSModel = xsim.PaperPFS()
		}
		fmt.Printf("Table II: varying the checkpoint interval and system MTTF\n")
		fmt.Printf("(%d simulated MPI ranks, %d iterations, seed %d)\n\n", spec.Ranks, *iterations, spec.Seed)
		table, err = xsim.RunTableIIContext(ctx, cfg)
	case *sweep:
		table, err = xsim.RunIntervalSweepContext(ctx, xsim.IntervalSweepConfig{
			RunSpec:    spec,
			Iterations: *iterations,
			MTTF:       xsim.Seconds(*mttfSecs),
		})
	case *phases:
		table, err = xsim.RunFirstImpressionsContext(ctx, xsim.FirstImpressionsConfig{
			RunSpec:    spec,
			Iterations: *iterations,
			Interval:   *interval,
			Trials:     *trials,
		})
	default:
		runSingle(ctx, spec, *iterations, *interval, *mttfSecs, *failures, *withIO)
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(table.Render())
}

// runSingle runs one heat campaign (with restarts if failures strike) and
// reports the paper's per-row metrics.
func runSingle(ctx context.Context, spec xsim.RunSpec, iterations, interval int, mttfSecs float64, failures string, withIO bool) {
	if interval == 0 {
		interval = iterations
	}
	hc, err := xsim.HeatWorkloadFor(spec.Ranks)
	if err != nil {
		log.Fatal(err)
	}
	hc.Iterations = iterations
	hc.ExchangeInterval = interval
	hc.CheckpointInterval = interval

	sched, err := xsim.ParseSchedule(failures)
	if err != nil {
		log.Fatal(err)
	}
	base := xsim.Config{
		Ranks:        spec.Ranks,
		Workers:      spec.Workers,
		Failures:     sched,
		CallOverhead: xsim.PaperCallOverhead,
		Logf:         spec.Logf,
	}
	if withIO {
		base.FSModel = xsim.PaperPFS()
	}
	camp := xsim.Campaign{
		Base:             base,
		MTTF:             xsim.Seconds(mttfSecs),
		Seed:             spec.Seed,
		CheckpointPrefix: "heat",
	}
	if spec.ProgMode {
		camp.ProgFor = func(int) func(rank int) xsim.Prog { return xsim.RunHeatProg(hc) }
	} else {
		camp.AppFor = func(int) xsim.App { return xsim.RunHeat(hc) }
	}
	res, err := camp.RunContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat: %d ranks, %d iterations, checkpoint interval %d\n", spec.Ranks, iterations, interval)
	for _, run := range res.Runs {
		inj := "none"
		if run.Injected != nil {
			inj = run.Injected.String()
		}
		fmt.Printf("  run %d: start %v end %v (injected: %s; %d completed, %d failed, %d aborted)\n",
			run.Run, run.Start, run.End, inj, run.Completed, run.Failed, run.Aborted)
	}
	fmt.Printf("E2 = %.0f s over %d runs, F = %d, MTTF_a = %.0f s\n",
		res.E2.Seconds(), len(res.Runs), res.Failures, res.MTTFa().Seconds())
}
