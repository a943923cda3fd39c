// Command xsim-run is the simulator's command line. Its first argument
// names what to run.
//
// A campaign kind (table1, table2, interval-sweep, first-impressions,
// replication-crossover, io-ablation) runs that experiment family. The
// flags are the fields of the wire-form campaign spec (the JSON document
// xsim-server accepts at POST /v1/campaigns), one flag per field, so the
// command line is checked by the same Validate and resolved by the same
// defaults as a served campaign; -help lists a kind's fields:
//
//	xsim-run table1 -seed 2013                      # the paper's Table I
//	xsim-run table2 -seed 133                       # Table II at the paper's 32,768 ranks
//	xsim-run table2 -ranks 512 -seed 133 -pool 4    # scaled down, four grid cells at once
//	xsim-run table2 -ranks 64 -seed 133 -iterations 200 -intervals 100,50 -mttf-seconds 1000 -json
//
// The last line prints the canonical outcome encoding instead of the
// table, byte-identical to what -campaign prints for the same spec in a
// file ('-' = stdin) and to what the server's /v1/campaigns/{id}/result
// returns:
//
//	xsim-run -campaign testdata/surface/table2.json
//
// "reliability" explores the component-based system reliability model, and
// -app runs one of the built-in demo applications with optional failure
// injection (the schedule can also come from $XSIM_FAILURES, mirroring
// xSim's command-line/environment injection interface); heat is the
// paper's application, restarted from its checkpoints until it completes:
//
//	xsim-run reliability -nodes 32768 -schedule 5 -seed 7
//	xsim-run -app allreduce -ranks 1024 -failures "7@0.001"
//	xsim-run -app heat -ranks 64 -iterations 100 -interval 25 -failures "17@120"
//
// Beside a kind's fields and -app's own flags, -cpuprofile FILE and
// -memprofile FILE write runtime/pprof profiles of the run (go tool pprof
// reads them), so a slow run can say where the host time and memory went.
//
// SIGINT cancels at the next simulation window. Exit status: 0 success,
// 2 a bad command line or spec, 130 cancelled, 1 anything else (the
// application aborted, deadlocked, or I/O failed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"xsim"
	"xsim/internal/cliflags"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	status := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(status)
}

// run is the whole command: dispatch on the first argument, report the
// error, map it to the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	var err error
	switch {
	case len(args) > 0 && args[0] == "reliability":
		err = runReliability(ctx, args[1:], stdout, stderr)
	case len(args) > 0 && !strings.HasPrefix(args[0], "-"):
		err = runKind(ctx, xsim.CampaignKind(args[0]), args[1:], stdout, stderr)
	default:
		err = runApp(ctx, args, stdout, stderr)
	}
	if err != nil && err != errUsage && err != flag.ErrHelp {
		fmt.Fprintf(stderr, "xsim-run: %v\n", err)
	}
	return exitStatus(err)
}

// errUsage marks a bad command line. The flag package prints its own
// findings, which travel as the bare sentinel; this command's wrap it and
// are printed by run.
var errUsage = errors.New("usage")

// exitStatus is the one table from error class to exit status.
func exitStatus(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage), xsim.IsSpecError(err):
		return 2
	case errors.Is(err, xsim.ErrCancelled), errors.Is(err, context.Canceled):
		// Runs the pool never started report the context's own error.
		return 130
	default:
		return 1
	}
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parse parses args, which must be flags only.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%w: unexpected argument %q", errUsage, fs.Arg(0))
	}
	return nil
}

// logger returns the simulator's message sink: stderr with -v, else nil
// (the RunSpec convention for discarding messages).
func logger(verbose bool, stderr io.Writer) func(format string, args ...any) {
	if !verbose {
		return nil
	}
	return log.New(stderr, "", 0).Printf
}

// profiles is the pair of profiling flags every simulation mode takes.
// They describe the host process, not the simulated system, so they are
// flags of the command and not fields of the wire spec.
type profiles struct{ cpu, mem string }

func (p *profiles) bind(fs *flag.FlagSet) {
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write an allocation profile, taken when the run ends, to this file")
}

// createProfile creates the file a profiling flag names; no path, no file.
func createProfile(flagName, path string) (*os.File, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errUsage, flagName, err)
	}
	return f, nil
}

// start creates both files (a usage error if it cannot: nothing has run
// yet) and starts the CPU profile. The caller defers finish on its named
// error, so the CPU profile is stopped and the allocation profile written
// on whatever path the run leaves by; a failure to write one is reported
// unless the run already failed.
func (p *profiles) start() (finish func(*error), err error) {
	cpu, err := createProfile("-cpuprofile", p.cpu)
	mem, merr := createProfile("-memprofile", p.mem)
	if err == nil {
		err = merr
	}
	if err == nil && cpu != nil {
		if err = pprof.StartCPUProfile(cpu); err != nil {
			err = fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if err != nil {
		cpu.Close() // Close of a nil *os.File is an error, not a panic
		mem.Close()
		return nil, err
	}
	return func(runErr *error) {
		keep := func(err error) {
			if *runErr == nil {
				*runErr = err
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			keep(cpu.Close())
		}
		if mem != nil {
			runtime.GC() // bring the live-heap figures up to date
			keep(pprof.Lookup("allocs").WriteTo(mem, 0))
			keep(mem.Close())
		}
	}, nil
}

// kindFlags returns the flag form of a campaign kind. The flag set is the
// wire spec's own: the trunk's fields plus the fields of the kind's
// parameter block, bound to an otherwise empty spec, with the normalized
// spec supplying the defaults -help shows. Unknown kinds fail Validate,
// whose message lists the kind table.
func kindFlags(kind xsim.CampaignKind, stderr io.Writer) (*flag.FlagSet, *xsim.CampaignSpec, error) {
	spec := &xsim.CampaignSpec{Kind: kind}
	defaults := *spec
	defaults.Normalize()
	if err := defaults.Validate(); err != nil {
		return nil, nil, err
	}
	fs := newFlagSet("xsim-run "+string(kind), stderr)
	cliflags.Bind(fs, spec, &defaults)
	return fs, spec, nil
}

// runKind runs one campaign described by flags.
func runKind(ctx context.Context, kind xsim.CampaignKind, args []string, stdout, stderr io.Writer) (err error) {
	fs, spec, err := kindFlags(kind, stderr)
	if err != nil {
		return err
	}
	asJSON := fs.Bool("json", false, "print the canonical outcome JSON (as -campaign and xsim-server do) instead of the table")
	verbose := fs.Bool("v", false, "print simulator informational messages")
	var prof profiles
	prof.bind(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	finish, err := prof.start()
	if err != nil {
		return err
	}
	defer finish(&err)
	return runCampaign(ctx, spec, *asJSON, logger(*verbose, stderr), stdout)
}

// runCampaign validates and executes a spec and prints the driver's table
// or, with asJSON, the canonical outcome encoding: the same bytes
// xsim-server stores and serves for the identical spec, which is how the
// CI smoke proves the transports agree bit-for-bit.
func runCampaign(ctx context.Context, spec *xsim.CampaignSpec, asJSON bool, logf func(string, ...any), stdout io.Writer) error {
	out, table, err := spec.RunRendered(ctx, xsim.RunOptions{Logf: logf})
	if err != nil {
		return err
	}
	text := []byte(table)
	if asJSON {
		if text, err = out.Canonical(); err != nil {
			return err
		}
		text = append(text, '\n')
	}
	_, err = stdout.Write(text)
	return err
}

// runApp runs a demo application, or with -campaign a spec file.
func runApp(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := newFlagSet("xsim-run", stderr)
	var prof profiles
	prof.bind(fs)
	var (
		app        = fs.String("app", "ring", "application: ring, allreduce, ulfm, heat")
		ranks      = fs.Int("ranks", 64, "simulated MPI ranks")
		workers    = fs.Int("workers", 1, "engine partitions executing in parallel")
		rounds     = fs.Int("rounds", 3, "ring, allreduce, ulfm: communication rounds")
		iterations = fs.Int("iterations", 1000, "heat: total iteration count")
		interval   = fs.Int("interval", 0, "heat: checkpoint/halo-exchange interval (default: iterations)")
		failures   = fs.String("failures", os.Getenv("XSIM_FAILURES"), "failure schedule as rank@seconds,... (also via $XSIM_FAILURES)")
		traceOut   = fs.String("trace", "", "write a per-operation event timeline to this file (.json for Chrome trace-event format, anything else for CSV)")
		metrics    = fs.Bool("metrics", false, "print engine and MPI counters (and the per-rank trace summary when -trace is set)")
		campaign   = fs.String("campaign", "", "run a wire-form campaign spec from this file ('-' = stdin) and print the canonical outcome JSON")
		verbose    = fs.Bool("v", false, "print simulator informational messages")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage:\n  xsim-run <kind> [flags]       run a campaign (xsim-run <kind> -help lists its flags)\n"+
			"  xsim-run reliability [flags]  explore the system reliability model\n  xsim-run [flags]              run a demo application or a spec file:\n")
		fs.PrintDefaults()
	}
	if err := parse(fs, args); err != nil {
		return err
	}
	finish, err := prof.start()
	if err != nil {
		return err
	}
	defer finish(&err)
	logf := logger(*verbose, stderr)

	if *campaign != "" {
		spec, err := readSpec(*campaign)
		if err != nil {
			return err
		}
		return runCampaign(ctx, spec, true, logf, stdout)
	}

	sched, err := xsim.ParseSchedule(*failures)
	if err != nil {
		return fmt.Errorf("%w: -failures: %v", errUsage, err)
	}
	cfg := xsim.Config{Ranks: *ranks, Workers: *workers, Failures: sched, Logf: logf}
	var body xsim.App
	switch *app {
	case "ring":
		body = ringApp(*rounds)
	case "allreduce":
		body = allreduceApp(*rounds)
	case "ulfm":
		body = ulfmApp(*rounds)
	case "heat":
		if *traceOut != "" || *metrics {
			return fmt.Errorf("%w: -trace and -metrics describe one run, -app heat is a restart chain", errUsage)
		}
		return runHeat(ctx, cfg, *iterations, *interval, stdout)
	default:
		return fmt.Errorf("%w: unknown app %q (ring, allreduce, ulfm, heat)", errUsage, *app)
	}

	var tr *xsim.TraceBuffer
	if *traceOut != "" || *metrics {
		tr = xsim.NewTrace(1 << 20)
		cfg.Trace = tr
	}
	sim, err := xsim.New(cfg)
	if err != nil {
		return err
	}
	res, err := sim.RunContext(ctx, body)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s on %d ranks: simulated time %v (min %v avg %v), wall %v\n",
		*app, cfg.Ranks, res.SimTime, res.MinTime, res.AvgTime, res.WallTime)
	fmt.Fprintf(stdout, "%d completed, %d failed, %d aborted\n", res.Completed, res.Failed, res.Aborted)
	fmt.Fprintf(stdout, "energy: %s\n", res.Energy(xsim.PaperPower()))

	if *metrics {
		fmt.Fprint(stdout, res.MetricsReport())
		if err := tr.WriteSummary(stdout); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := writeTrace(tr, *traceOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %d events written to %s (%d dropped)\n", tr.Len(), *traceOut, tr.Dropped())
	}
	return nil
}

// readSpec decodes the wire-form campaign spec in the named file.
func readSpec(path string) (*xsim.CampaignSpec, error) {
	if path == "-" {
		return xsim.ReadCampaignSpec(os.Stdin)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return xsim.DecodeCampaignSpec(data)
}

// writeTrace exports the timeline, picking the format from the file
// extension: .json gets the Chrome trace-event format (load it in
// chrome://tracing or Perfetto), everything else CSV.
func writeTrace(tr *xsim.TraceBuffer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.EqualFold(filepath.Ext(path), ".json") {
		err = tr.WriteChromeTrace(f)
	} else {
		err = tr.WriteCSV(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// runHeat runs the paper's heat application as program VPs through one
// failure/restart chain (the scheduled failures strike the first run) and
// reports the paper's per-row metrics.
func runHeat(ctx context.Context, base xsim.Config, iterations, interval int, stdout io.Writer) error {
	if interval == 0 {
		interval = iterations
	}
	hc, err := xsim.HeatWorkloadFor(base.Ranks)
	if err != nil {
		return err
	}
	hc.Iterations = iterations
	hc.ExchangeInterval = interval
	hc.CheckpointInterval = interval
	base.CallOverhead = xsim.PaperCallOverhead

	res, err := xsim.Campaign{
		Base:             base,
		CheckpointPrefix: "heat",
		ProgFor:          func(int) func(rank int) xsim.Prog { return xsim.RunHeatProg(hc) },
	}.RunContext(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "heat: %d ranks, %d iterations, checkpoint interval %d\n", base.Ranks, iterations, interval)
	for _, run := range res.Runs {
		inj := "none"
		if run.Injected != nil {
			inj = run.Injected.String()
		}
		fmt.Fprintf(stdout, "  run %d: start %v end %v (injected: %s; %d completed, %d failed, %d aborted)\n",
			run.Run, run.Start, run.End, inj, run.Completed, run.Failed, run.Aborted)
	}
	fmt.Fprintf(stdout, "E2 = %.0f s over %d runs, F = %d, MTTF_a = %.0f s\n",
		res.E2.Seconds(), len(res.Runs), res.Failures, res.MTTFa().Seconds())
	return nil
}

// ringApp circulates a token around the rank ring, computing between hops.
func ringApp(rounds int) xsim.App {
	return func(e *xsim.Env) {
		defer e.Finalize()
		c := e.World()
		n := e.Size()
		next := (e.Rank() + 1) % n
		prev := (e.Rank() - 1 + n) % n
		for round := 0; round < rounds; round++ {
			e.Compute(1e7)
			if e.Rank() == 0 {
				if err := c.Send(next, round, []byte{byte(round)}); err != nil {
					return
				}
				if _, err := c.Recv(prev, round); err != nil {
					return
				}
			} else {
				msg, err := c.Recv(prev, round)
				if err != nil {
					return
				}
				if err := c.Send(next, round, msg.Data); err != nil {
					return
				}
			}
		}
	}
}

// allreduceApp repeatedly sums a vector across all ranks.
func allreduceApp(rounds int) xsim.App {
	return func(e *xsim.Env) {
		defer e.Finalize()
		c := e.World()
		for round := 0; round < rounds; round++ {
			e.Compute(1e7)
			sum, err := c.Allreduce([]float64{float64(e.Rank())}, xsim.OpSum)
			if err != nil {
				return
			}
			n := float64(e.Size())
			if want := n * (n - 1) / 2; sum[0] != want && e.Rank() == 0 {
				e.Logf("allreduce mismatch: %v != %v", sum[0], want)
			}
		}
	}
}

// ulfmApp runs allreduce rounds under ULFM recovery: when a rank fails,
// the survivors revoke, shrink, and continue on the smaller communicator.
func ulfmApp(rounds int) xsim.App {
	return func(e *xsim.Env) {
		defer e.Finalize()
		c := e.World()
		c.SetErrorHandler(xsim.ErrorsReturn)
		final, err := xsim.RunWithRecovery(c, 4, func(c *xsim.Comm, attempt int) error {
			for round := 0; round < rounds; round++ {
				e.Compute(1e7)
				if _, err := c.Allreduce([]float64{1}, xsim.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			e.Logf("recovery failed: %v", err)
			return
		}
		if final.Rank() == 0 && final.Size() != e.Size() {
			e.Logf("completed on a shrunk communicator of %d ranks (was %d)", final.Size(), e.Size())
		}
	}
}
