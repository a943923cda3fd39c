package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// DefaultSeconds is how long one run measures each workload: the
// run_seconds of BENCHMARK.json.
const DefaultSeconds = 15

// Main is the xsim-bench command. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	if isChild() {
		return childMain(stdout, stderr)
	}
	fs := flag.NewFlagSet("xsim-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run only this workload and print the driver's one-line JSON result last")
		seed      = fs.Int64("seed", DefaultSeed, "workload seed: the only input the generated configs and specs depend on")
		seconds   = fs.Int("seconds", DefaultSeconds, "seconds each workload is repeated for")
		trace     = fs.Int("trace", 0, "0: end-to-end pass with tracing off; 1: traced pass producing the per-layer metrics")
		quick     = fs.Bool("quick", false, "run at the unit tests' scale (512 to 4,096 ranks)")
		out       = fs.String("out", "", "write the run file (JSON) here")
		traceOut  = fs.String("trace-out", "", "with -trace 1: write the spans here as Chrome trace-event JSON")
		compare   = fs.Bool("compare", false, "compare two run files: xsim-bench -compare BASE.json NEW.json")
		selfcheck = fs.Bool("selfcheck", false, "run the end-to-end pass twice and compare the second run with the first")
		manifest  = fs.Bool("manifest", false, "print BENCHMARK.json as the metric registry defines it")
		goldenOut = fs.String("write-golden", "", "regenerate the seed-133 goldens (both scales) into this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "xsim-bench: %v\n", err)
		return 1
	}

	switch {
	case *manifest:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(buildManifest(DefaultSeconds)); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two run files, got %d arguments", fs.NArg()))
		}
		a, err := ReadRunFile(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := ReadRunFile(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !Compare(a, b, stdout) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return fail(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	code := 0
	err := withScratch(func(scratch string) error {
		opt := options{Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: *trace == 1, Scratch: scratch, Stderr: stderr}
		if *goldenOut != "" {
			return writeGoldens(*goldenOut, opt)
		}
		rf, spans, err := runSet(selected, opt)
		if err != nil {
			return err
		}
		printRun(stdout, rf)
		runs := []*RunFile{rf}
		if *selfcheck {
			second, _, err := runSet(selected, opt)
			if err != nil {
				return err
			}
			printRun(stdout, second)
			if !Compare(rf, second, stdout) {
				code = 1
			}
			runs = append(runs, second)
		}
		if *out != "" {
			if err := writeJSONFile(*out, rf); err != nil {
				return err
			}
		}
		if *traceOut != "" {
			var buf bytes.Buffer
			if err := writeChromeTrace(&buf, spans); err != nil {
				return err
			}
			if err := os.WriteFile(*traceOut, buf.Bytes(), 0o644); err != nil {
				return err
			}
		}
		for _, run := range runs {
			for _, w := range run.Workloads {
				if w.Failed > 0 {
					fmt.Fprintf(stderr, "xsim-bench: %s: %d of %d operations failed\n", w.Name, w.Failed, w.Attempted)
					code = 1
				}
			}
		}
		if *name != "" {
			if len(rf.Workloads) != 1 {
				return fmt.Errorf("%s was not measured", *name)
			}
			return printDriverLine(stdout, rf.Workloads[0], opt.Trace)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return code
}

// runSet measures the selected workloads in one pass: end to end with
// tracing off, or the traced pass when opt.Trace is set.
func runSet(selected []workload, opt options) (*RunFile, []Span, error) {
	rf := &RunFile{
		SchemaVersion: SchemaVersion,
		Environment:   currentEnvironment(),
		Seed:          opt.Seed,
		Seconds:       opt.Seconds,
		Quick:         opt.Quick,
	}
	var layers map[string]float64
	if opt.Trace {
		var err error
		if layers, err = measureLayers(opt); err != nil {
			return nil, nil, err
		}
	}
	var spans []Span
	for _, w := range selected {
		if w.Parallel && runtime.GOMAXPROCS(0) < 2 {
			fmt.Fprintf(opt.Stderr, "xsim-bench: skipping %s: GOMAXPROCS is %d, and numbers from one processor say nothing about the parallel engine\n",
				w.Name, runtime.GOMAXPROCS(0))
			continue
		}
		if opt.Trace {
			res, s, err := measureTraced(w, opt, layers)
			if err != nil {
				return nil, nil, err
			}
			spans = append(spans, s...)
			rf.Workloads = append(rf.Workloads, *res)
			continue
		}
		res, err := measureEndToEnd(w, opt)
		if err != nil {
			return nil, nil, err
		}
		rf.Workloads = append(rf.Workloads, *res)
	}
	if err := rf.Validate(); err != nil {
		return nil, nil, err
	}
	return rf, spans, nil
}

// printRun prints every metric by name with its unit.
func printRun(out io.Writer, rf *RunFile) {
	e := rf.Environment
	fmt.Fprintf(out, "xsim-bench seed=%d seconds=%d quick=%v %s/%s %q nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rf.Seed, rf.Seconds, rf.Quick, e.GOOS, e.GOARCH, e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, w := range rf.Workloads {
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t\t\n", w.Name, w.SimDigest)
		fmt.Fprintf(tw, "%s\toperations\t%d attempted, %d failed\t\t\n", w.Name, w.Attempted, w.Failed)
		for _, set := range []map[string]Sample{w.EndToEnd, w.PerLayer} {
			names := make([]string, 0, len(set))
			for name := range set {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				s := set[name]
				reps := ""
				if len(s.Values) > 1 {
					reps = fmt.Sprintf("median of %d, spread %.1f%%", len(s.Values), 100*spreadShare(s.Values))
				}
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", w.Name, name, s.Value, s.Unit, reps)
			}
		}
		for _, sp := range w.Spans {
			fmt.Fprintf(tw, "%s\tspan %s\t%.4f self, %.4f total\ts\t%d spans\n", w.Name, sp.Name, sp.SelfS, sp.TotalS, sp.Count)
		}
	}
	tw.Flush()
}

// printDriverLine prints the one JSON object the benchmark driver reads
// from the last line of standard output: every end_to_end metric with
// tracing off, every per_layer metric with tracing on.
func printDriverLine(out io.Writer, w WorkloadResult, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, from := endToEndMetrics, w.EndToEnd
	if traced {
		defs, from = perLayerMetrics(), w.PerLayer
	}
	metrics := make(map[string]value)
	for _, d := range defs {
		if s, ok := from[d.Name]; ok {
			metrics[d.Name] = value{s.Value, s.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   w.Failed == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeGoldens runs every workload once per scale at DefaultSeed and
// writes the canonical outcomes and their digests.
func writeGoldens(path string, opt options) error {
	opt.Seed = DefaultSeed
	g := goldenFile{}
	for _, quick := range []bool{false, true} {
		opt.Quick = quick
		g[scaleName(quick)] = map[string]golden{}
		for _, w := range workloads {
			job := childJob{Mode: "workload", Workload: w.Name, Inputs: opt.inputs(), Verify: true, WantOutcome: true}
			report, err := runChild(job, opt.Stderr)
			if err != nil {
				return err
			}
			if report.Failed > 0 {
				return fmt.Errorf("%s: %d operations failed: %v", w.Name, report.Failed, report.Notes)
			}
			g[scaleName(quick)][w.Name] = golden{Digest: report.Digest, Outcome: report.Outcome}
		}
	}
	return writeJSONFile(path, g)
}
