package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"xsim"
)

// runArgs runs the command in-process and returns its exit status and
// output streams.
func runArgs(ctx context.Context, args ...string) (status int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	status = run(ctx, args, &out, &errOut)
	return status, out.String(), errOut.String()
}

// TestBadCommandLinesExitTwoBeforeAnythingRuns pins the front door's input
// checking: every value passes CampaignSpec.Validate, a flag that is not a
// field of the chosen kind is an error, never ignored, and an unknown kind
// lists the kind table. None of them starts a simulation or prints a
// stack trace.
func TestBadCommandLinesExitTwoBeforeAnythingRuns(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // stderr must contain
	}{
		{[]string{"table2", "-iterations", "-5"}, `"table2.iterations": must be non-negative, got -5`},
		{[]string{"table2", "-ranks", "-1"}, `"ranks": must be non-negative, got -1`},
		{[]string{"table1", "-workers", "-2"}, `"workers": must be non-negative, got -2`},
		{[]string{"io-ablation", "-pool", "-3"}, `"pool": must be non-negative, got -3`},
		{[]string{"table2", "-ranks", "64", "-trials", "3"}, "flag provided but not defined: -trials"},
		{[]string{"table2", "-intervals", "100,x"}, `invalid value "100,x" for flag -intervals`},
		{[]string{"table2", "-version", "2"}, `"version": unsupported spec version 2`},
		{[]string{"table2", "stray"}, `unexpected argument "stray"`},
		{[]string{"replication-crossover", "-degrees", "5"}, `"replication_crossover.degrees[0]": ranks 24 must be divisible by degree 5`},
		{[]string{"io-ablation", "-ranks", "8", "-iterations", "8", "-intervals", "4", "-mttf-seconds", "20", "-delta-fraction", "1"},
			`"io_ablation.delta_fraction": heat: DeltaFraction 1 outside [0, 1)`},
		{[]string{"table3"}, "(known: [table1 table2 interval-sweep first-impressions replication-crossover io-ablation])"},
		{[]string{"-app", "nope"}, `unknown app "nope"`},
		{[]string{"-app", "heat", "-metrics"}, "-app heat is a restart chain"},
		{[]string{"-failures", "garbage"}, "-failures"},
		{[]string{"reliability", "-nodes", "0"}, "system needs nodes"},
	} {
		status, stdout, stderr := runArgs(context.Background(), tc.args...)
		if status != 2 || !strings.Contains(stderr, tc.want) || stdout != "" || strings.Contains(stderr, "goroutine ") {
			t.Errorf("%v: status %d, stdout %q, stderr %q; want status 2 and stderr containing %q",
				tc.args, status, stdout, stderr, tc.want)
		}
	}
}

// TestExitStatusTable pins the one mapping from error class to exit
// status, then drives each class that a command line can reach through
// run itself.
func TestExitStatusTable(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{errUsage, 2},
		{fmt.Errorf("%w: x", errUsage), 2},
		{fmt.Errorf("job 3: %w", &xsim.SpecError{Field: "ranks", Msg: "x"}), 2},
		{fmt.Errorf("cell 2: %w at 3s", xsim.ErrCancelled), 130},
		{fmt.Errorf("skipped: %w", context.Canceled), 130},
		{fmt.Errorf("cell 2: %w", xsim.ErrAborted), 1},
		{fmt.Errorf("run 0: %w", xsim.ErrDeadlock), 1},
		{fmt.Errorf("run 2: %w", xsim.ErrClockOverflow), 1},
		{os.ErrNotExist, 1},
	} {
		if got := exitStatus(tc.err); got != tc.want {
			t.Errorf("exitStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx  context.Context
		args []string
		want int
		msg  string // stderr must contain
	}{
		{context.Background(), []string{"table2", "-help"}, 0, "-mttf-seconds"},
		{context.Background(), []string{"-campaign", "testdata/no-such-spec.json"}, 1, "no such file"},
		{context.Background(), []string{"-campaign", "main.go"}, 2, "spec:"},
		// One failure per ~4 s of a ~1050 s run and a single permitted run:
		// the restart chain gives up, which is ErrAborted.
		{context.Background(), []string{"table2", "-ranks", "8", "-iterations", "200", "-intervals", "100", "-mttf-seconds", "4", "-max-runs", "1"}, 1, "did not complete"},
		{cancelled, []string{"table2", "-ranks", "8", "-iterations", "8"}, 130, "cancel"},
		{cancelled, []string{"-app", "ring", "-ranks", "4"}, 130, "cancelled"},
	} {
		status, _, stderr := runArgs(tc.ctx, tc.args...)
		if status != tc.want || !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: status %d, stderr %q; want status %d and stderr containing %q",
				tc.args, status, stderr, tc.want, tc.msg)
		}
	}
}

// TestProfileFlagsWriteBothFiles runs a small campaign, and a demo
// application, with -cpuprofile and -memprofile and checks that both files
// hold a profile afterwards and that the run printed what it prints without
// them; a profile that cannot be created is a usage error before anything
// runs.
func TestProfileFlagsWriteBothFiles(t *testing.T) {
	for _, argv := range []string{"table2 -ranks 64 -iterations 20", "-app ring -ranks 8"} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
		args := strings.Fields(argv)
		_, plain, _ := runArgs(context.Background(), args...)
		status, stdout, stderr := runArgs(context.Background(), append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
		if status != 0 || stderr != "" {
			t.Fatalf("%s: status %d, stderr %q", argv, status, stderr)
		}
		if strings.HasPrefix(argv, "table2") && stdout != plain { // -app prints its wall time
			t.Errorf("%s: output differs under profiling:\n%s\nvs\n%s", argv, stdout, plain)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("%s: profile %s: %v, empty=%v", argv, filepath.Base(path), err, err == nil)
			}
		}

		missing := filepath.Join(dir, "no-such-dir", "x.prof")
		for _, flagName := range []string{"-cpuprofile", "-memprofile"} {
			status, stdout, stderr := runArgs(context.Background(), append(args, flagName, missing)...)
			if status != 2 || stdout != "" || !strings.Contains(stderr, flagName) {
				t.Errorf("%s %s into a missing directory: status %d, stdout %q, stderr %q", argv, flagName, status, stdout, stderr)
			}
		}
	}
}

// surfaceArgv spells each spec file of testdata/surface as a command line.
var surfaceArgv = map[string]string{
	"table1":                "table1 -seed 2013 -victims 10 -max-injections 50",
	"table2":                "table2 -ranks 64 -seed 133 -iterations 200 -intervals 100,50 -mttf-seconds 1000",
	"table2-paper-io":       "table2 -ranks 64 -seed 133 -iterations 200 -intervals 100,50 -mttf-seconds 1000 -paper-io",
	"interval-sweep":        "interval-sweep -ranks 64 -iterations 200 -intervals 100,50,25 -mttf-seconds 600 -seeds 133,134",
	"first-impressions":     "first-impressions -ranks 64 -seed 1 -iterations 200 -interval 25 -trials 6",
	"replication-crossover": "replication-crossover -ranks 12 -seed 7 -degrees 2,3 -mttf-seconds 100 -iterations 8 -compute-seconds 1 -halo-bytes 256 -checkpoint-seconds 2 -restart-seconds 2",
	"io-ablation":           "io-ablation -ranks 64 -seed 133 -iterations 60 -intervals 20 -mttf-seconds 150",
}

// TestFlagsFilesAndGoldensDescribeTheSameCampaigns holds the flag form to
// the wire form and to the recorded results: for every spec file under
// testdata/surface, the flag-built spec canonicalises to the file's bytes,
// -json prints the golden's outcome line (what -campaign on the file and
// the server return), and the default output contains the golden's
// rendering.
func TestFlagsFilesAndGoldensDescribeTheSameCampaigns(t *testing.T) {
	const dir = "../../testdata/surface"
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(surfaceArgv) {
		t.Fatalf("%d spec files under %s, %d command lines", len(files), dir, len(surfaceArgv))
	}
	for _, path := range files {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			argv := strings.Fields(surfaceArgv[name])
			if len(argv) == 0 {
				t.Fatalf("no command line for %s", path)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fromFile, err := xsim.DecodeCampaignSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fromFile.Canonical()
			if err != nil {
				t.Fatal(err)
			}
			fs, fromFlags, err := kindFlags(xsim.CampaignKind(argv[0]), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.Parse(argv[1:]); err != nil {
				t.Fatal(err)
			}
			if got, err := fromFlags.Canonical(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("flag-built spec differs from %s (err %v):\n got %s\nwant %s", path, err, got, want)
			}

			golden, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			outcome, rest, _ := strings.Cut(string(golden), "\n")
			_, render, _ := strings.Cut(rest, "\nrender:\n")

			status, stdout, stderr := runArgs(context.Background(), append(argv, "-json", "-pool", "1")...)
			if status != 0 || "outcome "+stdout != outcome+"\n" {
				t.Errorf("-json: status %d, stderr %q\n got outcome %swant %s", status, stderr, stdout, outcome)
			}
			status, stdout, stderr = runArgs(context.Background(), "-campaign", path)
			if status != 0 || "outcome "+stdout != outcome+"\n" {
				t.Errorf("-campaign: status %d, stderr %q\n got outcome %swant %s", status, stderr, stdout, outcome)
			}
			status, stdout, stderr = runArgs(context.Background(), argv...)
			if status != 0 || !strings.Contains(stdout, render) {
				t.Errorf("table: status %d, stderr %q\n got:\n%s\nwant it to contain:\n%s", status, stderr, stdout, render)
			}
		})
	}
}

// jsonFlags lists the flag names of the JSON-tagged fields of struct type
// t, parameter blocks and the kind (the subcommand itself) excepted.
func jsonFlags(t reflect.Type) (names []string, blocks int) {
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		switch {
		case t.Field(i).Type.Kind() == reflect.Pointer:
			blocks++
		case name != "" && name != "kind":
			names = append(names, strings.ReplaceAll(name, "_", "-"))
		}
	}
	return names, blocks
}

// TestEveryWireFieldIsAFlag is what lets a field added to a parameter
// block (or to the trunk) become a flag with no edit here: each kind's
// generated flag set is exactly the trunk's JSON-tagged fields and its own
// block's, each with a usage text. The kinds come from the surface specs,
// which must cover every parameter block.
func TestEveryWireFieldIsAFlag(t *testing.T) {
	trunk, blocks := jsonFlags(reflect.TypeOf(xsim.CampaignSpec{}))
	kinds := map[xsim.CampaignKind]bool{}
	for name, argv := range surfaceArgv {
		kind := xsim.CampaignKind(strings.Fields(argv)[0])
		if kinds[kind] {
			continue
		}
		kinds[kind] = true
		fs, spec, err := kindFlags(kind, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := append([]string(nil), trunk...)
		// Exactly the kind's block has been allocated for binding.
		v := reflect.ValueOf(spec).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
				own, _ := jsonFlags(f.Type().Elem())
				if len(own) != f.Type().Elem().NumField() {
					t.Errorf("%s: %v has fields without a JSON tag", kind, f.Type())
				}
				want = append(want, own...)
			}
		}
		if len(want) == len(trunk) {
			t.Errorf("%s: no parameter block was bound", kind)
		}
		for _, name := range want {
			if f := fs.Lookup(name); f == nil || f.Usage == "" {
				t.Errorf("%s: wire field flag -%s missing or undocumented", kind, name)
			}
		}
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n != len(want) {
			t.Errorf("%s: %d flags generated, want the %d wire fields %v", kind, n, len(want), want)
		}
	}
	if len(kinds) != blocks {
		t.Errorf("surface specs cover %d kinds, CampaignSpec has %d parameter blocks", len(kinds), blocks)
	}
}

// TestHelpPrintsNormalizedDefaults: -help shows what Normalize would fill
// in, including the kind's own default world size, while an unset flag
// still leaves its field to Normalize (checked by the Canonical comparison
// above: first-impressions' MTTF follows -iterations 200).
func TestHelpPrintsNormalizedDefaults(t *testing.T) {
	for _, tc := range []struct {
		kind string
		want []string
	}{
		{"table2", []string{"-ranks value", "(default 32768)", "(default 500,250,125)", "(default 6000,3000)", "(default 2900000)", "-paper-io\n"}},
		{"first-impressions", []string{"(default 512)", "(default 1312.5)", "(default 125)"}},
		{"table1", []string{"simulated MPI ranks (unused by table1)", "-max-injections value", "(default 100)"}},
	} {
		status, stdout, stderr := runArgs(context.Background(), tc.kind, "-help")
		if status != 0 || stdout != "" {
			t.Errorf("%s -help: status %d, stdout %q", tc.kind, status, stdout)
		}
		for _, want := range tc.want {
			if !strings.Contains(stderr, want) {
				t.Errorf("%s -help lacks %q:\n%s", tc.kind, want, stderr)
			}
		}
	}
}

// TestHeatAppRestartsFromCheckpoint drives the fourth demo app: the
// scheduled failure aborts the first run and the chain completes from the
// last checkpoint, as program VPs.
func TestHeatAppRestartsFromCheckpoint(t *testing.T) {
	status, stdout, stderr := runArgs(context.Background(),
		"-app", "heat", "-ranks", "8", "-iterations", "40", "-interval", "10", "-failures", "3@60")
	if status != 0 || !strings.Contains(stdout, "injected: 3@60; 0 completed, 1 failed, 7 aborted") ||
		!strings.Contains(stdout, "over 2 runs, F = 1") {
		t.Errorf("status %d, stderr %q, stdout:\n%s", status, stderr, stdout)
	}
}
