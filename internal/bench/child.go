package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// Every repetition of a workload runs in a re-exec'd copy of this binary:
// set up, run the workload once, exit. Peak RSS is then the child's own
// rusage, every repetition starts from the same cold heap a user's run
// starts from, and each one yields a set-up time, so setup_s is a median
// too. The parent passes the job in childEnv; the child answers with one
// JSON childReport on stdout.
const childEnv = "XSIM_BENCH_CHILD"

// childTimeout ends a child that hangs (a deadlocked simulation), so the
// harness fails inside the driver's 180 s limit; the slowest child, the
// layer drivers, takes about 20 s.
const childTimeout = 150 * time.Second

// childJob is what the parent asks a child to do.
type childJob struct {
	// Mode is "workload" (set up, then run the workload once) or "layers"
	// (run the per-layer drivers).
	Mode     string `json:"mode"`
	Workload string `json:"workload,omitempty"`
	Inputs   inputs `json:"inputs"`
	// Trace records spans around the repetition and returns them.
	Trace bool `json:"trace"`
	// Verify also runs the workload's expensive output check (the served
	// workload's direct reruns) after the timed repetition.
	Verify bool `json:"verify,omitempty"`
	// WantOutcome returns the canonical outcome document (golden
	// maintenance).
	WantOutcome bool `json:"want_outcome,omitempty"`
	// StartNS is the parent's clock just before it started the child, so
	// setup_s covers process start as a user sees it.
	StartNS int64 `json:"start_ns"`
}

// childReport is a child's answer: the cost and the checked outcome of
// one repetition.
type childReport struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"` // filled in by the parent from the child's rusage
	Extra      map[string]float64 `json:"extra,omitempty"`
	Digest     string             `json:"digest,omitempty"`
	Outcome    json.RawMessage    `json:"outcome,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Notes      []string           `json:"notes,omitempty"`
	Counts     counts             `json:"counts"`
	Spans      []Span             `json:"spans,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// isChild reports whether this process was started by runChild.
func isChild() bool { return os.Getenv(childEnv) != "" }

// childMain runs the job in childEnv and writes the report to stdout. It
// returns the process exit code.
func childMain(stdout, stderr io.Writer) int {
	var job childJob
	if err := decodeStrict([]byte(os.Getenv(childEnv)), &job); err != nil {
		fmt.Fprintf(stderr, "xsim-bench child: bad job: %v\n", err)
		return 2
	}
	report, err := runJob(job)
	if err != nil {
		fmt.Fprintf(stderr, "xsim-bench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(report); err != nil {
		fmt.Fprintf(stderr, "xsim-bench child: %v\n", err)
		return 1
	}
	return 0
}

func runJob(job childJob) (*childReport, error) {
	if job.Mode == "layers" {
		layers, err := runLayers(job.Inputs)
		if err != nil {
			return nil, err
		}
		return &childReport{Layers: layers, Attempted: 1}, nil
	}
	w, ok := workloadByName(job.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", job.Workload)
	}

	// Set-up: generate the inputs, then run the workload once at the
	// quick scale so one-time initialisation (lazy tables, the HTTP
	// stack, the first goroutine pools) is charged to setup_s, not to
	// the timed repetition.
	inst, err := w.New(job.Inputs)
	if err != nil {
		return nil, err
	}
	warmIn := job.Inputs
	warmIn.Quick = true
	warm, err := w.New(warmIn)
	if err != nil {
		return nil, err
	}
	if _, err := warm.Rep(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	report := &childReport{SetupS: time.Since(time.Unix(0, job.StartNS)).Seconds()}

	var tr *Tracer
	if job.Trace {
		tr = newTracer(w.Name)
	}
	cpu0 := processCPU()
	t0 := time.Now()
	res, err := inst.Rep(tr)
	report.WallS = time.Since(t0).Seconds()
	report.CPUS = (processCPU() - cpu0).Seconds()
	if err != nil {
		return nil, err
	}
	report.Extra, report.Counts = res.Extra, res.Counts
	report.Attempted, report.Failed, report.Notes = res.Attempted, res.Failed, res.Notes
	if report.Digest, report.Outcome, err = digestOf(res.Outcome); err != nil {
		return nil, err
	}
	if v, ok := inst.(interface {
		VerifyFinal(*Tracer) (int, int, []string)
	}); ok && job.Verify {
		a, f, notes := v.VerifyFinal(tr)
		report.Attempted += a
		report.Failed += f
		report.Notes = append(report.Notes, notes...)
	}
	if !job.WantOutcome {
		report.Outcome = nil
	}
	report.Spans = tr.Spans()
	return report, nil
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runChild re-executes this binary to run job and waits for it to end.
func runChild(job childJob, stderr io.Writer) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	job.StartNS = time.Now().UnixNano()
	spec, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: child %s %s: %w", job.Mode, job.Workload, err)
	}
	var report childReport
	if err := decodeStrict(out.Bytes(), &report); err != nil {
		return nil, fmt.Errorf("bench: child %s %s: bad report: %w", job.Mode, job.Workload, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("bench: the child's rusage is not available on this platform")
	}
	report.PeakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return &report, nil
}
