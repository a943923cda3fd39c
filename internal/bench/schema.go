package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"strings"
)

// SchemaVersion is the run-file format this package writes and the only
// one it reads.
const SchemaVersion = 1

// Manifest is BENCHMARK.json: the benchmark's contract with the driver
// that runs it. The driver fixes its key set, so the file carries no
// schema_version or environment block; those live in the run files.
type Manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []ManifestWorkload `json:"workloads"`
	EndToEnd   []ManifestBounded  `json:"end_to_end"`
	PerLayer   []ManifestMetric   `json:"per_layer"`
}

// ManifestWorkload names one workload and the reason it exists.
type ManifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// ManifestMetric declares a per-layer metric.
type ManifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// ManifestBounded declares an end-to-end metric and the share of the
// parent's median by which it may worsen.
type ManifestBounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Environment records where a run file was measured. Numbers taken on
// one core say nothing about the parallel engine, so GOMAXPROCS is part
// of the record and Validate cross-checks it against the metrics.
type Environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// Sample is one metric of one workload: the reported value (a median
// where the harness repeated the measurement), its unit, and the
// repetitions behind it so a comparison can state the spread.
type Sample struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values,omitempty"`
}

// WorkloadResult is one workload's section of a run file.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	SimDigest string            `json:"sim_digest"`
	EndToEnd  map[string]Sample `json:"end_to_end"`
	PerLayer  map[string]Sample `json:"per_layer,omitempty"`
	Spans     []SpanSummary     `json:"spans,omitempty"`
}

// RunFile is what one invocation of the harness measured.
type RunFile struct {
	SchemaVersion int              `json:"schema_version"`
	Environment   Environment      `json:"environment"`
	Seed          int64            `json:"seed"`
	Seconds       int              `json:"seconds"`
	Quick         bool             `json:"quick"`
	Workloads     []WorkloadResult `json:"workloads"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// decodeStrict decodes exactly one JSON document into v, rejecting
// unknown fields and trailing data.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after the document")
	}
	return nil
}

// DecodeManifest parses and validates BENCHMARK.json.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := decodeStrict(data, &m); err != nil {
		return nil, fmt.Errorf("bench: manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func checkName(errs *[]error, seen map[string]bool, kind, name string) {
	if !nameRE.MatchString(name) {
		*errs = append(*errs, fmt.Errorf("%s name %q: must start with a letter or digit and hold at most 64 letters, digits, '_', '.' and '-'", kind, name))
	}
	if seen[name] {
		*errs = append(*errs, fmt.Errorf("%s name %q is used twice", kind, name))
	}
	seen[name] = true
}

func checkUnitBetter(errs *[]error, name, unit, better string) {
	if !unitRE.MatchString(unit) {
		*errs = append(*errs, fmt.Errorf("metric %q: illegal unit %q", name, unit))
	}
	if better != "lower" && better != "higher" {
		*errs = append(*errs, fmt.Errorf("metric %q: better must be \"lower\" or \"higher\", got %q", name, better))
	}
}

// Validate checks the manifest against the driver's limits, reporting
// every violation at once.
func (m *Manifest) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if len(m.Command) == 0 || len(m.Command) > 32 {
		bad("command: want 1 to 32 strings, got %d", len(m.Command))
	}
	if len(m.Paths) == 0 || len(m.Paths) > 16 {
		bad("paths: want 1 to 16 directories, got %d", len(m.Paths))
	}
	for _, p := range m.Paths {
		if p == "" || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("paths: %q must be a relative path inside the repository", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		bad("run_seconds: want 1 to 60, got %d", m.RunSeconds)
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		bad("workloads: want 2 to 8, got %d", len(m.Workloads))
	}
	seen := make(map[string]bool)
	for _, w := range m.Workloads {
		checkName(&errs, seen, "workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			bad("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 {
		bad("end_to_end: want 1 to 16 metrics, got %d", len(m.EndToEnd))
	}
	setup := false
	for _, e := range m.EndToEnd {
		checkName(&errs, seen, "metric", e.Name)
		checkUnitBetter(&errs, e.Name, e.Unit, e.Better)
		if e.Bound <= 0 || e.Bound > 0.25 {
			bad("metric %q: bound must be in (0, 0.25], got %v", e.Name, e.Bound)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		bad("end_to_end: needs setup_s with unit s and better lower")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		bad("per_layer: want 1 to 128 metrics, got %d", len(m.PerLayer))
	}
	for _, p := range m.PerLayer {
		checkName(&errs, seen, "metric", p.Name)
		checkUnitBetter(&errs, p.Name, p.Unit, p.Better)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("bench: manifest: %w", err)
	}
	return nil
}

// Validate checks the environment block: every field must be filled in.
func (e *Environment) Validate() error {
	var errs []error
	for _, f := range []struct{ name, v string }{
		{"goos", e.GOOS}, {"goarch", e.GOARCH}, {"cpu", e.CPU},
		{"go_version", e.GoVersion}, {"commit", e.Commit},
	} {
		if f.v == "" {
			errs = append(errs, fmt.Errorf("environment.%s is empty", f.name))
		}
	}
	if e.GoVersion != "" && !strings.HasPrefix(e.GoVersion, "go") {
		errs = append(errs, fmt.Errorf("environment.go_version %q does not look like a Go version", e.GoVersion))
	}
	if e.NProc < 1 {
		errs = append(errs, fmt.Errorf("environment.nproc must be at least 1, got %d", e.NProc))
	}
	if e.GOMAXPROCS < 1 {
		errs = append(errs, fmt.Errorf("environment.gomaxprocs must be at least 1, got %d", e.GOMAXPROCS))
	}
	return errors.Join(errs...)
}

// DecodeRunFile parses and validates a run file.
func DecodeRunFile(data []byte) (*RunFile, error) {
	var rf RunFile
	if err := decodeStrict(data, &rf); err != nil {
		return nil, fmt.Errorf("bench: run file: %w", err)
	}
	if err := rf.Validate(); err != nil {
		return nil, err
	}
	return &rf, nil
}

// ReadRunFile is DecodeRunFile over a path.
func ReadRunFile(path string) (*RunFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	rf, err := DecodeRunFile(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// Validate checks a run file: version, environment, metric names and
// units, and that nothing measured on a single processor claims to
// describe the parallel engine.
func (rf *RunFile) Validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if rf.SchemaVersion != SchemaVersion {
		bad("schema_version %d is not the supported version %d", rf.SchemaVersion, SchemaVersion)
	}
	if err := rf.Environment.Validate(); err != nil {
		errs = append(errs, err)
	}
	if rf.Seconds < 1 {
		bad("seconds must be at least 1, got %d", rf.Seconds)
	}
	workloads := make(map[string]bool)
	for _, w := range rf.Workloads {
		checkName(&errs, workloads, "workload", w.Name)
		if w.Attempted < 1 || w.Failed < 0 || w.Failed > w.Attempted {
			bad("workload %q: attempted %d / failed %d out of range", w.Name, w.Attempted, w.Failed)
		}
		if w.SimDigest == "" {
			bad("workload %q: sim_digest is empty", w.Name)
		}
		parallel := parallelWorkload(w.Name)
		for _, set := range []map[string]Sample{w.EndToEnd, w.PerLayer} {
			for name, s := range set {
				if !nameRE.MatchString(name) {
					bad("workload %q: illegal metric name %q", w.Name, name)
				}
				if !unitRE.MatchString(s.Unit) {
					bad("workload %q metric %q: illegal unit %q", w.Name, name, s.Unit)
				}
				if d, ok := metricByName[name]; ok && d.Parallel {
					parallel = true
				}
			}
		}
		if parallel && rf.Environment.GOMAXPROCS < 2 {
			bad("workload %q carries parallel-engine metrics but the environment records gomaxprocs %d", w.Name, rf.Environment.GOMAXPROCS)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("bench: run file: %w", err)
	}
	return nil
}

// currentEnvironment describes this process's host.
func currentEnvironment() Environment {
	env := Environment{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// cpuModel reads the processor name from /proc/cpuinfo, falling back to
// the architecture where that file does not exist.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				if _, v, ok := strings.Cut(name, ":"); ok {
					return strings.TrimSpace(v)
				}
			}
		}
	}
	return runtime.GOARCH
}
