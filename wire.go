// wire.go defines the versioned wire form of the Run-family campaign
// configurations: CampaignSpec is the JSON document the CLI drivers, the
// campaign service (cmd/xsim-server), and stored experiment definitions
// all exchange. One spec describes one campaign of a known kind (Table I,
// Table II, the interval sweep, the §V-D failure-mode study, the
// replication crossover, or the checkpoint-I/O ablation), and its
// canonical encoding — normalized defaults, sorted keys, execution knobs
// excluded — doubles as the content address under which the service
// caches results: identical (spec, seed) cells are deterministic, so they
// are computed exactly once no matter how many tenants ask.
package xsim

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"xsim/internal/procmodel"
	"xsim/internal/runner"
)

// SpecVersion is the wire-format version this package encodes and the
// only version it accepts. Bump it when a field changes meaning; old
// documents then fail Validate with a typed error instead of being
// silently reinterpreted (and cache keys can never collide across
// versions, because the version is part of the canonical encoding).
const SpecVersion = 1

// CampaignKind names a campaign family on the wire.
type CampaignKind string

// The campaign kinds: one per Run-family experiment driver.
const (
	// KindTableI is the paper's Table I bit-flip injection campaign
	// (RunTableIContext).
	KindTableI CampaignKind = "table1"
	// KindTableII is the paper's Table II checkpoint-interval × MTTF
	// sweep (RunTableIIContext).
	KindTableII CampaignKind = "table2"
	// KindIntervalSweep is the checkpoint-interval sweep against Daly's
	// model (RunIntervalSweepContext).
	KindIntervalSweep CampaignKind = "interval-sweep"
	// KindFirstImpressions is the §V-D failure-mode classification
	// (RunFirstImpressionsContext).
	KindFirstImpressions CampaignKind = "first-impressions"
	// KindCrossover is the replication-vs-checkpoint crossover study
	// (RunReplicationCrossoverContext).
	KindCrossover CampaignKind = "replication-crossover"
	// KindIOAblation is the Table II rerun with checkpoint-I/O cost on
	// (RunCheckpointIOAblationContext).
	KindIOAblation CampaignKind = "io-ablation"
)

// SpecError is a typed validation error naming the offending wire field;
// the campaign service maps it to a 400 response, and the CLI drivers to
// a usage failure. Several violations arrive joined with errors.Join;
// retrieve any one with errors.As.
type SpecError struct {
	// Field is the JSON path of the offending field ("" for
	// document-level problems such as malformed JSON).
	Field string
	// Msg describes the violation.
	Msg string
}

// Error implements error.
func (e *SpecError) Error() string {
	if e.Field == "" {
		return "spec: " + e.Msg
	}
	return fmt.Sprintf("spec: field %q: %s", e.Field, e.Msg)
}

// IsSpecError reports whether err carries a *SpecError (directly, wrapped,
// or joined) — the test the service's 400 mapping uses.
func IsSpecError(err error) bool {
	var se *SpecError
	return errors.As(err, &se)
}

// CampaignSpec is the versioned wire form of one campaign. The scalar
// trunk mirrors RunSpec (ranks, seed, per-call overhead, and the
// execution knobs workers/pool); exactly one kind-specific parameter
// block matches Kind. All durations travel as explicit units in the field
// name (_ns for virtual nanoseconds, _seconds for human-scale floats), so
// a document is meaningful without this package's type definitions.
//
// Workers and Pool are execution knobs: campaign results are bit-identical
// at any engine parallelism and pool size (the determinism the
// differential harness pins), so Canonical zeroes them and two specs
// differing only in knobs share one cache entry.
type CampaignSpec struct {
	// Version must be SpecVersion.
	Version int `json:"version" help:"wire-format version"`
	// Kind selects the campaign family and its parameter block.
	Kind CampaignKind `json:"kind"`
	// Ranks is the simulated MPI world size (kind-specific default;
	// unused by table1, which simulates victim process images).
	Ranks int `json:"ranks" help:"simulated MPI ranks (unused by table1)"`
	// Seed drives every random draw of the campaign; derived per-cell
	// seeds make results identical at any pool size.
	Seed int64 `json:"seed" help:"seed of every random draw of the campaign"`
	// CallOverheadNS is the per-MPI-call CPU cost in virtual
	// nanoseconds (0 = the paper's calibrated overhead).
	CallOverheadNS int64 `json:"call_overhead_ns" help:"CPU cost per MPI call in virtual ns"`
	// Workers is each run's engine parallelism (execution knob).
	Workers int `json:"workers" help:"engine partitions per run (0 = sequential; cannot change results)"`
	// Pool caps concurrently simulated runs (execution knob).
	Pool int `json:"pool" help:"runs in flight (0 = GOMAXPROCS/workers; cannot change results)"`

	// Exactly the block matching Kind may be set; Normalize creates and
	// fills it with explicit defaults.
	TableI     *TableIParams           `json:"table1,omitempty"`
	TableII    *TableIIParams          `json:"table2,omitempty"`
	Sweep      *IntervalSweepParams    `json:"interval_sweep,omitempty"`
	Phases     *FirstImpressionsParams `json:"first_impressions,omitempty"`
	Crossover  *CrossoverParams        `json:"replication_crossover,omitempty"`
	IOAblation *IOAblationParams       `json:"io_ablation,omitempty"`
}

// TableIParams parameterises a table1 campaign (TableIConfig's wire
// form).
type TableIParams struct {
	Victims       int `json:"victims" help:"victim application instances"`
	MaxInjections int `json:"max_injections" help:"injection cap per victim"`
}

// TableIIParams parameterises a table2 campaign (TableIIConfig's wire
// form). PaperIO enables the paper's flat parallel-file-system cost model
// for checkpoints (Table II proper charges nothing).
type TableIIParams struct {
	Iterations  int       `json:"iterations" help:"total iteration count"`
	Intervals   []int     `json:"intervals" help:"checkpoint and halo-exchange intervals to sweep (unset: 1/2, 1/4, 1/8 of iterations)"`
	MTTFSeconds []float64 `json:"mttf_seconds" help:"system MTTFs to sweep, in seconds"`
	MaxRuns     int       `json:"max_runs" help:"cap on failure/restart cycles per cell (0 = 100)"`
	PaperIO     bool      `json:"paper_io" help:"charge checkpoints the paper's flat parallel-file-system cost"`
}

// IntervalSweepParams parameterises an interval-sweep campaign
// (IntervalSweepConfig's wire form).
type IntervalSweepParams struct {
	Iterations  int     `json:"iterations" help:"total iteration count"`
	Intervals   []int   `json:"intervals" help:"checkpoint intervals to sweep"`
	MTTFSeconds float64 `json:"mttf_seconds" help:"system MTTF in seconds"`
	Seeds       []int64 `json:"seeds" help:"one restart campaign per interval and seed (the trunk seed is unused)"`
}

// FirstImpressionsParams parameterises a first-impressions campaign
// (FirstImpressionsConfig's wire form).
type FirstImpressionsParams struct {
	Iterations  int     `json:"iterations" help:"total iteration count"`
	Interval    int     `json:"interval" help:"checkpoint and halo-exchange interval (unset: 1/8 of iterations)"`
	Trials      int     `json:"trials" help:"independent single-failure runs"`
	MTTFSeconds float64 `json:"mttf_seconds" help:"spread of the random failure times in seconds (unset: a quarter of the run)"`
}

// CrossoverParams parameterises a replication-crossover campaign
// (ReplicationCrossoverConfig's wire form).
type CrossoverParams struct {
	Degrees           []int     `json:"degrees" help:"replication degrees; each must divide ranks"`
	MTTFSeconds       []float64 `json:"mttf_seconds" help:"system MTTFs to sweep, in seconds"`
	Iterations        int       `json:"iterations" help:"stencil iterations"`
	ComputeSeconds    float64   `json:"compute_seconds" help:"compute per iteration in seconds"`
	HaloBytes         int       `json:"halo_bytes" help:"halo message size"`
	CheckpointSeconds float64   `json:"checkpoint_seconds" help:"cost of one checkpoint in seconds"`
	RestartSeconds    float64   `json:"restart_seconds" help:"cost of one restart in seconds"`
	MaxRuns           int       `json:"max_runs" help:"cap on failure/restart cycles per cell"`
}

// IOAblationParams parameterises an io-ablation campaign
// (CheckpointIOAblationConfig's wire form; the storage arms themselves
// are fixed to the paper's models).
type IOAblationParams struct {
	Iterations    int       `json:"iterations" help:"total iteration count"`
	Intervals     []int     `json:"intervals" help:"checkpoint and halo-exchange intervals to sweep (unset: 1/2, 1/4, 1/8 of iterations)"`
	MTTFSeconds   []float64 `json:"mttf_seconds" help:"system MTTFs to sweep, in seconds"`
	PayloadBytes  int       `json:"payload_bytes" help:"modelled checkpoint payload per rank"`
	DeltaFraction float64   `json:"delta_fraction" help:"share of the payload an incremental checkpoint writes"`
	FullEvery     int       `json:"full_every" help:"incremental arm: every n-th checkpoint is a full one"`
	MaxRuns       int       `json:"max_runs" help:"cap on failure/restart cycles per cell (0 = 100)"`
}

// --- decoding -------------------------------------------------------------

// DecodeCampaignSpec parses one JSON campaign spec. Unknown fields,
// malformed JSON, type mismatches, and trailing data are all rejected
// with a typed *SpecError; the decoded spec is returned exactly as
// written (call Normalize for defaults and Validate for semantic
// checks).
func DecodeCampaignSpec(data []byte) (*CampaignSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s CampaignSpec
	if err := dec.Decode(&s); err != nil {
		return nil, specDecodeError(err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, &SpecError{Msg: "trailing data after the spec document"}
	}
	return &s, nil
}

// ReadCampaignSpec is DecodeCampaignSpec over a reader.
func ReadCampaignSpec(r io.Reader) (*CampaignSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, &SpecError{Msg: fmt.Sprintf("reading spec: %v", err)}
	}
	return DecodeCampaignSpec(data)
}

// specDecodeError converts an encoding/json error into a *SpecError
// naming the field when the error carries one.
func specDecodeError(err error) error {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		return &SpecError{Field: typeErr.Field,
			Msg: fmt.Sprintf("cannot decode %s into %s", typeErr.Value, typeErr.Type)}
	}
	// DisallowUnknownFields reports `json: unknown field "name"`.
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, `json: unknown field "`); ok {
		return &SpecError{Field: strings.TrimSuffix(rest, `"`), Msg: "unknown field"}
	}
	return &SpecError{Msg: msg}
}

// --- the kind table -------------------------------------------------------

// campaignKind is one row of the kind table: everything the wire layer
// knows about one campaign family. Normalize, Validate (with its one-of
// rule) and RunWith all walk campaignKinds, so a kind is enumerated in
// exactly one place; DESIGN.md § Campaign service lists what adding one
// takes.
type campaignKind struct {
	kind CampaignKind
	// block is the JSON name of the kind's parameter block in CampaignSpec
	// and of its result block in CampaignOutcome.
	block   string
	present func(*CampaignSpec) bool
	// normalize resolves the block with no hooks attached.
	normalize func(*CampaignSpec)
	// validate range-checks the block; it is only called with the block
	// present, and its checker names every field under the block.
	validate func(*CampaignSpec, specChecker) []error
	// run executes the normalized, validated spec, fills the outcome's
	// SimTimeNS and result block, and hands back the driver result, which
	// prints itself as the table the CLI shows.
	run func(context.Context, *CampaignSpec, RunOptions, *CampaignOutcome) (renderer, error)
}

// renderer is what every experiment driver's result is.
type renderer = interface{ Render() string }

// campaignKinds is the kind table.
var campaignKinds = []campaignKind{
	{KindTableI, "table1", func(s *CampaignSpec) bool { return s.TableI != nil },
		func(s *CampaignSpec) { resolveTableI(s, RunOptions{}) }, validateTableI, runTableI},
	{KindTableII, "table2", func(s *CampaignSpec) bool { return s.TableII != nil },
		func(s *CampaignSpec) { resolveTableII(s, RunOptions{}) }, validateTableII, runTableII},
	{KindIntervalSweep, "interval_sweep", func(s *CampaignSpec) bool { return s.Sweep != nil },
		func(s *CampaignSpec) { resolveSweep(s, RunOptions{}) }, validateSweep, runSweep},
	{KindFirstImpressions, "first_impressions", func(s *CampaignSpec) bool { return s.Phases != nil },
		func(s *CampaignSpec) { resolvePhases(s, RunOptions{}) }, validatePhases, runPhases},
	{KindCrossover, "replication_crossover", func(s *CampaignSpec) bool { return s.Crossover != nil },
		func(s *CampaignSpec) { resolveCrossover(s, RunOptions{}) }, validateCrossover, runCrossover},
	{KindIOAblation, "io_ablation", func(s *CampaignSpec) bool { return s.IOAblation != nil },
		func(s *CampaignSpec) { resolveIOAblation(s, RunOptions{}) }, validateIOAblation, runIOAblation},
}

// kindRow returns the table row of kind, or nil when the kind is unknown.
func kindRow(kind CampaignKind) *campaignKind {
	for i := range campaignKinds {
		if campaignKinds[i].kind == kind {
			return &campaignKinds[i]
		}
	}
	return nil
}

// --- normalization --------------------------------------------------------

// clone deep-copies the spec (slices and parameter blocks included)
// through its own wire encoding.
func (s *CampaignSpec) clone() *CampaignSpec {
	data, err := json.Marshal(s)
	if err != nil {
		// A CampaignSpec of plain scalars and slices cannot fail to
		// marshal except for NaN/Inf floats, which Validate rejects.
		panic(fmt.Sprintf("xsim: clone: %v", err))
	}
	var c CampaignSpec
	if err := json.Unmarshal(data, &c); err != nil {
		panic(fmt.Sprintf("xsim: clone: %v", err))
	}
	return &c
}

// runSpec builds the RunSpec trunk the spec describes, attaching the
// caller's logger and progress hook. A wire campaign always runs its heat
// ranks as program VPs: the two modes are digest-identical, so the choice
// is not part of the document.
func (s *CampaignSpec) runSpec(opt RunOptions) RunSpec {
	return RunSpec{
		Ranks:        s.Ranks,
		Workers:      s.Workers,
		Seed:         s.Seed,
		CallOverhead: Duration(s.CallOverheadNS),
		Pool:         s.Pool,
		ProgMode:     true,
		Logf:         opt.Logf,
		OnProgress:   opt.OnProgress,
	}
}

// fromRunSpec copies the defaults-filled trunk back into wire form.
func (s *CampaignSpec) fromRunSpec(rs RunSpec) {
	s.Ranks = rs.Ranks
	s.CallOverheadNS = int64(rs.CallOverhead)
}

// secondsSlice converts a Duration slice to wire float seconds.
func secondsSlice(ds []Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// durationSlice converts wire float seconds to a Duration slice.
func durationSlice(ss []float64) []Duration {
	out := make([]Duration, len(ss))
	for i, s := range ss {
		out[i] = Seconds(s)
	}
	return out
}

// ensure allocates *block when the spec came without it.
func ensure[T any](block **T) *T {
	if *block == nil {
		*block = new(T)
	}
	return *block
}

// Normalize fills the spec's zero fields with the same defaults the
// experiment drivers apply — the kind's table row builds the driver
// config, runs its defaults path, and copies the result back — so a spec
// submitted over the wire and a config built from CLI flags describe runs
// identically, and the canonical encoding always carries explicit
// defaults. A spec of unknown kind or version is left untouched for
// Validate to reject.
func (s *CampaignSpec) Normalize() {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if k := kindRow(s.Kind); k != nil {
		k.normalize(s)
	}
}

// Each kind has one resolve function holding both directions of its
// Params↔Config mapping: it builds the driver config from the kind's
// block (created when missing), applies the driver's own defaults, and
// writes them back, so the block and trunk end up explicit and the
// returned config is the one they describe. Resolving twice changes
// nothing, which is what lets Normalize and RunWith share it.

func resolveTableI(s *CampaignSpec, opt RunOptions) TableIConfig {
	p := ensure(&s.TableI)
	cfg := TableIConfig{
		RunSpec:       s.runSpec(opt),
		Victims:       p.Victims,
		MaxInjections: p.MaxInjections,
	}
	cfg.defaults()
	p.Victims = cfg.Victims
	p.MaxInjections = cfg.MaxInjections
	return cfg
}

func resolveTableII(s *CampaignSpec, opt RunOptions) TableIIConfig {
	p := ensure(&s.TableII)
	cfg := TableIIConfig{
		RunSpec:    s.runSpec(opt),
		Iterations: p.Iterations,
		Intervals:  p.Intervals,
		MTTFs:      durationSlice(p.MTTFSeconds),
		MaxRuns:    p.MaxRuns,
	}
	if p.PaperIO {
		cfg.FSModel = PaperPFS()
	}
	cfg.defaults()
	s.fromRunSpec(cfg.RunSpec)
	p.Iterations = cfg.Iterations
	p.Intervals = cfg.Intervals
	p.MTTFSeconds = secondsSlice(cfg.MTTFs)
	p.MaxRuns = cfg.MaxRuns
	return cfg
}

func resolveSweep(s *CampaignSpec, opt RunOptions) IntervalSweepConfig {
	p := ensure(&s.Sweep)
	cfg := IntervalSweepConfig{
		RunSpec:    s.runSpec(opt),
		Iterations: p.Iterations,
		Intervals:  p.Intervals,
		MTTF:       Seconds(p.MTTFSeconds),
		Seeds:      p.Seeds,
	}
	cfg.defaults()
	s.fromRunSpec(cfg.RunSpec)
	p.Iterations = cfg.Iterations
	p.Intervals = cfg.Intervals
	p.MTTFSeconds = cfg.MTTF.Seconds()
	p.Seeds = cfg.Seeds
	return cfg
}

func resolvePhases(s *CampaignSpec, opt RunOptions) FirstImpressionsConfig {
	p := ensure(&s.Phases)
	cfg := FirstImpressionsConfig{
		RunSpec:    s.runSpec(opt),
		Iterations: p.Iterations,
		Interval:   p.Interval,
		Trials:     p.Trials,
		MTTF:       Seconds(p.MTTFSeconds),
	}
	cfg.defaults()
	s.fromRunSpec(cfg.RunSpec)
	p.Iterations = cfg.Iterations
	p.Interval = cfg.Interval
	p.Trials = cfg.Trials
	p.MTTFSeconds = cfg.MTTF.Seconds()
	return cfg
}

func resolveCrossover(s *CampaignSpec, opt RunOptions) ReplicationCrossoverConfig {
	p := ensure(&s.Crossover)
	cfg := ReplicationCrossoverConfig{
		RunSpec:             s.runSpec(opt),
		Degrees:             p.Degrees,
		MTTFs:               durationSlice(p.MTTFSeconds),
		Iterations:          p.Iterations,
		ComputePerIteration: Seconds(p.ComputeSeconds),
		HaloBytes:           p.HaloBytes,
		CheckpointCost:      Seconds(p.CheckpointSeconds),
		RestartCost:         Seconds(p.RestartSeconds),
		MaxRuns:             p.MaxRuns,
	}
	cfg.defaults()
	s.fromRunSpec(cfg.RunSpec)
	p.Degrees = cfg.Degrees
	p.MTTFSeconds = secondsSlice(cfg.MTTFs)
	p.Iterations = cfg.Iterations
	p.ComputeSeconds = cfg.ComputePerIteration.Seconds()
	p.HaloBytes = cfg.HaloBytes
	p.CheckpointSeconds = cfg.CheckpointCost.Seconds()
	p.RestartSeconds = cfg.RestartCost.Seconds()
	p.MaxRuns = cfg.MaxRuns
	return cfg
}

func resolveIOAblation(s *CampaignSpec, opt RunOptions) CheckpointIOAblationConfig {
	p := ensure(&s.IOAblation)
	cfg := CheckpointIOAblationConfig{
		RunSpec:           s.runSpec(opt),
		Iterations:        p.Iterations,
		Intervals:         p.Intervals,
		MTTFs:             durationSlice(p.MTTFSeconds),
		CheckpointPayload: p.PayloadBytes,
		DeltaFraction:     p.DeltaFraction,
		FullEvery:         p.FullEvery,
		MaxRuns:           p.MaxRuns,
	}
	cfg.defaults()
	s.fromRunSpec(cfg.RunSpec)
	p.Iterations = cfg.Iterations
	p.Intervals = cfg.Intervals
	p.MTTFSeconds = secondsSlice(cfg.MTTFs)
	p.PayloadBytes = cfg.CheckpointPayload
	p.DeltaFraction = cfg.DeltaFraction
	p.FullEvery = cfg.FullEvery
	p.MaxRuns = cfg.MaxRuns
	return cfg
}

// --- validation -----------------------------------------------------------

// specChecker collects Validate's violations as *SpecError values. The
// checker a kind's validator receives names every field under the kind's
// block; it travels by value and comes back as the grown errs, append
// style, so a clean spec validates without allocating.
type specChecker struct {
	block string
	errs  []error
}

func (v *specChecker) bad(field, format string, args ...any) {
	if v.block != "" {
		field = v.block + "." + field
	}
	v.errs = append(v.errs, &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)})
}

func (v *specChecker) nonNegative(field string, n int) {
	if n < 0 {
		v.bad(field, "must be non-negative, got %d", n)
	}
}

// heatIterations range-checks the iteration count of a kind that runs the
// paper's heat workload on the paper's processor model (a wire spec can
// change neither): a count whose modelled compute overruns the virtual
// clock is refused here, before the campaign is queued or its result
// cached, with the error the application itself would refuse it with.
func (v *specChecker) heatIterations(field string, n int) {
	v.nonNegative(field, n)
	hc := PaperHeatWorkload()
	hc.Iterations = n
	perIter := procmodel.Paper().ComputeTime(float64(hc.PointsPerRank()) * hc.PointCost)
	if err := hc.CheckClockRange(0, perIter); err != nil {
		v.bad(field, "%v", err)
	}
}

func (v *specChecker) intervals(field string, intervals []int) {
	for i, c := range intervals {
		if c <= 0 {
			v.bad(fmt.Sprintf("%s[%d]", field, i), "checkpoint interval must be positive, got %d", c)
		}
	}
}

func (v *specChecker) seconds(field string, x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		v.bad(field, "must be a non-negative finite number of seconds, got %v", x)
	}
}

func (v *specChecker) positiveSeconds(field string, xs []float64) {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			v.bad(fmt.Sprintf("%s[%d]", field, i), "must be a positive finite number of seconds, got %v", x)
		}
	}
}

// Validate checks the spec's wire-level semantics: version, a known kind,
// the one-of rule for parameter blocks, and field ranges. Violations are
// *SpecError values joined with errors.Join, each naming its JSON field,
// so the campaign service can return them all in one 400 response.
// Validation does not require Normalize: zero fields mean "use the
// default" and are always valid.
func (s *CampaignSpec) Validate() error {
	var v specChecker
	if s.Version != SpecVersion {
		v.bad("version", "unsupported spec version %d (this build speaks %d)", s.Version, SpecVersion)
	}
	if kindRow(s.Kind) == nil {
		known := make([]CampaignKind, len(campaignKinds))
		for i, k := range campaignKinds {
			known[i] = k.kind
		}
		v.bad("kind", "unknown campaign kind %q (known: %v)", s.Kind, known)
	}
	v.nonNegative("ranks", s.Ranks)
	v.nonNegative("workers", s.Workers)
	v.nonNegative("pool", s.Pool)
	if s.CallOverheadNS < 0 {
		v.bad("call_overhead_ns", "must be non-negative, got %d", s.CallOverheadNS)
	}

	// One-of: only the block matching Kind may be present, and that block
	// is range-checked.
	for i := range campaignKinds {
		k := &campaignKinds[i]
		if !k.present(s) {
			continue
		}
		if k.kind != s.Kind {
			v.bad(k.block, "parameter block does not match kind %q", s.Kind)
			continue
		}
		v.errs = k.validate(s, specChecker{block: k.block, errs: v.errs})
	}
	return errors.Join(v.errs...)
}

func validateTableI(s *CampaignSpec, v specChecker) []error {
	v.nonNegative("victims", s.TableI.Victims)
	v.nonNegative("max_injections", s.TableI.MaxInjections)
	return v.errs
}

func validateTableII(s *CampaignSpec, v specChecker) []error {
	p := s.TableII
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.positiveSeconds("mttf_seconds", p.MTTFSeconds)
	v.nonNegative("max_runs", p.MaxRuns)
	return v.errs
}

func validateSweep(s *CampaignSpec, v specChecker) []error {
	p := s.Sweep
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.seconds("mttf_seconds", p.MTTFSeconds)
	return v.errs
}

func validatePhases(s *CampaignSpec, v specChecker) []error {
	p := s.Phases
	v.heatIterations("iterations", p.Iterations)
	v.nonNegative("interval", p.Interval)
	v.nonNegative("trials", p.Trials)
	v.seconds("mttf_seconds", p.MTTFSeconds)
	return v.errs
}

func validateCrossover(s *CampaignSpec, v specChecker) []error {
	p := s.Crossover
	ranks := cmp.Or(s.Ranks, crossoverDefaultRanks)
	for i, r := range p.Degrees {
		if r < 2 {
			v.bad(fmt.Sprintf("degrees[%d]", i), "replication degree must be at least 2, got %d", r)
		} else if ranks%r != 0 {
			v.bad(fmt.Sprintf("degrees[%d]", i), "ranks %d must be divisible by degree %d", ranks, r)
		}
	}
	v.positiveSeconds("mttf_seconds", p.MTTFSeconds)
	v.nonNegative("iterations", p.Iterations)
	v.seconds("compute_seconds", p.ComputeSeconds)
	v.seconds("checkpoint_seconds", p.CheckpointSeconds)
	v.seconds("restart_seconds", p.RestartSeconds)
	v.nonNegative("halo_bytes", p.HaloBytes)
	v.nonNegative("max_runs", p.MaxRuns)
	return v.errs
}

func validateIOAblation(s *CampaignSpec, v specChecker) []error {
	p := s.IOAblation
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.positiveSeconds("mttf_seconds", p.MTTFSeconds)
	v.nonNegative("payload_bytes", p.PayloadBytes)
	if p.DeltaFraction < 0 || p.DeltaFraction > 1 || math.IsNaN(p.DeltaFraction) {
		v.bad("delta_fraction", "must be in [0, 1], got %v", p.DeltaFraction)
	}
	v.nonNegative("full_every", p.FullEvery)
	v.nonNegative("max_runs", p.MaxRuns)
	return v.errs
}

// --- canonical encoding ---------------------------------------------------

// Canonical returns the spec's canonical wire encoding: defaults made
// explicit (Normalize), execution knobs (workers, pool) zeroed because
// they cannot change results, and the JSON re-emitted with
// lexicographically sorted keys so the bytes do not depend on field
// declaration or input order. Two specs describing the same simulated
// campaign canonicalise to the same bytes — the property the
// content-addressed result cache is keyed on.
func (s *CampaignSpec) Canonical() ([]byte, error) {
	c := s.clone()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	c.Workers, c.Pool = 0, 0
	return canonicalMarshal(c)
}

// CacheKey returns the content address of the spec's canonical encoding
// (SHA-256, hex) — the key under which the campaign service stores and
// reuses results.
func (s *CampaignSpec) CacheKey() (string, error) {
	data, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalMarshal encodes v and re-encodes the document canonically.
func canonicalMarshal(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, &SpecError{Msg: fmt.Sprintf("encoding: %v", err)}
	}
	return canonicalJSON(raw)
}

// canonicalJSON re-encodes a JSON document deterministically: objects
// with sorted keys (encoding/json sorts map keys), numbers kept verbatim
// via json.Number, and no insignificant whitespace.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, &SpecError{Msg: fmt.Sprintf("canonicalising: %v", err)}
	}
	out, err := json.Marshal(v)
	if err != nil {
		return nil, &SpecError{Msg: fmt.Sprintf("canonicalising: %v", err)}
	}
	return out, nil
}

// --- progress events ------------------------------------------------------

// ProgressEvent is the wire form of one campaign-pool progress report:
// the event RunSpec.OnProgress receives and the campaign service streams
// to clients as NDJSON. Wall-clock quantities are split the way fairness
// accounting needs them: WaitNS is how long the run sat queued behind the
// pool, ElapsedNS how long it executed.
type ProgressEvent struct {
	// Index, Label, Seed identify the run within its campaign.
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
	// State is "started", "completed", or "failed".
	State string `json:"state"`
	// Attempt is always 1 (runs are never retried); the field stays so
	// recorded streams keep their bytes.
	Attempt int `json:"attempt"`
	// Error carries the run's error text for the failed state.
	Error string `json:"error,omitempty"`
	// ElapsedNS is the run's execution wall time in nanoseconds; WaitNS
	// its queue wait before a pool worker took it.
	ElapsedNS int64 `json:"elapsed_ns"`
	WaitNS    int64 `json:"wait_ns"`
	// Done, Failed, Total summarise the campaign so far.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Total  int `json:"total"`
}

// progressEvent converts the runner's progress report to wire form.
func progressEvent(p runner.Progress) ProgressEvent {
	ev := ProgressEvent{
		Index:     p.Spec.Index,
		Label:     p.Spec.Label,
		Seed:      p.Spec.Seed,
		State:     p.State.String(),
		Attempt:   p.Attempt,
		ElapsedNS: p.Elapsed.Nanoseconds(),
		WaitNS:    p.Wait.Nanoseconds(),
		Done:      p.Done,
		Failed:    p.Failed,
		Total:     p.Total,
	}
	if p.Err != nil {
		ev.Error = p.Err.Error()
	}
	return ev
}
