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
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"xsim/internal/heat"
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
	// KindTableI is the paper's Table I bit-flip injection campaign.
	KindTableI CampaignKind = "table1"
	// KindTableII is the paper's Table II checkpoint-interval × MTTF
	// sweep (RunTableIIContext).
	KindTableII CampaignKind = "table2"
	// KindIntervalSweep is the checkpoint-interval sweep against Daly's
	// model.
	KindIntervalSweep CampaignKind = "interval-sweep"
	// KindFirstImpressions is the §V-D failure-mode classification.
	KindFirstImpressions CampaignKind = "first-impressions"
	// KindCrossover is the replication-vs-checkpoint crossover study.
	KindCrossover CampaignKind = "replication-crossover"
	// KindIOAblation is the Table II rerun with checkpoint-I/O cost on.
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

// kindBlock is what every kind's parameter block (*TableIParams, …) is:
// the block is the configuration of the kind's experiment driver, and the
// kind's outcome block is the driver's one result type, so the four things
// a kind decides are stated once, on the block.
type kindBlock interface {
	// defaults fills the block's zero fields, and the trunk's ranks and
	// call overhead, with the driver's defaults. Applying it twice changes
	// nothing.
	defaults(rs *RunSpec)
	// validate range-checks the block for a world of ranks (0 = the kind's
	// default); the checker names every field under the block.
	validate(ranks int, v specChecker) []error
	// run executes the normalized, validated block on rs, fills the
	// outcome's result block and returns the stats pooled over its
	// simulations (zero for table1, which simulates no ranks).
	run(ctx context.Context, rs RunSpec, out *CampaignOutcome) (CampaignStats, error)
	// render prints the result block run filled as the table the CLI
	// shows; rs and the block are the ones run was given.
	render(rs RunSpec, out *CampaignOutcome) string
}

// campaignKind is one row of the kind table. Normalize, Validate (with its
// one-of rule) and RunRendered all walk campaignKinds, so a kind is
// enumerated in exactly one place; DESIGN.md § Campaign service lists what
// adding one takes.
type campaignKind struct {
	kind CampaignKind
	// block is the JSON name of the kind's parameter block in CampaignSpec
	// and of its result block in CampaignOutcome.
	block string
	// get returns the spec's block of this kind, nil when the spec carries
	// none; with create set a missing block is allocated first.
	get func(s *CampaignSpec, create bool) kindBlock
}

// blockOf builds a row's accessor from the address of the spec's field.
func blockOf[T any, P interface {
	*T
	kindBlock
}](field func(*CampaignSpec) **T) func(*CampaignSpec, bool) kindBlock {
	return func(s *CampaignSpec, create bool) kindBlock {
		p := field(s)
		if *p == nil {
			if !create {
				return nil
			}
			*p = new(T)
		}
		return P(*p)
	}
}

// campaignKinds is the kind table.
var campaignKinds = []campaignKind{
	{KindTableI, "table1", blockOf(func(s *CampaignSpec) **TableIParams { return &s.TableI })},
	{KindTableII, "table2", blockOf(func(s *CampaignSpec) **TableIIParams { return &s.TableII })},
	{KindIntervalSweep, "interval_sweep", blockOf(func(s *CampaignSpec) **IntervalSweepParams { return &s.Sweep })},
	{KindFirstImpressions, "first_impressions", blockOf(func(s *CampaignSpec) **FirstImpressionsParams { return &s.Phases })},
	{KindCrossover, "replication_crossover", blockOf(func(s *CampaignSpec) **CrossoverParams { return &s.Crossover })},
	{KindIOAblation, "io_ablation", blockOf(func(s *CampaignSpec) **IOAblationParams { return &s.IOAblation })},
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
// caller's logger and progress hook. A wire campaign always runs its
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

// clockSeconds rounds wire seconds to what the virtual clock holds, whole
// nanoseconds. Every defaults path applies it (or its slice form,
// secondsSlice(durationSlice(…))) to the block's seconds fields, so two
// documents that run identically canonicalise identically, and a value the
// clock cannot hold comes back non-positive for validate to refuse.
func clockSeconds(s float64) float64 { return Seconds(s).Seconds() }

// Normalize fills the spec's zero fields with the defaults of the kind's
// experiment driver — the block's own defaults method, the one the driver
// calls — so a spec submitted over the wire and a block passed to the
// driver from Go describe runs identically, and the canonical encoding
// always carries explicit defaults. A spec of unknown kind or version is
// left untouched for Validate to reject.
func (s *CampaignSpec) Normalize() {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if k := kindRow(s.Kind); k != nil {
		rs := s.runSpec(RunOptions{})
		k.get(s, true).defaults(&rs)
		s.Ranks = rs.Ranks
		s.CallOverheadNS = int64(rs.CallOverhead)
	}
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
	hc := heat.PaperWorkload()
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
		block := k.get(s, false)
		if block == nil {
			continue
		}
		if k.kind != s.Kind {
			v.bad(k.block, "parameter block does not match kind %q", s.Kind)
			continue
		}
		v.errs = block.validate(s.Ranks, specChecker{block: k.block, errs: v.errs})
	}
	return errors.Join(v.errs...)
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

// ProgressEvent is one campaign-pool progress report: the event
// RunSpec.OnProgress receives and the campaign service streams to clients
// as NDJSON. The pool fills it in wire form; see runner.Progress for the
// fields.
type ProgressEvent = runner.Progress
