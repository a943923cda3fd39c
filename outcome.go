// outcome.go defines the wire form of campaign results and the execution
// of a CampaignSpec through the kind table. A CampaignOutcome carries only
// the deterministic portion of a driver's result — the simulated rows,
// points, and histograms that depend solely on the spec and seed — never
// wall-clock accounting, so the same spec produces byte-identical
// canonical outcomes whether it ran via the CLI, the campaign service, or
// a cache replay on another machine.
package xsim

import (
	"context"
	"fmt"
)

// RunOptions carries the non-serializable execution hooks a caller
// attaches when running a CampaignSpec: both are side channels (logging,
// progress streaming) that cannot influence the outcome.
type RunOptions struct {
	// Logf receives simulator and campaign progress messages; nil
	// discards them.
	Logf func(format string, args ...any)
	// OnProgress receives one ProgressEvent per run state change of the
	// campaign pool; callbacks are never concurrent.
	OnProgress func(ProgressEvent)
}

// CampaignOutcome is the versioned wire form of one campaign's result.
// Exactly the block matching Kind is set. SimTimeNS pools the virtual
// time simulated across the campaign's runs — deterministic, unlike wall
// time, which deliberately does not appear here.
type CampaignOutcome struct {
	// Version is the wire-format version (SpecVersion).
	Version int `json:"version"`
	// Kind echoes the spec's campaign kind.
	Kind CampaignKind `json:"kind"`
	// SimTimeNS is the pooled virtual time simulated, in nanoseconds
	// (0 for table1, whose victims are process-image models).
	SimTimeNS int64 `json:"sim_time_ns"`

	TableI     *TableIOutcome           `json:"table1,omitempty"`
	TableII    *TableIIOutcome          `json:"table2,omitempty"`
	Sweep      *IntervalSweepOutcome    `json:"interval_sweep,omitempty"`
	Phases     *FirstImpressionsOutcome `json:"first_impressions,omitempty"`
	Crossover  *CrossoverOutcome        `json:"replication_crossover,omitempty"`
	IOAblation *IOAblationOutcome       `json:"io_ablation,omitempty"`
}

// WireSummary is the wire form of a sample summary: stats.Summary's fields
// under JSON names, so one converts to the other.
type WireSummary struct {
	N      int     `json:"n"`
	Sum    float64 `json:"sum"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Mode   float64 `json:"mode"`
	StdDev float64 `json:"stddev"`
}

// TableIOutcome is the wire form of the Table I bit-flip campaign result.
type TableIOutcome struct {
	Victims       int            `json:"victims"`
	Injections    int            `json:"injections"`
	Survived      int            `json:"survived"`
	ToFailure     []int          `json:"to_failure"`
	KillsByRegion map[string]int `json:"kills_by_region"`
	Summary       WireSummary    `json:"summary"`
}

// WireTableIIRow is one Table II cell on the wire; virtual times travel
// as _ns nanosecond integers.
type WireTableIIRow struct {
	MTTFSeconds float64 `json:"mttf_seconds"`
	C           int     `json:"c"`
	E1NS        int64   `json:"e1_ns"`
	E2NS        int64   `json:"e2_ns"`
	F           int     `json:"f"`
	MTTFaNS     int64   `json:"mttfa_ns"`
	Runs        int     `json:"runs"`
}

// TableIIOutcome is the wire form of the Table II grid.
type TableIIOutcome struct {
	Rows []WireTableIIRow `json:"rows"`
}

// WireSweepPoint is one interval-sweep point on the wire.
type WireSweepPoint struct {
	C        int     `json:"c"`
	E1NS     int64   `json:"e1_ns"`
	MeanE2NS int64   `json:"mean_e2_ns"`
	MeanF    float64 `json:"mean_f"`
	DalyNS   int64   `json:"daly_ns"`
}

// IntervalSweepOutcome is the wire form of the interval sweep.
type IntervalSweepOutcome struct {
	BaselineNS       int64            `json:"baseline_ns"`
	CheckpointCostNS int64            `json:"checkpoint_cost_ns"`
	DalyOptimalIters float64          `json:"daly_optimal_iters"`
	BestMeasured     int              `json:"best_measured"`
	Points           []WireSweepPoint `json:"points"`
}

// FirstImpressionsOutcome is the wire form of the §V-D failure-mode
// histograms.
type FirstImpressionsOutcome struct {
	Trials             int            `json:"trials"`
	FailedIn           map[string]int `json:"failed_in"`
	DetectedIn         map[string]int `json:"detected_in"`
	CheckpointOutcomes map[string]int `json:"checkpoint_outcomes"`
}

// WireCrossoverRow is one replication-crossover cell on the wire.
type WireCrossoverRow struct {
	MTTFSeconds float64 `json:"mttf_seconds"`
	Arm         string  `json:"arm"`
	Degree      int     `json:"degree"`
	Interval    int     `json:"interval"`
	E2NS        int64   `json:"e2_ns"`
	F           int     `json:"f"`
	Runs        int     `json:"runs"`
	PredictedNS int64   `json:"predicted_ns"`
}

// CrossoverOutcome is the wire form of the replication-crossover study.
type CrossoverOutcome struct {
	SolveNS int64              `json:"solve_ns"`
	Rows    []WireCrossoverRow `json:"rows"`
}

// WireIOAblationRow is one checkpoint-I/O-ablation cell on the wire: the
// storage arm plus Table II's columns, flattened into one JSON object.
type WireIOAblationRow struct {
	Arm string `json:"arm"`
	WireTableIIRow
}

// IOAblationOutcome is the wire form of the checkpoint-I/O ablation.
type IOAblationOutcome struct {
	Rows []WireIOAblationRow `json:"rows"`
}

// Canonical returns the outcome's canonical encoding (sorted keys, no
// insignificant whitespace) — the bytes the campaign service stores and
// the form in which results from different transports are compared.
func (o *CampaignOutcome) Canonical() ([]byte, error) {
	raw, err := canonicalMarshal(o)
	if err != nil {
		return nil, fmt.Errorf("xsim: encoding outcome: %w", err)
	}
	return raw, nil
}

// --- execution ------------------------------------------------------------

// RunWith normalizes and validates the spec (leaving the receiver
// untouched), runs the experiment driver of the kind's table row, and
// converts the result to its deterministic wire form. Validation failures
// return the same typed *SpecError values the decode path produces;
// driver errors (including cancellation) pass through unwrapped.
func (s *CampaignSpec) RunWith(ctx context.Context, opt RunOptions) (*CampaignOutcome, error) {
	out, _, err := s.RunRendered(ctx, opt)
	return out, err
}

// RunRendered is RunWith that also hands back the driver's own result,
// whose Render is the human-readable table of the same campaign (what
// `xsim-run <kind>` prints).
func (s *CampaignSpec) RunRendered(ctx context.Context, opt RunOptions) (*CampaignOutcome, interface{ Render() string }, error) {
	c := s.clone()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	out := &CampaignOutcome{Version: SpecVersion, Kind: c.Kind}
	// Validate accepted the kind and Normalize created its block.
	res, err := kindRow(c.Kind).get(c, false).run(ctx, c.runSpec(opt), out)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// wireTableIIRow converts a Table II row to wire form.
func wireTableIIRow(r TableIIRow) WireTableIIRow {
	return WireTableIIRow{
		MTTFSeconds: r.MTTFs.Seconds(),
		C:           r.C,
		E1NS:        int64(r.E1),
		E2NS:        int64(r.E2),
		F:           r.F,
		MTTFaNS:     int64(r.MTTFa),
		Runs:        r.Runs,
	}
}
