// outcome.go defines campaign results and the execution of a CampaignSpec
// through the kind table. Each kind's outcome block is its driver's one
// result type, and it holds only deterministic data — the simulated rows,
// points, and histograms that depend solely on the spec and seed — never
// wall-clock accounting, so the same spec produces byte-identical
// canonical outcomes whether it ran via the CLI, the campaign service, or
// a cache replay on another machine.
package xsim

import (
	"context"
	"fmt"

	"xsim/internal/softerror"
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

// TableIOutcome is the Table I bit-flip campaign result: the injection
// campaign's own report, whose fields carry their wire names.
type TableIOutcome = softerror.CampaignResult

// WireTableIIRow is one Table II cell on the wire; virtual times travel
// as _ns nanosecond integers.
type WireTableIIRow struct {
	// MTTFSeconds is the system MTTF (0 on the no-failure E1 rows, whose
	// E2, F and MTTFa are 0).
	MTTFSeconds float64 `json:"mttf_seconds"`
	// C is the checkpoint interval in iterations.
	C    int   `json:"c"`
	E1NS int64 `json:"e1_ns"`
	E2NS int64 `json:"e2_ns"`
	F    int   `json:"f"`
	// MTTFaNS is the experienced application MTTF, E2/(F+1).
	MTTFaNS int64 `json:"mttfa_ns"`
	// Runs is the number of application runs (1 + restarts).
	Runs int `json:"runs"`
}

// TableIIOutcome is the Table II grid: the baseline row, then one row per
// (MTTF, interval) cell.
type TableIIOutcome struct {
	Rows []WireTableIIRow `json:"rows"`
}

// WireSweepPoint is one interval-sweep point: the no-failure E1 at
// interval C, E2 and F averaged over the seeds, and Daly's expected
// runtime at C.
type WireSweepPoint struct {
	C        int     `json:"c"`
	E1NS     int64   `json:"e1_ns"`
	MeanE2NS int64   `json:"mean_e2_ns"`
	MeanF    float64 `json:"mean_f"`
	DalyNS   int64   `json:"daly_ns"`
}

// IntervalSweepOutcome is the interval sweep, one point per swept interval
// in sweep order.
type IntervalSweepOutcome struct {
	// BaselineNS is the no-failure, single-checkpoint execution time.
	BaselineNS int64 `json:"baseline_ns"`
	// CheckpointCostNS is the per-checkpoint-cycle cost derived from the
	// E1 measurements (Daly's δ).
	CheckpointCostNS int64 `json:"checkpoint_cost_ns"`
	// DalyOptimalIters is Daly's optimal interval in iterations.
	DalyOptimalIters float64 `json:"daly_optimal_iters"`
	// BestMeasured is the interval with the lowest mean E2.
	BestMeasured int              `json:"best_measured"`
	Points       []WireSweepPoint `json:"points"`
}

// FirstImpressionsOutcome holds the §V-D failure-mode histograms over the
// trials in which the failure activated: the phase the failed rank was
// in, the phases the surviving ranks aborted in (rank counts), and the
// post-abort checkpoint state ("corrupted-file", "incomplete-set",
// "partially-deleted-old-set", "clean", or "no-checkpoint").
type FirstImpressionsOutcome struct {
	Trials             int            `json:"trials"`
	FailedIn           map[string]int `json:"failed_in"`
	DetectedIn         map[string]int `json:"detected_in"`
	CheckpointOutcomes map[string]int `json:"checkpoint_outcomes"`
}

// WireCrossoverRow is one replication-crossover cell.
type WireCrossoverRow struct {
	MTTFSeconds float64 `json:"mttf_seconds"`
	// Arm is ArmCheckpoint, ArmReplication or ArmHybrid.
	Arm string `json:"arm"`
	// Degree is the replication degree (1 for the checkpoint arm).
	Degree int `json:"degree"`
	// Interval is the checkpoint interval in iterations (0 = none).
	Interval int   `json:"interval"`
	E2NS     int64 `json:"e2_ns"`
	F        int   `json:"f"`
	Runs     int   `json:"runs"`
	// PredictedNS is the analytic expectation: Daly's T(τ) for the
	// checkpoint arm, r×solve for failure-free replication, and r×solve
	// plus checkpoint overhead for the hybrid. Replication predictions
	// ignore restart cycles, so an E2 above the prediction measures how
	// often replicas were exhausted.
	PredictedNS int64 `json:"predicted_ns"`
}

// CrossoverOutcome is the replication-crossover study: the measured
// failure-free unreplicated solve time (the study's E1), then one row per
// (MTTF, arm, degree) cell in sweep order.
type CrossoverOutcome struct {
	SolveNS int64              `json:"solve_ns"`
	Rows    []WireCrossoverRow `json:"rows"`
}

// WireIOAblationRow is one checkpoint-I/O-ablation cell: the storage arm
// plus Table II's columns, flattened into one JSON object.
type WireIOAblationRow struct {
	// Arm is IOArmFree, IOArmFlatPFS, IOArmTiered or IOArmTieredIncr.
	Arm string `json:"arm"`
	WireTableIIRow
}

// IOAblationOutcome is the checkpoint-I/O ablation: per arm its baseline
// and interval E1 rows, then every arm's campaign cells.
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
// untouched) and runs the experiment driver of the kind's table row, which
// fills the kind's outcome block. Validation failures return the same typed
// *SpecError values the decode path produces; driver errors (including
// cancellation) pass through unwrapped.
func (s *CampaignSpec) RunWith(ctx context.Context, opt RunOptions) (*CampaignOutcome, error) {
	out, _, err := s.RunRendered(ctx, opt)
	return out, err
}

// RunRendered is RunWith that also prints the outcome as the
// human-readable table of the same campaign (what `xsim-run <kind>`
// prints).
func (s *CampaignSpec) RunRendered(ctx context.Context, opt RunOptions) (*CampaignOutcome, string, error) {
	c := s.clone()
	c.Normalize()
	if err := c.Validate(); err != nil {
		return nil, "", err
	}
	out := &CampaignOutcome{Version: SpecVersion, Kind: c.Kind}
	// Validate accepted the kind and Normalize created its block.
	block, rs := kindRow(c.Kind).get(c, false), c.runSpec(opt)
	stats, err := block.run(ctx, rs, out)
	if err != nil {
		return nil, "", err
	}
	out.SimTimeNS = int64(stats.SimTime)
	return out, block.render(rs, out), nil
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

// tableIIHeader names the columns WireTableIIRow.columns renders.
var tableIIHeader = []string{"MTTF_s", "C", "E1", "E2", "F", "MTTF_a"}

// columns renders the row in the paper's layout; a no-failure row shows
// dashes for the columns only a campaign cell has.
func (r WireTableIIRow) columns() []string {
	secs := func(ns int64) string {
		if ns == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f s", Duration(ns).Seconds())
	}
	mttf, e2, f, mttfa := "—", "—", "0", "—"
	if r.MTTFSeconds > 0 {
		mttf = fmt.Sprintf("%.0f s", r.MTTFSeconds)
		e2 = secs(r.E2NS)
		f = fmt.Sprintf("%d", r.F)
		mttfa = fmt.Sprintf("%.0f s", Duration(r.MTTFaNS).Seconds())
	}
	return []string{mttf, fmt.Sprintf("%d", r.C), secs(r.E1NS), e2, f, mttfa}
}
