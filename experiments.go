package xsim

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"xsim/internal/daly"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/heat"
	"xsim/internal/netmodel"
	"xsim/internal/runner"
	"xsim/internal/softerror"
	"xsim/internal/stats"
	"xsim/internal/vclock"
)

// PaperCallOverhead is the calibrated per-MPI-call CPU cost used by the
// paper-shaped experiments: about 2.9 µs of native MPI software overhead
// per call, scaled by the paper's 1000× node slowdown. It makes the
// 32,768-rank linear collectives dominate the per-checkpoint-cycle cost,
// which is what spreads the paper's E1 column as the checkpoint interval
// shrinks.
const PaperCallOverhead = Duration(2900 * Microsecond)

// --- Table I: fault (bit flip) injection ---------------------------------

// TableIParams parameterises a table1 campaign, the Table I reproduction
// (the Finject bit flip campaign the paper reports). Of the trunk only
// Seed, Logf, Pool and OnProgress apply: the victims are process-image
// models, not simulations.
type TableIParams struct {
	Victims       int `json:"victims" help:"victim application instances"`
	MaxInjections int `json:"max_injections" help:"injection cap per victim"`
}

// defaults fills the paper's Table I parameters (100 victims, an arbitrary
// cap of 100 injections each).
func (p *TableIParams) defaults(*RunSpec) {
	if p.Victims == 0 {
		p.Victims = 100
	}
	if p.MaxInjections == 0 {
		p.MaxInjections = 100
	}
}

func (p *TableIParams) validate(_ int, v specChecker) []error {
	v.nonNegative("victims", p.Victims)
	v.nonNegative("max_injections", p.MaxInjections)
	return v.errs
}

// run reproduces Table I: bit flips are injected into victim process
// images until the victims fail, and the injections-to-failure
// distribution is summarised. Victims fan out across the campaign pool;
// each victim's random sequence depends only on Seed and its index, so the
// distribution is identical at any pool size.
func (p *TableIParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) error {
	res, err := softerror.RunCampaignContext(ctx, softerror.CampaignConfig{
		Victims:       p.Victims,
		MaxInjections: p.MaxInjections,
		Seed:          rs.Seed,
		Pool:          rs.Pool,
		Logf:          rs.Logf,
		OnProgress:    rs.OnProgress,
	})
	if err != nil {
		return err
	}
	out.TableI = res
	return nil
}

// render prints the whole injection report around the paper's table.
func (p *TableIParams) render(_ RunSpec, out *CampaignOutcome) string {
	return out.TableI.Render()
}

// --- Table II: varying the checkpoint interval and system MTTF -----------

// TableIIParams parameterises a table2 campaign. PaperIO enables the
// paper's flat parallel-file-system cost model for checkpoints (Table II
// proper charges nothing).
type TableIIParams struct {
	Iterations  int       `json:"iterations" help:"total iteration count"`
	Intervals   []int     `json:"intervals" help:"checkpoint and halo-exchange intervals to sweep (unset: 1/2, 1/4, 1/8 of iterations)"`
	MTTFSeconds []float64 `json:"mttf_seconds" help:"system MTTFs to sweep, in seconds"`
	MaxRuns     int       `json:"max_runs" help:"cap on failure/restart cycles per cell (0 = 100)"`
	PaperIO     bool      `json:"paper_io" help:"charge checkpoints the paper's flat parallel-file-system cost"`
}

// config maps the block to Table II's Go configuration: the one
// Params→Config mapping left, one direction. Table II keeps a config of
// its own because the benchmark harness constructs it, and because its Go
// form says what a document cannot: any fsmodel.Hierarchy where the wire
// has paper_io, and Duration-exact MTTFs, which feed the cell seed.
func (p *TableIIParams) config(rs RunSpec) TableIIConfig {
	cfg := TableIIConfig{
		RunSpec:    rs,
		Iterations: p.Iterations,
		Intervals:  p.Intervals,
		MTTFs:      durationSlice(p.MTTFSeconds),
		MaxRuns:    p.MaxRuns,
	}
	if p.PaperIO {
		cfg.FSHierarchy = PaperPFS()
	}
	return cfg
}

// defaults are TableIIConfig's, reached through the block.
func (p *TableIIParams) defaults(rs *RunSpec) {
	cfg := p.config(*rs)
	cfg.defaults()
	*rs = cfg.RunSpec
	p.Iterations = cfg.Iterations
	p.Intervals = cfg.Intervals
	p.MTTFSeconds = secondsSlice(cfg.MTTFs)
}

func (p *TableIIParams) validate(_ int, v specChecker) []error {
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.positiveSeconds("mttf_seconds", p.MTTFSeconds)
	v.nonNegative("max_runs", p.MaxRuns)
	return v.errs
}

func (p *TableIIParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) error {
	res, err := RunTableIIContext(ctx, p.config(rs))
	if err != nil {
		return err
	}
	out.SimTimeNS = int64(res.Stats.SimTime)
	out.TableII = &TableIIOutcome{Rows: make([]WireTableIIRow, len(res.Rows))}
	for i, r := range res.Rows {
		out.TableII.Rows[i] = wireTableIIRow(r)
	}
	return nil
}

// render prints the table in the paper's layout.
func (p *TableIIParams) render(_ RunSpec, out *CampaignOutcome) string {
	rows := make([][]string, len(out.TableII.Rows))
	for i, r := range out.TableII.Rows {
		rows[i] = r.columns()
	}
	return stats.Table(tableIIHeader, rows)
}

// TableIIConfig parameterises the Table II reproduction.
type TableIIConfig struct {
	// RunSpec carries the shared simulation parameters (Ranks defaults to
	// the paper's 32,768) and the campaign-pool controls.
	RunSpec
	// Iterations is the total iteration count (paper: 1,000; always
	// fixed per the paper).
	Iterations int
	// Intervals are the checkpoint (and halo-exchange) intervals to
	// sweep (paper: 500, 250, 125 — 50 %, 25 %, 12.5 % of the total
	// iteration count). The no-failure baseline with a single final
	// checkpoint is always included.
	Intervals []int
	// MTTFs are the system mean-time-to-failure values to sweep
	// (paper: 6,000 s and 3,000 s).
	MTTFs []Duration
	// FSHierarchy is the checkpoint storage. The paper's Table II
	// excludes checkpoint I/O overhead (its file system model was a work
	// in progress), so the empty hierarchy, one free tier, charges
	// nothing; paper_io sets PaperPFS().
	FSHierarchy fsmodel.Hierarchy
	// MaxRuns caps failure/restart cycles per cell.
	MaxRuns int
}

// TableIIRow is one row of Table II. The fields carry no JSON tags:
// recorded benchmark outcomes marshal the row under its Go field names.
type TableIIRow struct {
	// MTTFs is the system MTTF (0 for the no-failure baseline rows).
	MTTFs Duration
	// C is the checkpoint interval in iterations.
	C int
	// E1 is the simulated execution time without failures.
	E1 Time
	// E2 is the simulated execution time with failures and restarts
	// (0 for baseline rows).
	E2 Time
	// F is the number of injected failures experienced.
	F int
	// MTTFa is the experienced application mean-time-to-failure,
	// E2/(F+1).
	MTTFa Duration
	// Runs is the number of application runs (1 + restarts).
	Runs int
}

// TableII is the Table II reproduction.
type TableII struct {
	Rows []TableIIRow
	// Stats pools the grid's execution accounting and simulation metrics
	// across every E1 run and campaign cell.
	Stats CampaignStats
}

// defaults fills the paper's parameters.
func (cfg *TableIIConfig) defaults() {
	cfg.RunSpec.defaults(32768)
	if cfg.Iterations == 0 {
		cfg.Iterations = 1000
	}
	if len(cfg.Intervals) == 0 {
		cfg.Intervals = defaultIntervals(cfg.Iterations)
	}
	if len(cfg.MTTFs) == 0 {
		cfg.MTTFs = []Duration{6000 * Second, 3000 * Second}
	}
}

// defaultIntervals returns the paper's checkpoint intervals for a run of
// the given length: 50 %, 25 % and 12.5 % of the iteration count. Each is
// floored at one iteration and repeats are dropped, so a run shorter than
// eight iterations sweeps fewer intervals instead of an invalid zero.
func defaultIntervals(iterations int) []int {
	out := make([]int, 0, 3)
	for _, div := range []int{2, 4, 8} {
		if c := max(iterations/div, 1); len(out) == 0 || c != out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// --- The heat grid: the one shape behind Table II, sweep and ablation ----

// setHeatApp installs the heat application on the campaign in the
// requested execution mode.
func setHeatApp(camp *Campaign, hc HeatConfig, prog bool) {
	if prog {
		camp.ProgFor = func(int) func(rank int) Prog { return RunHeatProg(hc) }
	} else {
		camp.AppFor = func(int) App { return RunHeat(hc) }
	}
}

// ioArm is one storage configuration of the heat grid. Table II and the
// interval sweep run the single unnamed free arm; the checkpoint-I/O
// ablation runs four named ones.
type ioArm struct {
	// name fills the arm's Arm column and prefixes its progress labels
	// ("" = no prefix).
	name string
	hier fsmodel.Hierarchy
	// delta is the incremental-checkpoint fraction (0 = full checkpoints).
	delta float64
}

// gridCell is one failure/restart campaign of the heat grid.
type gridCell struct {
	arm      int // index into heatGrid.arms
	interval int // index into heatGrid.intervals
	mttf     Duration
	seed     int64
	label    string // progress label, without the arm prefix
}

// heatGrid is the experiment shape Table II, the interval sweep and the
// checkpoint-I/O ablation share: per storage arm, the heat application
// without failures at the baseline interval (a single final checkpoint)
// and at every swept interval — the E1 runs — then an explicit ordered
// list of failure/restart campaigns, each at one (arm, interval).
type heatGrid struct {
	RunSpec
	base      HeatConfig
	arms      []ioArm
	intervals []int
	cells     []gridCell
	// maxRuns caps failure/restart cycles per cell.
	maxRuns int
}

// newHeatGrid returns a grid of the paper's heat workload over the given
// intervals with the free arm and no cells.
func newHeatGrid(rs RunSpec, iterations int, intervals []int) (*heatGrid, error) {
	base, err := HeatWorkloadFor(rs.Ranks)
	if err != nil {
		return nil, err
	}
	base.Iterations = iterations
	return &heatGrid{RunSpec: rs, base: base, arms: []ioArm{{}}, intervals: intervals}, nil
}

// sweepMTTFs appends the arm's (MTTF, interval) campaign cells in row
// order. A cell's seed mixes in the MTTF, so different MTTFs draw
// independent failure sequences, but not the arm: every arm faces
// identical failures and the arms' E2 columns are directly comparable.
func (g *heatGrid) sweepMTTFs(arm int, mttfs []Duration) {
	for _, mttf := range mttfs {
		for i, c := range g.intervals {
			g.cells = append(g.cells, gridCell{
				arm: arm, interval: i, mttf: mttf,
				seed:  g.Seed + int64(mttf),
				label: fmt.Sprintf("mttf=%.0fs c=%d", mttf.Seconds(), c),
			})
		}
	}
}

// run fans the grid out across the campaign pool and returns one row per
// task: per arm the baseline E1 row and an E1 row per interval, then the
// cells in list order, each with its (arm, interval) E1 filled in. The
// tasks are independent and a cell's failure draws depend only on its
// seed, so the rows are identical at any pool size; they are assembled in
// the fixed task order (the order progress events number), never in
// completion order. On error (a failed task, or cancellation) the pooled
// stats come back without rows.
func (g *heatGrid) run(ctx context.Context) ([]TableIIRow, CampaignStats, error) {
	var (
		cells []campaignCell
		rows  []TableIIRow // rows[i] is completed from cell i's result
	)
	// Every task is a restart campaign of the heat application on arm a
	// at interval c. An E1 run is the campaign no failure strikes (MTTF
	// 0): it gets a single run, which must complete.
	add := func(a ioArm, c int, mttf Duration, seed int64, maxRuns int, label string) {
		simCfg := g.baseConfig()
		simCfg.FSHierarchy = a.hier
		hc := g.base
		hc.ExchangeInterval = c
		hc.CheckpointInterval = c
		hc.DeltaFraction = a.delta
		camp := Campaign{Base: simCfg, MTTF: mttf, Seed: seed, MaxRuns: maxRuns, CheckpointPrefix: "heat"}
		setHeatApp(&camp, hc, g.ProgMode)
		if a.name != "" {
			label = a.name + " " + label
		}
		cells = append(cells, campaignCell{camp: camp, label: label})
		rows = append(rows, TableIIRow{MTTFs: mttf, C: c})
	}
	e1s := append([]int{g.base.Iterations}, g.intervals...)
	for _, a := range g.arms {
		for _, c := range e1s {
			add(a, c, 0, 0, 1, fmt.Sprintf("E1 c=%d", c))
		}
	}
	for _, cell := range g.cells {
		add(g.arms[cell.arm], g.intervals[cell.interval], cell.mttf, cell.seed, g.maxRuns, cell.label)
	}

	var stats CampaignStats
	results, err := g.runCells(ctx, &stats, cells)
	if err != nil {
		return nil, stats, err
	}
	nE1 := len(g.arms) * len(e1s)
	for i, camp := range results {
		row := &rows[i]
		row.Runs = len(camp.Runs)
		if i < nE1 {
			row.E1 = camp.E2
			continue
		}
		cell := g.cells[i-nE1]
		row.E1 = rows[cell.arm*len(e1s)+1+cell.interval].E1
		row.E2 = camp.E2
		row.F = camp.Failures
		row.MTTFa = camp.MTTFa()
	}
	return rows, stats, nil
}

// RunTableIIContext reproduces Table II: the heat application runs at
// Ranks simulated MPI processes with the checkpoint interval and the
// system MTTF varied; each cell reports E1 (no failures), E2 (with
// failures and restarts), F, and MTTFa. It is the heat grid's free arm
// (charging FSHierarchy when set) with one cell per (MTTF, interval), fanned
// out across the campaign pool and identical at any pool size. On error
// (a failed cell, or cancellation) the partial table keeps its pooled
// Stats but no Rows.
func RunTableIIContext(ctx context.Context, cfg TableIIConfig) (*TableII, error) {
	cfg.defaults()
	g, err := newHeatGrid(cfg.RunSpec, cfg.Iterations, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	g.arms[0].hier = cfg.FSHierarchy
	g.maxRuns = cfg.MaxRuns
	g.sweepMTTFs(0, cfg.MTTFs)

	rows, stats, err := g.run(ctx)
	table := &TableII{Stats: stats}
	// The paper's table prints the baseline and the campaign cells; the
	// per-interval E1 runs appear only as the cells' E1 column.
	for i, r := range rows {
		if i == 0 || i > len(cfg.Intervals) {
			table.Rows = append(table.Rows, r)
		}
	}
	return table, err
}

// --- §V-D First impressions: failure-mode classification -----------------

// FirstImpressionsParams parameterises a first-impressions campaign, the
// failure-mode study: repeated single-failure runs of the heat application
// (Ranks defaults to 512), classifying in which phase the failure struck,
// in which phase the survivors detected it (and aborted), and the state
// the checkpoint files were left in.
type FirstImpressionsParams struct {
	Iterations  int     `json:"iterations" help:"total iteration count"`
	Interval    int     `json:"interval" help:"checkpoint and halo-exchange interval (unset: 1/8 of iterations)"`
	Trials      int     `json:"trials" help:"independent single-failure runs"`
	MTTFSeconds float64 `json:"mttf_seconds" help:"spread of the random failure times in seconds (unset: a quarter of the run)"`
}

// defaults fills the zero fields.
func (p *FirstImpressionsParams) defaults(rs *RunSpec) {
	rs.defaults(512)
	if p.Iterations == 0 {
		p.Iterations = 1000
	}
	if p.Interval == 0 {
		// The shortest of the paper's three intervals (12.5 %).
		p.Interval = slices.Min(defaultIntervals(p.Iterations))
	}
	if p.Trials == 0 {
		p.Trials = 10
	}
	p.MTTFSeconds = clockSeconds(p.MTTFSeconds)
	if p.MTTFSeconds == 0 {
		// Scale the MTTF to the run: one iteration is ≈5.25 simulated
		// seconds, and failures draw uniform within [0, 2×MTTF), so a
		// quarter of the expected execution time guarantees the failure
		// activates within the run.
		p.MTTFSeconds = (Duration(p.Iterations) * Seconds(5.25) / 4).Seconds()
	}
}

func (p *FirstImpressionsParams) validate(_ int, v specChecker) []error {
	v.heatIterations("iterations", p.Iterations)
	v.nonNegative("interval", p.Interval)
	v.nonNegative("trials", p.Trials)
	v.seconds("mttf_seconds", p.MTTFSeconds)
	return v.errs
}

func (p *FirstImpressionsParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) error {
	res, stats, err := runFirstImpressions(ctx, rs, *p)
	if err != nil {
		return err
	}
	out.SimTimeNS = int64(stats.SimTime)
	out.Phases = res
	return nil
}

// firstImpressionsTrial is one trial's classification.
type firstImpressionsTrial struct {
	activated  bool
	failedIn   string
	detectedIn map[string]int
	checkpoint string
	camp       *CampaignResult
}

// runFirstImpressions reproduces the paper's §V-D observations: because
// the computation phase dominates, failures usually strike during
// computation and are detected in the halo exchange; failures during the
// checkpoint phase are detected in the following barrier; aborts leave
// incomplete or corrupted checkpoints, or partially deleted old sets.
// Trials are independent (each owns a private store and tracker) and fan
// out across the campaign pool; histograms merge in trial order. On error
// the histograms of the trials that finished come back with the pooled
// stats.
func runFirstImpressions(ctx context.Context, rs RunSpec, p FirstImpressionsParams) (*FirstImpressionsOutcome, CampaignStats, error) {
	p.defaults(&rs)
	base, err := HeatWorkloadFor(rs.Ranks)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	base.Iterations = p.Iterations
	base.ExchangeInterval = p.Interval
	base.CheckpointInterval = p.Interval

	tasks := make([]runner.Task[firstImpressionsTrial], p.Trials)
	for trial := 0; trial < p.Trials; trial++ {
		seed := rs.Seed + int64(trial)*1000
		tasks[trial] = runner.Task[firstImpressionsTrial]{
			Spec: runner.Spec{Index: trial, Label: fmt.Sprintf("trial=%d", trial), Seed: seed},
			Run: func(ctx context.Context) (firstImpressionsTrial, error) {
				store := NewStore()
				tracker := NewHeatTracker(rs.Ranks)
				hc := base
				hc.Tracker = tracker
				simCfg := rs.baseConfig()
				simCfg.Store = store
				camp := Campaign{
					Base:    simCfg,
					MTTF:    Seconds(p.MTTFSeconds),
					Seed:    seed,
					MaxRuns: 1, // observe the first failure only
				}
				setHeatApp(&camp, hc, rs.ProgMode)
				res, err := camp.RunContext(ctx)
				out := firstImpressionsTrial{camp: res}
				// The single run usually aborts, exhausting MaxRuns; that
				// is the point. Anything else (cancellation, a panicking
				// or deadlocked application) is a failure of the trial
				// itself, not an observation.
				if err != nil && !errors.Is(err, ErrAborted) {
					return out, err
				}
				run := res.Runs[0]
				if run.Failed == 0 {
					// The drawn failure time was beyond the application's end.
					return out, nil
				}
				out.activated = true
				failedRank := run.Injected.Rank
				out.failedIn = tracker.PhaseOf(failedRank).String()
				out.detectedIn = make(map[string]int)
				for r := 0; r < rs.Ranks; r++ {
					if r == failedRank {
						continue
					}
					out.detectedIn[tracker.PhaseOf(r).String()]++
				}
				out.checkpoint = classifyCheckpoints(store, "heat", rs.Ranks)
				return out, nil
			},
		}
	}

	trials, rstats, err := runner.Run(ctx, rs.runnerConfig(), tasks)
	stats := CampaignStats{Runner: rstats}
	out := &FirstImpressionsOutcome{
		FailedIn:           make(map[string]int),
		DetectedIn:         make(map[string]int),
		CheckpointOutcomes: make(map[string]int),
	}
	for _, t := range trials {
		stats.absorbCampaign(t.camp)
		if !t.activated {
			continue
		}
		out.Trials++
		out.FailedIn[t.failedIn]++
		for phase, n := range t.detectedIn {
			out.DetectedIn[phase] += n
		}
		out.CheckpointOutcomes[t.checkpoint]++
	}
	return out, stats, err
}

// classifyCheckpoints inspects the post-abort checkpoint state of ranks
// 0..n-1 in one pass over the store's listing of the checkpoint sets.
func classifyCheckpoints(store *Store, prefix string, n int) string {
	present := make(map[int]int) // by iteration: the files of ranks < n
	corrupted := false
	for _, f := range store.Stats(prefix) {
		p := present[f.Key.Iteration]
		if f.Key.Rank < n {
			p++
			corrupted = corrupted || !f.Complete
		}
		present[f.Key.Iteration] = p
	}
	if len(present) == 0 {
		return "no-checkpoint"
	}
	incomplete := false
	for _, p := range present {
		incomplete = incomplete || p < n
	}
	switch {
	case corrupted:
		return "corrupted-file"
	case incomplete && len(present) > 1:
		return "partially-deleted-old-set"
	case incomplete:
		return "incomplete-set"
	default:
		return "clean"
	}
}

// render prints the failure-mode study.
func (p *FirstImpressionsParams) render(_ RunSpec, out *CampaignOutcome) string {
	f := out.Phases
	var b strings.Builder
	fmt.Fprintf(&b, "first impressions: %d trials with an activated failure\n\n", f.Trials)
	section := func(title string, m map[string]int) {
		fmt.Fprintf(&b, "%s:\n", title)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(&b, "  %-28s %d\n", k, m[k])
		}
		b.WriteByte('\n')
	}
	section("failed rank was in phase", f.FailedIn)
	section("survivors aborted in phase (rank counts)", f.DetectedIn)
	section("checkpoint state after abort", f.CheckpointOutcomes)
	return b.String()
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// --- Replication/checkpoint crossover ------------------------------------

// Crossover arm names.
const (
	// ArmCheckpoint is the unreplicated checkpoint/restart arm at the
	// Daly-optimal interval.
	ArmCheckpoint = "ckpt"
	// ArmReplication is the r-way replication arm without checkpoints.
	ArmReplication = "repl"
	// ArmHybrid combines r-way replication with periodic checkpoints.
	ArmHybrid = "hybrid"
)

// CrossoverParams parameterises a replication-crossover campaign: the
// fixed-size replicated stencil runs under Poisson multi-failure injection
// at a sweep of system MTTFs, once per protection arm — plain
// checkpoint/restart at the Daly-optimal interval, plain r-way
// replication, and the hybrid of both — so the table exposes the MTTF
// below which burning r× the resources on replication beats restarting,
// the trade redMPI was built around. Ranks (default 24) is the physical
// world size of every arm: the replication arms split it into Ranks/r
// logical ranks carrying r× the per-rank work.
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

// crossoverDefaultRanks is the crossover's default world size; validate
// checks degree divisibility against it when a spec leaves ranks 0.
const crossoverDefaultRanks = 24

// defaults fills the zero fields: degrees 2 and 3; MTTFs 50 s … 1600 s,
// doubling; 40 iterations × 2.5 s with 1 KiB halos (a 100 s solve); Daly's
// δ and R 15 s each; 400 runs per cell (low-MTTF checkpoint cells restart
// often).
func (p *CrossoverParams) defaults(rs *RunSpec) {
	rs.defaults(crossoverDefaultRanks)
	if len(p.Degrees) == 0 {
		p.Degrees = []int{2, 3}
	}
	p.MTTFSeconds = secondsSlice(durationSlice(p.MTTFSeconds))
	if len(p.MTTFSeconds) == 0 {
		p.MTTFSeconds = []float64{50, 100, 200, 400, 800, 1600}
	}
	if p.Iterations == 0 {
		p.Iterations = 40
	}
	p.ComputeSeconds = clockSeconds(p.ComputeSeconds)
	if p.ComputeSeconds == 0 {
		p.ComputeSeconds = 2.5
	}
	if p.HaloBytes == 0 {
		p.HaloBytes = 1024
	}
	p.CheckpointSeconds = clockSeconds(p.CheckpointSeconds)
	if p.CheckpointSeconds == 0 {
		p.CheckpointSeconds = 15
	}
	p.RestartSeconds = clockSeconds(p.RestartSeconds)
	if p.RestartSeconds == 0 {
		p.RestartSeconds = 15
	}
	if p.MaxRuns == 0 {
		p.MaxRuns = 400
	}
}

func (p *CrossoverParams) validate(ranks int, v specChecker) []error {
	ranks = cmp.Or(ranks, crossoverDefaultRanks)
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
	// The stencil sends both halos before it receives either, so a halo
	// above the eager threshold would block every rank in its first send.
	if limit := netmodel.Paper().EagerThreshold; p.HaloBytes > limit {
		v.bad("halo_bytes", "must be at most the network's eager threshold of %d bytes, got %d", limit, p.HaloBytes)
	}
	v.nonNegative("max_runs", p.MaxRuns)
	// A run's modelled time must fit the virtual clock, by the rule heat's
	// CheckClockRange applies: nothing else stops a compute phase past the
	// clock's range, and the run would finish at once with a wrapped clock.
	// The widest degree's stencil computes degree× per iteration; a zero
	// field is its default.
	d := *p
	d.defaults(&RunSpec{})
	widest := slices.Max(d.Degrees)
	plan := float64(d.Iterations)*(float64(widest)*d.ComputeSeconds+d.CheckpointSeconds) + d.RestartSeconds
	if room := vclock.Room(0).Seconds(); plan > room {
		v.bad("compute_seconds", "%d iterations of %v s compute at degree %d, with checkpoints and a restart, take %.4g s and overrun the virtual clock (at most %.4g s fit)",
			d.Iterations, d.ComputeSeconds, widest, plan, room)
	}
	return v.errs
}

func (p *CrossoverParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) error {
	res, stats, err := runCrossover(ctx, rs, *p)
	if err != nil {
		return err
	}
	out.SimTimeNS = int64(stats.SimTime)
	out.Crossover = res
	return nil
}

// runCrossover runs the crossover study. It first measures the
// failure-free unreplicated solve time, then fans one failure/restart
// campaign per (MTTF, arm, degree) cell across the campaign pool: every
// cell draws its own deterministic Poisson failure schedule (multiple
// failures per run — a single-failure model could never exhaust a replica
// group), restarts on abort with continuous virtual time, and counts a run
// as done once every logical rank has a surviving completed replica. Cell
// seeds depend only on Seed, the MTTF, and the arm, so the table is
// identical at any pool size.
func runCrossover(ctx context.Context, rs RunSpec, p CrossoverParams) (*CrossoverOutcome, CampaignStats, error) {
	p.defaults(&rs)
	compute := Seconds(p.ComputeSeconds)
	ckptCost, restartCost := Seconds(p.CheckpointSeconds), Seconds(p.RestartSeconds)

	stencil := func(degree, interval int) replicatedStencil {
		return replicatedStencil{
			Degree:              degree,
			Iterations:          p.Iterations,
			ComputePerIteration: compute,
			HaloBytes:           p.HaloBytes,
			CheckpointInterval:  interval,
			CheckpointCost:      ckptCost,
			RestartCost:         restartCost,
		}
	}

	// E1: the failure-free unreplicated solve — the campaign no failure
	// strikes, in a single run that must complete — measured (not assumed)
	// so the Daly parameters include the simulated communication time.
	var stats CampaignStats
	e1, err := Campaign{
		Base:    rs.baseConfig(),
		MaxRuns: 1,
		AppFor:  func(int) App { return runReplicatedStencil(stencil(1, 0)) },
	}.RunContext(ctx)
	stats.absorbCampaign(e1)
	if err != nil {
		return nil, stats, fmt.Errorf("xsim: crossover E1 run: %w", err)
	}
	solve := Duration(e1.E2)
	perIter := solve / Duration(p.Iterations)

	// dalyInterval converts Daly's optimal compute-time interval into a
	// whole number of iterations of the (possibly replicated) stencil.
	dalyInterval := func(mttf Duration, degree int) (int, daly.Params) {
		dp := daly.Params{
			Solve:   Duration(degree) * solve,
			Delta:   ckptCost,
			Restart: restartCost,
			MTTF:    mttf,
		}
		iters := int(math.Round(dp.OptimalInterval().Seconds() / (Duration(degree) * perIter).Seconds()))
		if iters < 1 {
			iters = 1
		}
		if iters > p.Iterations {
			iters = p.Iterations
		}
		return iters, dp
	}
	// ckptOverhead is the failure-free checkpoint cost at the given
	// interval: one δ per interior checkpoint.
	ckptOverhead := func(interval int) Duration {
		if interval <= 0 {
			return 0
		}
		return ckptCost * Duration((p.Iterations-1)/interval)
	}

	var (
		cells []campaignCell
		rows  []WireCrossoverRow // rows[i] is completed from cell i's result
	)
	addCell := func(mttf Duration, arm string, degree, interval int, predicted Duration) {
		// Mix the MTTF and the arm index into the seed so every cell
		// draws an independent failure sequence.
		seed := rs.Seed + int64(mttf.Seconds())*1009 + int64(len(cells))*37
		sc := stencil(degree, interval)
		// The failure horizon comfortably covers the longest single run
		// of the cell (compute + checkpoint overhead + restart).
		horizon := Duration(degree)*solve + ckptOverhead(interval) + restartCost + solve
		cells = append(cells, campaignCell{
			label: fmt.Sprintf("mttf=%.0fs %s r=%d", mttf.Seconds(), arm, degree),
			camp: Campaign{
				Base:    rs.baseConfig(),
				Seed:    seed,
				MaxRuns: p.MaxRuns,
				DrawFailures: func(run int, start Time) Schedule {
					rng := rand.New(rand.NewSource(seed + int64(run)*101))
					return fault.PoissonSchedule(rng, rs.Ranks, mttf, horizon, start)
				},
				Replicas:         degree,
				CheckpointPrefix: replPrefix,
				AppFor:           func(int) App { return runReplicatedStencil(sc) },
			},
		})
		rows = append(rows, WireCrossoverRow{
			MTTFSeconds: mttf.Seconds(), Arm: arm, Degree: degree,
			Interval: interval, PredictedNS: int64(predicted),
		})
	}
	for _, mttf := range durationSlice(p.MTTFSeconds) {
		interval, dp := dalyInterval(mttf, 1)
		addCell(mttf, ArmCheckpoint, 1, interval,
			dp.ExpectedRuntime(Duration(interval)*perIter))
		for _, degree := range p.Degrees {
			addCell(mttf, ArmReplication, degree, 0, Duration(degree)*solve)
			hInterval, _ := dalyInterval(mttf, degree)
			addCell(mttf, ArmHybrid, degree, hInterval,
				Duration(degree)*solve+ckptOverhead(hInterval))
		}
	}

	// The E1 run is already absorbed: the pooled MPI failure records keep
	// E1 first, then the cells in list order.
	results, err := rs.runCells(ctx, &stats, cells)
	if err != nil {
		return nil, stats, err
	}
	for i, camp := range results {
		rows[i].E2NS = int64(camp.E2)
		rows[i].F = camp.Failures
		rows[i].Runs = len(camp.Runs)
	}
	return &CrossoverOutcome{SolveNS: int64(solve), Rows: rows}, stats, nil
}

// render prints the crossover table, one block per MTTF, marking each
// block's winning arm.
func (p *CrossoverParams) render(_ RunSpec, out *CampaignOutcome) string {
	t := out.Crossover
	header := []string{"MTTF", "arm", "r", "c", "E2", "F", "runs", "predicted", ""}
	var rows [][]string
	for _, mttf := range p.MTTFSeconds {
		var best *WireCrossoverRow
		for i := range t.Rows {
			r := &t.Rows[i]
			if r.MTTFSeconds == mttf && (best == nil || r.E2NS < best.E2NS) {
				best = r
			}
		}
		for i := range t.Rows {
			r := &t.Rows[i]
			if r.MTTFSeconds != mttf {
				continue
			}
			interval := "—"
			if r.Interval > 0 {
				interval = fmt.Sprintf("%d", r.Interval)
			}
			mark := ""
			if r == best {
				mark = "◀ best"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.0f s", r.MTTFSeconds),
				r.Arm,
				fmt.Sprintf("%d", r.Degree),
				interval,
				fmt.Sprintf("%.0f s", Duration(r.E2NS).Seconds()),
				fmt.Sprintf("%d", r.F),
				fmt.Sprintf("%d", r.Runs),
				fmt.Sprintf("%.0f s", Duration(r.PredictedNS).Seconds()),
				mark,
			})
		}
	}
	return fmt.Sprintf("solve (E1, r=1): %.0f s\n%s", Duration(t.SolveNS).Seconds(), stats.Table(header, rows))
}

// --- Checkpoint-I/O ablation: Table II with the I/O cost on --------------

// Checkpoint-I/O ablation arm names.
const (
	// IOArmFree is the paper's Table II configuration: checkpoint I/O
	// charges nothing (the zero-cost assumption under test).
	IOArmFree = "free"
	// IOArmFlatPFS charges every checkpoint against a single shared
	// parallel file system whose aggregate backplane saturates, so the
	// per-client bandwidth degrades as 1/clients at scale.
	IOArmFlatPFS = "flat-pfs"
	// IOArmTiered stages checkpoints through the multi-tier hierarchy
	// (node-local memory → burst buffer → PFS): the commit costs only
	// the fast local tier, drains to the deeper tiers overlap compute.
	IOArmTiered = "tiered"
	// IOArmTieredIncr adds incremental (delta) checkpoints on top of the
	// tiered hierarchy.
	IOArmTieredIncr = "tiered-incr"
)

// IOAblationParams parameterises an io-ablation campaign: the Table II
// sweep (Ranks defaults to the paper's 32,768) rerun with the file-system
// cost enabled, once per storage arm, to show where the paper's zero-cost
// checkpoint assumption breaks at scale and how much of the flat-PFS
// overhead hierarchical (and incremental) checkpointing recovers. The
// storage arms themselves are fixed to the paper's models.
type IOAblationParams struct {
	Iterations    int       `json:"iterations" help:"total iteration count"`
	Intervals     []int     `json:"intervals" help:"checkpoint and halo-exchange intervals to sweep (unset: 1/2, 1/4, 1/8 of iterations)"`
	MTTFSeconds   []float64 `json:"mttf_seconds" help:"system MTTFs to sweep, in seconds"`
	PayloadBytes  int       `json:"payload_bytes" help:"modelled checkpoint payload per rank"`
	DeltaFraction float64   `json:"delta_fraction" help:"share of the payload an incremental checkpoint writes"`
	FullEvery     int       `json:"full_every" help:"incremental arm: every n-th checkpoint is a full one"`
	MaxRuns       int       `json:"max_runs" help:"cap on failure/restart cycles per cell (0 = 100)"`
}

// defaults fills the zero fields: the paper's 1,000 iterations and
// intervals; MTTF 6,000 s only (one Table II block per arm keeps the 4-arm
// grid tractable); a 256 MiB payload per rank (the paper's 16³-points cube
// is ~32 KB, invisible at any bandwidth; production-scale state is what
// makes the I/O cost observable); deltas a quarter of the payload, every
// fourth checkpoint full.
func (p *IOAblationParams) defaults(rs *RunSpec) {
	rs.defaults(32768)
	if p.Iterations == 0 {
		p.Iterations = 1000
	}
	if len(p.Intervals) == 0 {
		p.Intervals = defaultIntervals(p.Iterations)
	}
	p.MTTFSeconds = secondsSlice(durationSlice(p.MTTFSeconds))
	if len(p.MTTFSeconds) == 0 {
		p.MTTFSeconds = []float64{6000}
	}
	if p.PayloadBytes == 0 {
		p.PayloadBytes = 256 << 20
	}
	if p.DeltaFraction == 0 {
		p.DeltaFraction = 0.25
	}
	if p.FullEvery == 0 {
		p.FullEvery = 4
	}
}

func (p *IOAblationParams) validate(_ int, v specChecker) []error {
	v.heatIterations("iterations", p.Iterations)
	v.intervals("intervals", p.Intervals)
	v.positiveSeconds("mttf_seconds", p.MTTFSeconds)
	v.nonNegative("payload_bytes", p.PayloadBytes)
	// The bound is the application's: the tiered-incr arm hands the
	// fraction to the heat workload as it stands.
	if err := heat.CheckDeltaFraction(p.DeltaFraction); err != nil {
		v.bad("delta_fraction", "%v", err)
	}
	v.nonNegative("full_every", p.FullEvery)
	v.nonNegative("max_runs", p.MaxRuns)
	return v.errs
}

func (p *IOAblationParams) run(ctx context.Context, rs RunSpec, out *CampaignOutcome) error {
	res, stats, err := runIOAblation(ctx, rs, *p)
	if err != nil {
		return err
	}
	out.SimTimeNS = int64(stats.SimTime)
	out.IOAblation = res
	return nil
}

// runIOAblation reruns the Table II sweep with checkpoint I/O cost
// enabled, once per storage arm: free (the paper's zero-cost assumption),
// a flat shared PFS, the multi-tier hierarchy with staged writes, and the
// hierarchy plus incremental checkpoints. It is the heat grid with four
// arms sweeping the same intervals and MTTFs — Table II is its free arm —
// so all arms face identical failure sequences and the table is identical
// at any pool size.
func runIOAblation(ctx context.Context, rs RunSpec, p IOAblationParams) (*IOAblationOutcome, CampaignStats, error) {
	p.defaults(&rs)
	g, err := newHeatGrid(rs, p.Iterations, p.Intervals)
	if err != nil {
		return nil, CampaignStats{}, err
	}
	g.base.CheckpointPayload = p.PayloadBytes
	g.base.FullEvery = p.FullEvery
	tiers := fsmodel.PaperTieredFS()
	g.arms = []ioArm{
		{name: IOArmFree},
		{name: IOArmFlatPFS, hier: fsmodel.PaperPFSShared()},
		{name: IOArmTiered, hier: tiers},
		{name: IOArmTieredIncr, hier: tiers, delta: p.DeltaFraction},
	}
	g.maxRuns = p.MaxRuns
	for arm := range g.arms {
		g.sweepMTTFs(arm, durationSlice(p.MTTFSeconds))
	}
	rows, stats, err := g.run(ctx)
	if err != nil {
		return nil, stats, err
	}
	// The grid's task order: per arm its 1 + len(intervals) E1 rows, then
	// the cells in list order.
	perArm, nE1 := 1+len(g.intervals), len(g.arms)*(1+len(g.intervals))
	out := &IOAblationOutcome{Rows: make([]WireIOAblationRow, len(rows))}
	for i, r := range rows {
		arm := i / perArm
		if i >= nE1 {
			arm = g.cells[i-nE1].arm
		}
		out.Rows[i] = WireIOAblationRow{Arm: g.arms[arm].name, WireTableIIRow: wireTableIIRow(r)}
	}
	return out, stats, nil
}

// recovered reports the fraction of the flat-PFS overhead the given arm
// recovers at checkpoint interval c: (X_flat − X_arm) / (X_flat − X_free),
// where X is E1 on the failure-free rows (mttfSeconds 0) and E2 on the
// campaign cells at mttfSeconds. 1 means checkpoint I/O became free again;
// 0 means the arm is as slow as the flat PFS.
func (o *IOAblationOutcome) recovered(arm string, mttfSeconds float64, c int) float64 {
	row := func(arm string) *WireIOAblationRow {
		for i := range o.Rows {
			if r := &o.Rows[i]; r.Arm == arm && r.MTTFSeconds == mttfSeconds && r.C == c {
				return r
			}
		}
		return nil
	}
	x := func(r *WireIOAblationRow) int64 {
		if mttfSeconds == 0 {
			return r.E1NS
		}
		return r.E2NS
	}
	free, flat, a := row(IOArmFree), row(IOArmFlatPFS), row(arm)
	if free == nil || flat == nil || a == nil || x(flat) <= x(free) {
		return 0
	}
	return float64(x(flat)-x(a)) / float64(x(flat)-x(free))
}

// render prints the ablation, one Table II-shaped block per arm, followed
// by the recovered-overhead summary the tiered arms exist to demonstrate.
func (p *IOAblationParams) render(_ RunSpec, out *CampaignOutcome) string {
	t := out.IOAblation
	rows := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		rows[i] = append([]string{r.Arm}, r.columns()...)
	}
	var b strings.Builder
	b.WriteString(stats.Table(append([]string{"arm"}, tableIIHeader...), rows))
	b.WriteString("\nrecovered fraction of flat-PFS overhead (1 = I/O free again):\n")
	for _, arm := range []string{IOArmTiered, IOArmTieredIncr} {
		for _, c := range p.Intervals {
			fmt.Fprintf(&b, "  %-12s c=%-4d E1: %4.0f %%", arm, c, 100*t.recovered(arm, 0, c))
			for _, mttf := range p.MTTFSeconds {
				fmt.Fprintf(&b, "   E2@%.0fs: %4.0f %%", mttf, 100*t.recovered(arm, mttf, c))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
