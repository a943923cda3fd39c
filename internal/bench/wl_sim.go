package bench

import (
	"context"
	"fmt"
	"time"

	"xsim"
	"xsim/internal/fault"
)

// --- table2-32k-prog -------------------------------------------------------

// Table II is run with the paper's 1,000 iterations and both MTTFs but one
// checkpoint interval, which keeps a repetition near seven seconds: four
// pool tasks, seven worlds.
const (
	table2Iterations = 1000
	table2Interval   = 500
)

var table2MTTFs = []xsim.Duration{6000 * xsim.Second, 3000 * xsim.Second}

// A failure's host cost depends only on which half of the run it strikes:
// the survivors compute on to the next halo exchange (iteration 500 or
// 1,000) before they notice. The windows below are those halves, as
// offsets from the run's start, with margins for the checkpoint round.
type window struct{ lo, hi xsim.Duration }

var (
	firstHalf  = window{0, 2500 * xsim.Second}
	secondHalf = window{3000 * xsim.Second, 5100 * xsim.Second}
	afterFull  = window{5800 * xsim.Second, 1 << 62}
	afterHalf  = window{3000 * xsim.Second, 1 << 62}
)

// table2Pattern is the failure pattern of seed 133, per MTTF and run: at
// 6,000 s one failure in the first half, then a clean full run; at
// 3,000 s a failure in the first half, one in the second half of the
// rerun, then a clean half run from the checkpoint. With the two
// failure-free runs that is seven worlds and 5,500 iterations per rank.
var table2Pattern = [][]window{
	{firstHalf, afterFull},
	{firstHalf, secondHalf, afterHalf},
}

const table2RankItersPerRank = 1000 + 1000 + (500 + 1000) + (500 + 1000 + 500)

// table2Seed picks the campaign seed for a workload seed: the seed itself
// when its failure draws follow table2Pattern (133 does), otherwise the
// first derived seed that does. Every seed then fails different ranks at
// different instants but builds the same worlds and executes the same
// iterations, so host cost does not depend on the seed. The draws are
// read through fault.Campaign exactly as Campaign.RunContext makes them
// (RunTableIIContext mixes the MTTF into the cell's seed); Rep checks the
// resulting F and run counts, so a mismatch cannot pass silently.
func table2Seed(seed int64, ranks int) int64 {
	for k := 0; ; k++ {
		cand := seed
		if k > 0 {
			cand = subSeed(seed, k)
		}
		if followsPattern(cand, ranks) {
			return cand
		}
	}
}

func followsPattern(campaignSeed int64, ranks int) bool {
	for i, mttf := range table2MTTFs {
		draws := fault.Campaign{Seed: campaignSeed + int64(mttf), Ranks: ranks, MTTF: mttf}
		for run, w := range table2Pattern[i] {
			off := xsim.Duration(draws.ForRun(run, 0)[0].At)
			if off < w.lo || off >= w.hi {
				return false
			}
		}
	}
	return true
}

type table2Instance struct {
	cfg xsim.TableIIConfig
}

func newTable2(in inputs) (instance, error) {
	seed, quick := in.Seed, in.Quick
	ranks := 32768
	if quick {
		ranks = 512
	}
	return &table2Instance{cfg: xsim.TableIIConfig{
		RunSpec: xsim.RunSpec{
			Ranks:        ranks,
			Workers:      1,
			Pool:         2,
			Seed:         table2Seed(seed, ranks),
			CallOverhead: callOverhead(seed),
			ProgMode:     true,
		},
		Iterations: table2Iterations,
		Intervals:  []int{table2Interval},
		MTTFs:      table2MTTFs,
	}}, nil
}

// table2Outcome is the canonical outcome of the Table II workload.
type table2Outcome struct {
	Rows      []xsim.TableIIRow `json:"rows"`
	SimTimeNS int64             `json:"sim_time_ns"`
	Events    uint64            `json:"events"`
	EagerMsgs uint64            `json:"eager_msgs"`
}

func (in *table2Instance) Rep(tr *Tracer) (*repResult, error) {
	cfg := in.cfg
	root := tr.Start("xsim.RunTableII", -1)
	if tr != nil {
		cfg.OnProgress = func(ev xsim.ProgressEvent) {
			if ev.State == "completed" || ev.State == "failed" {
				tr.Add("runner.task "+ev.Label, root, time.Duration(ev.ElapsedNS))
			}
		}
	}
	tab, err := xsim.RunTableIIContext(context.Background(), cfg)
	tr.End(root)
	if err != nil {
		return nil, fmt.Errorf("bench: table2: %w", err)
	}

	res := &repResult{Attempted: tab.Stats.Runner.Started, Failed: tab.Stats.Runner.Failed}
	verify := tr.Start("bench.verify", -1)
	res.check(len(tab.Rows) == 1+len(table2MTTFs), "table2: %d rows, want %d", len(tab.Rows), 1+len(table2MTTFs))
	for i := range table2MTTFs {
		if 1+i >= len(tab.Rows) {
			break
		}
		row, want := tab.Rows[1+i], len(table2Pattern[i])
		res.check(row.Runs == want && row.F == want-1,
			"table2: MTTF %v: %d runs / %d failures, want %d / %d", row.MTTFs, row.Runs, row.F, want, want-1)
		res.check(row.E2 > row.E1 && row.E1 > tab.Rows[0].E1,
			"table2: MTTF %v: E2 %v, E1 %v, baseline %v out of order", row.MTTFs, row.E2, row.E1, tab.Rows[0].E1)
	}
	res.Outcome = table2Outcome{
		Rows:      tab.Rows,
		SimTimeNS: int64(tab.Stats.SimTime),
		Events:    tab.Stats.Engine.EventsDispatched,
		EagerMsgs: tab.Stats.MPI.EagerMsgs,
	}
	tr.End(verify)

	c := &res.Counts
	c.addSim(tab.Stats.Engine, tab.Stats.MPI)
	ranks := uint64(cfg.Ranks)
	c.RankIters = ranks * table2RankItersPerRank
	c.WorldVPs = ranks * 7 // baseline, E1, and the five campaign runs
	c.PoolSlots = cfg.Pool
	c.PoolWall = tab.Stats.Runner.Wall
	c.RunWall = tab.Stats.Runner.RunWall
	c.QueueWait = tab.Stats.Runner.QueueWait
	c.PoolRuns = tab.Stats.Runner.Started
	// One checkpoint round at iteration 1,000 of the baseline; rounds at
	// 500 and 1,000 elsewhere, less the rounds the failed runs never
	// reached. A restart reads one checkpoint per rank.
	c.CkptWrites = ranks * (1 + 2 + (0 + 2) + (0 + 2 + 1))
	c.CkptDeletes = ranks * (0 + 1 + (0 + 1) + (0 + 1 + 1))
	c.CkptReads = ranks * 1
	return res, nil
}

// --- halo-64k-prog-w2 and halo-16k-closure ---------------------------------

type haloInstance struct {
	simCfg  xsim.Config
	iters   int
	closure bool
}

func newHalo(gen inputs, closure bool) (instance, error) {
	seed, quick := gen.Seed, gen.Quick
	in := &haloInstance{closure: closure}
	switch {
	case closure && quick:
		in.simCfg.Ranks, in.iters = 512, 10
	case closure:
		in.simCfg.Ranks, in.iters = 16384, 10
	case quick:
		in.simCfg.Ranks, in.iters = 4096, 8
	default:
		in.simCfg.Ranks, in.iters = 65536, 8
	}
	in.simCfg.Workers = 1
	if !closure {
		in.simCfg.Workers = 2
	}
	in.simCfg.CallOverhead = callOverhead(seed)
	return in, nil
}

// runOutcome is the canonical outcome of a single simulation run.
type runOutcome struct {
	SimTimeNS     int64  `json:"sim_time_ns"`
	MinTimeNS     int64  `json:"min_time_ns"`
	AvgTimeNS     int64  `json:"avg_time_ns"`
	Completed     int    `json:"completed"`
	Failed        int    `json:"failed"`
	Aborted       int    `json:"aborted"`
	Events        uint64 `json:"events"`
	EagerMsgs     uint64 `json:"eager_msgs"`
	EagerBytes    uint64 `json:"eager_bytes"`
	Collectives   uint64 `json:"collectives"`
	UnexpectedMax int    `json:"unexpected_max"`
}

func (in *haloInstance) Rep(tr *Tracer) (*repResult, error) {
	s := tr.Start("xsim.HeatWorkloadFor", -1)
	hc, err := xsim.HeatWorkloadFor(in.simCfg.Ranks)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	hc.Iterations = in.iters
	hc.ExchangeInterval = 1
	hc.CheckpointInterval = in.iters // the single final checkpoint

	s = tr.Start("xsim.New", -1)
	sim, err := xsim.New(in.simCfg)
	tr.End(s)
	if err != nil {
		return nil, err
	}
	var run *xsim.Result
	if in.closure {
		s = tr.Start("xsim.Sim.Run", -1)
		run, err = sim.Run(xsim.RunHeat(hc))
	} else {
		s = tr.Start("xsim.Sim.RunProgs", -1)
		run, err = sim.RunProgs(xsim.RunHeatProg(hc))
	}
	tr.End(s)
	if err != nil {
		return nil, fmt.Errorf("bench: halo: %w", err)
	}

	res := &repResult{Attempted: 1}
	verify := tr.Start("bench.verify", -1)
	ranks := in.simCfg.Ranks
	res.check(run.Success() && run.Completed == ranks, "halo: %d of %d ranks completed (%d failed, %d aborted)",
		run.Completed, ranks, run.Failed, run.Aborted)
	res.check(run.MPI.EagerMsgs > 0, "halo: no eager messages") // the golden pins the exact count
	if in.simCfg.Workers > 1 {
		res.check(run.Engine.BarrierRounds > 0, "halo: Workers=%d ran no parallel window", in.simCfg.Workers)
	}
	res.Outcome = runOutcome{
		SimTimeNS: int64(run.SimTime), MinTimeNS: int64(run.MinTime), AvgTimeNS: int64(run.AvgTime),
		Completed: run.Completed, Failed: run.Failed, Aborted: run.Aborted,
		Events: run.Engine.EventsDispatched, EagerMsgs: run.MPI.EagerMsgs, EagerBytes: run.MPI.EagerBytes,
		Collectives: run.MPI.CollectiveOps, UnexpectedMax: run.MPI.UnexpectedMax,
	}
	tr.End(verify)

	c := &res.Counts
	c.addSim(run.Engine, run.MPI)
	c.RankIters = uint64(ranks) * uint64(in.iters)
	c.WorldVPs = uint64(ranks)
	c.Closure = in.closure
	c.CkptWrites = uint64(ranks)
	return res, nil
}

// --- ckpt-32k-prog ---------------------------------------------------------

const ckptIterations = 12

type ckptInstance struct {
	camp xsim.Campaign
}

func newCkpt(in inputs) (instance, error) {
	seed, quick := in.Seed, in.Quick
	ranks := 32768
	if quick {
		ranks = 512
	}
	hc, err := xsim.HeatWorkloadFor(ranks)
	if err != nil {
		return nil, err
	}
	hc.Iterations = ckptIterations
	hc.CheckpointInterval = 1
	hc.ExchangeInterval = ckptIterations
	hc.CheckpointPayload = 1 << 20
	// One scheduled failure: a seed-chosen rank (never 0, the barrier
	// root) dies at a seed-chosen instant early in the seventh iteration,
	// so the run aborts in that iteration's barrier and the restart reads
	// a checkpoint back. An iteration is 5.25 s of compute plus the
	// checkpoint round's linear barrier: ~195 s at 32,768 ranks, ~8.6 s
	// at the quick scale.
	period := 195.4
	if quick {
		period = 8.57
	}
	victim := 1 + int(uint64(subSeed(seed, 1))%uint64(ranks-1))
	at := 6.1*period + float64(uint64(subSeed(seed, 2))%3000)/1000
	return &ckptInstance{camp: xsim.Campaign{
		Base: xsim.Config{
			Ranks:        ranks,
			Workers:      1,
			CallOverhead: callOverhead(seed),
			FSHierarchy:  xsim.PaperTieredFS(),
			Failures:     xsim.Schedule{{Rank: victim, At: xsim.Time(xsim.Seconds(at))}},
		},
		CheckpointPrefix: "heat",
		ProgFor:          func(int) func(int) xsim.Prog { return xsim.RunHeatProg(hc) },
	}}, nil
}

// ckptOutcome is the canonical outcome of the checkpoint workload.
type ckptOutcome struct {
	E2NS      int64             `json:"e2_ns"`
	Failures  int               `json:"failures"`
	Done      bool              `json:"done"`
	Runs      []xsim.RunSummary `json:"runs"`
	SimTimeNS int64             `json:"sim_time_ns"`
	Events    uint64            `json:"events"`
	EagerMsgs uint64            `json:"eager_msgs"`
}

func (in *ckptInstance) Rep(tr *Tracer) (*repResult, error) {
	camp := in.camp
	camp.Base.Store = xsim.NewStore() // every repetition starts with an empty file system
	root := tr.Start("xsim.Campaign.Run", -1)
	if tr != nil {
		// ProgFor is called once at the start of each run of the restart
		// chain, which is where one run's span ends and the next begins.
		progFor, open := camp.ProgFor, -1
		camp.ProgFor = func(run int) func(int) xsim.Prog {
			tr.End(open)
			open = tr.Start(fmt.Sprintf("xsim.Campaign run %d", run), root)
			return progFor(run)
		}
		defer func() { tr.End(open) }()
	}
	out, err := camp.Run()
	tr.End(root)
	if err != nil {
		return nil, fmt.Errorf("bench: ckpt: %w", err)
	}

	res := &repResult{Attempted: len(out.Runs)}
	verify := tr.Start("bench.verify", -1)
	res.check(out.Done && len(out.Runs) == 2 && out.Failures == 1,
		"ckpt: done=%v after %d runs and %d failures, want 2 runs and 1 failure", out.Done, len(out.Runs), out.Failures)
	if len(out.Runs) == 2 {
		res.check(out.Runs[1].Completed == camp.Base.Ranks, "ckpt: restart completed %d of %d ranks", out.Runs[1].Completed, camp.Base.Ranks)
	}
	res.Outcome = ckptOutcome{
		E2NS: int64(out.E2), Failures: out.Failures, Done: out.Done, Runs: out.Runs,
		SimTimeNS: int64(out.SimTime), Events: out.Engine.EventsDispatched, EagerMsgs: out.MPI.EagerMsgs,
	}
	tr.End(verify)

	c := &res.Counts
	c.addSim(out.Engine, out.MPI)
	ranks := uint64(camp.Base.Ranks)
	c.RankIters = ranks * ckptIterations
	c.WorldVPs = ranks * 2
	c.CkptWrites = ranks * ckptIterations
	c.CkptDeletes = ranks * (ckptIterations - 1)
	c.CkptReads = ranks
	return res, nil
}
