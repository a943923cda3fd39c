package xsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// campaignHeat is the 8-rank heat workload campaignTemplate runs.
func campaignHeat(t *testing.T, iterations int) HeatConfig {
	t.Helper()
	hc, err := HeatWorkloadFor(8)
	if err != nil {
		t.Fatal(err)
	}
	hc.Iterations = iterations
	hc.ExchangeInterval = iterations / 5
	hc.CheckpointInterval = iterations / 5
	return hc
}

// campaignTemplate builds a small heat campaign template whose random
// failures strike often enough to exercise restarts.
func campaignTemplate(t *testing.T, iterations int) Campaign {
	t.Helper()
	hc := campaignHeat(t, iterations)
	return Campaign{
		Base:             Config{Ranks: 8},
		MTTF:             100 * Second,
		CheckpointPrefix: "heat",
		AppFor:           func(int) App { return RunHeat(hc) },
	}
}

// campaignDigest flattens the per-seed observable outcomes into one
// comparable string.
func campaignDigest(set *CampaignSet) string {
	var b []byte
	for i, r := range set.Results {
		if r == nil {
			b = fmt.Appendf(b, "%d:nil;", set.Seeds[i])
			continue
		}
		b = fmt.Appendf(b, "%d:E2=%v,F=%d,runs=%d,sim=%v;", set.Seeds[i], r.E2, r.Failures, len(r.Runs), r.SimTime)
	}
	return string(b)
}

func TestRunCampaignsDeterministicAcrossPools(t *testing.T) {
	// The acceptance bar for the orchestration layer: a 50-seed campaign
	// produces bit-identical per-seed results at any pool size, because
	// every seed derives from the campaign seed and the run index alone.
	digests := make(map[int]string)
	for _, pool := range []int{1, 2, 8} {
		set, err := RunCampaigns(context.Background(), CampaignSetConfig{
			RunSpec:  RunSpec{Seed: 42, Pool: pool},
			Template: campaignTemplate(t, 50),
			Count:    50,
		})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		if got := set.Stats.Runner.Completed; got != 50 {
			t.Fatalf("pool=%d: completed = %d, want 50", pool, got)
		}
		if set.Stats.SimTime == 0 || set.Stats.Engine.EventsDispatched == 0 {
			t.Fatalf("pool=%d: pooled metrics empty: %+v", pool, set.Stats)
		}
		digests[pool] = campaignDigest(set)
	}
	if digests[1] != digests[2] || digests[1] != digests[8] {
		t.Fatalf("campaign digests differ across pool sizes:\n1: %s\n2: %s\n8: %s",
			digests[1], digests[2], digests[8])
	}
}

func TestRunCampaignsExplicitSeedsAndMean(t *testing.T) {
	set, err := RunCampaigns(context.Background(), CampaignSetConfig{
		RunSpec:  RunSpec{Pool: 2},
		Template: campaignTemplate(t, 50),
		Seeds:    []int64{133, 134, 135},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 3 || len(set.Seeds) != 3 {
		t.Fatalf("results = %d, seeds = %d", len(set.Results), len(set.Seeds))
	}
	if mean := set.MeanE2(); mean <= 0 {
		t.Fatalf("MeanE2 = %v", mean)
	}
}

// TestRunCampaignsProgModeMatchesClosure pins that a template carrying only
// the program-mode hook is accepted, like Campaign.RunContext accepts it,
// and that the set is per-seed identical to its closure-mode twin.
func TestRunCampaignsProgModeMatchesClosure(t *testing.T) {
	run := func(prog bool) string {
		tpl := campaignTemplate(t, 50)
		if prog {
			hc := campaignHeat(t, 50)
			tpl.AppFor = nil
			tpl.ProgFor = func(int) func(rank int) Prog { return RunHeatProg(hc) }
		}
		set, err := RunCampaigns(context.Background(), CampaignSetConfig{
			RunSpec: RunSpec{Seed: 42, Pool: 2}, Template: tpl, Count: 8,
		})
		if err != nil {
			t.Fatalf("prog=%v: %v", prog, err)
		}
		return campaignDigest(set)
	}
	if closure, prog := run(false), run(true); closure != prog {
		t.Fatalf("campaign digests differ across execution modes:\nclosure: %s\nprog:    %s", closure, prog)
	}
	if _, err := RunCampaigns(context.Background(), CampaignSetConfig{Template: Campaign{Base: Config{Ranks: 8}}}); err == nil {
		t.Fatal("a template without any application hook should be rejected")
	}
}

func TestRunCampaignsRejectsSharedStore(t *testing.T) {
	tpl := campaignTemplate(t, 50)
	tpl.Base.Store = NewStore()
	if _, err := RunCampaigns(context.Background(), CampaignSetConfig{Template: tpl}); err == nil {
		t.Fatal("shared Template.Base.Store should be rejected")
	}
}

func TestRunCampaignsCancelMidCampaignNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	tpl := campaignTemplate(t, 5000)
	var once sync.Once
	appFor := tpl.AppFor
	tpl.AppFor = func(run int) App {
		// Cancel as soon as the first application run is under way, so the
		// pool is caught mid-simulation.
		once.Do(cancel)
		return appFor(run)
	}

	set, err := RunCampaigns(ctx, CampaignSetConfig{
		RunSpec:  RunSpec{Seed: 7, Pool: 2},
		Template: tpl,
		Count:    6,
	})
	if err == nil {
		t.Fatal("cancelled campaign set should report an error")
	}
	if !errors.Is(err, ErrCancelled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled or context.Canceled in the chain", err)
	}
	if set == nil {
		t.Fatal("cancelled campaign set should still return partial results")
	}
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want a *RunError in the chain", err)
	}
	if got := set.Stats.Runner.Failed + set.Stats.Runner.Skipped; got == 0 {
		t.Fatalf("stats should count failed/skipped runs: %+v", set.Stats.Runner)
	}

	// Engine VPs die synchronously in the teardown kill; give the runtime
	// a moment to retire them before counting.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestTableIIPoolMatchesSequential(t *testing.T) {
	// The fan-out re-platforming must not change a single cell: the same
	// grid computed sequentially and with four cells in flight is
	// row-for-row identical (per-cell seeds depend only on the config).
	run := func(pool int) *TableII {
		tab, err := RunTableIIContext(context.Background(), TableIIConfig{
			RunSpec:    RunSpec{Ranks: 16, Seed: 133, Pool: pool},
			Iterations: 100,
			Intervals:  []int{50, 25},
			MTTFs:      []Duration{500 * Second},
		})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		return tab
	}
	seq, par := run(1), run(4)
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		if seq.Rows[i] != par.Rows[i] {
			t.Fatalf("row %d differs: pool=1 %+v vs pool=4 %+v", i, seq.Rows[i], par.Rows[i])
		}
	}
	// 1 baseline E1 + 2 interval E1s + 2 campaign cells = 5 tasks.
	if par.Stats.Runner.Completed != 5 {
		t.Fatalf("completed = %d, want 5", par.Stats.Runner.Completed)
	}
}

// TestCheckpointIOAblationSmoke pins the checkpoint-I/O ablation's
// qualitative shape at CI scale: with the I/O cost on, the free arm is
// strictly fastest, the tiered arm strictly beats the flat shared PFS,
// and the recovered-overhead fractions are meaningful (in (0, 1]).
func TestCheckpointIOAblationSmoke(t *testing.T) {
	tab, err := RunCheckpointIOAblationContext(context.Background(), RunSpec{Ranks: 64, Seed: 133},
		IOAblationParams{Iterations: 60, Intervals: []int{20}, MTTFSeconds: []float64{150}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 arms × (baseline E1 + one interval E1 + one campaign cell).
	if len(tab.Rows) != 12 {
		t.Fatalf("got %d rows, want 12:\n%s", len(tab.Rows), tab.Render())
	}
	t.Logf("\n%s", tab.Render())

	const c = 20
	free := tab.Row(IOArmFree, 0, c)
	flat := tab.Row(IOArmFlatPFS, 0, c)
	tiered := tab.Row(IOArmTiered, 0, c)
	incr := tab.Row(IOArmTieredIncr, 0, c)
	if free == nil || flat == nil || tiered == nil || incr == nil {
		t.Fatal("missing E1 rows")
	}
	if !(free.E1 < tiered.E1 && tiered.E1 < flat.E1) {
		t.Fatalf("E1 ordering broken: free %v, tiered %v, flat %v",
			free.E1, tiered.E1, flat.E1)
	}
	if incr.E1 > tiered.E1 {
		t.Fatalf("incremental E1 %v above plain tiered %v", incr.E1, tiered.E1)
	}
	for _, arm := range []string{IOArmTiered, IOArmTieredIncr} {
		if r := tab.RecoveredE1(arm, c); r <= 0 || r > 1 {
			t.Fatalf("RecoveredE1(%s) = %v, want in (0, 1]", arm, r)
		}
	}

	// The campaign cells face identical failure sequences (the draws
	// depend on seed and MTTF, not the arm), so F matches across arms
	// and the E2 ordering mirrors E1.
	mttf := tab.MTTFs[0]
	cells := make([]*CheckpointIOAblationRow, 0, 4)
	for _, arm := range []string{IOArmFree, IOArmFlatPFS, IOArmTiered, IOArmTieredIncr} {
		cell := tab.Row(arm, mttf, c)
		if cell == nil {
			t.Fatalf("missing campaign cell for %s", arm)
		}
		cells = append(cells, cell)
	}
	for _, cell := range cells[1:] {
		if cell.F != cells[0].F {
			t.Fatalf("failure counts diverge across arms:\n%s", tab.Render())
		}
	}
	if cells[0].F == 0 {
		t.Fatalf("no failures at MTTF %v — campaign cells degenerate", mttf)
	}
	if fr, fl := cells[0], cells[1]; fr.E2 >= fl.E2 {
		t.Fatalf("flat-PFS E2 %v not above free E2 %v", fl.E2, fr.E2)
	}
	if ti, fl := cells[2], cells[1]; ti.E2 >= fl.E2 {
		t.Fatalf("tiered E2 %v not below flat-PFS E2 %v", ti.E2, fl.E2)
	}
	if r := tab.Recovered(IOArmTiered, mttf, c); r <= 0 || r > 1 {
		t.Fatalf("Recovered(tiered) = %v, want in (0, 1]", r)
	}
}

func TestTableIPoolMatchesSequential(t *testing.T) {
	run := func(pool int) *TableIResult {
		res, err := RunTableIContext(context.Background(), RunSpec{Seed: 2013, Pool: pool}, TableIParams{})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Injections != par.Injections || seq.Survived != par.Survived {
		t.Fatalf("Table I differs across pools: %+v vs %+v", seq.Summary, par.Summary)
	}
	for i := range seq.ToFailure {
		if seq.ToFailure[i] != par.ToFailure[i] {
			t.Fatalf("victim %d: %d vs %d injections", i, seq.ToFailure[i], par.ToFailure[i])
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sim, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.RunContext(ctx, func(e *Env) { e.Finalize() })
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestResultErrTyped(t *testing.T) {
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 50
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 10
	sim, err := New(Config{Ranks: 8, Failures: Schedule{{Rank: 3, At: Time(60 * Second)}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunHeat(hc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Success() {
		t.Fatal("run with an injected failure should not succeed")
	}
	if !errors.Is(res.Err(), ErrAborted) {
		t.Fatalf("res.Err() = %v, want ErrAborted", res.Err())
	}

	ok, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := ok.Run(func(e *Env) { e.Finalize() })
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Err() != nil {
		t.Fatalf("clean run Err() = %v", cleanRes.Err())
	}
}
