package xsim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xsim/internal/runner"
)

// failureGrid is an 8-rank heat grid at one checkpoint interval with one
// restart campaign per seed, each at a 100 s MTTF so failures strike
// often enough to exercise restarts.
func failureGrid(t testing.TB, rs RunSpec, iterations, seeds int) *heatGrid {
	t.Helper()
	rs.Ranks = 8
	g, err := newHeatGrid(rs, iterations, []int{iterations / 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seeds; i++ {
		seed := runner.DeriveSeed(rs.Seed, i)
		g.cells = append(g.cells, gridCell{mttf: 100 * Second, seed: seed, label: fmt.Sprintf("seed=%d", seed)})
	}
	return g
}

func TestHeatGridDeterministicAcrossPools(t *testing.T) {
	// The acceptance bar for the orchestration layer: a grid of 50
	// restart campaigns produces identical rows at any pool size, because
	// every cell's failure draws derive from its seed and run index alone.
	var want []TableIIRow
	for _, pool := range []int{1, 2, 8} {
		rows, stats, err := failureGrid(t, RunSpec{Seed: 42, Pool: pool}, 50, 50).run(context.Background())
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		// Baseline E1 + one interval E1 + 50 cells.
		if got := stats.Runner.Completed; got != 52 || len(rows) != 52 {
			t.Fatalf("pool=%d: completed = %d, rows = %d, want 52", pool, got, len(rows))
		}
		if stats.SimTime == 0 || stats.Engine.EventsDispatched == 0 {
			t.Fatalf("pool=%d: pooled metrics empty: %+v", pool, stats)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Fatalf("pool=%d rows differ from pool=1:\n%+v\n%+v", pool, rows, want)
		}
	}
	failures := 0
	for _, r := range want[2:] {
		failures += r.F
	}
	if failures == 0 {
		t.Fatal("no cell met a failure; the grid exercises no restarts")
	}
}

func TestHeatGridCancelMidGridNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	rs := RunSpec{Seed: 7, Pool: 2, OnProgress: func(ev ProgressEvent) {
		// Cancel as soon as the first cell starts, so the pool is caught
		// mid-grid.
		if ev.State == "started" {
			once.Do(cancel)
		}
	}}
	_, stats, err := failureGrid(t, rs, 5000, 6).run(ctx)
	if err == nil {
		t.Fatal("cancelled grid should report an error")
	}
	if !errors.Is(err, ErrCancelled) && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled or context.Canceled in the chain", err)
	}
	var runErr *RunError
	if !errors.As(err, &runErr) {
		t.Fatalf("err = %v, want a *RunError in the chain", err)
	}
	if got := stats.Runner.Failed + stats.Runner.Skipped; got == 0 {
		t.Fatalf("stats should count failed/skipped runs: %+v", stats.Runner)
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

func TestReplicationCrossoverPoolMatchesSequential(t *testing.T) {
	run := func(pool int) (*CrossoverOutcome, CampaignStats) {
		rs, p := smokeCrossover()
		rs.Pool = pool
		table, stats, err := runCrossover(context.Background(), rs, p)
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		return table, stats
	}
	seq, seqStats := run(1)
	par, parStats := run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("tables differ:\npool=1 %+v\npool=4 %+v", seq, par)
	}
	// Five cells run in the pool; the E1 run precedes them.
	if seqStats.SimTime != parStats.SimTime || seqStats.Runner.Completed != 5 {
		t.Fatalf("pooled stats differ: pool=1 %+v, pool=4 %+v", seqStats, parStats)
	}
	// Failure records pool E1 first, then the cells in list order.
	if !reflect.DeepEqual(seqStats.MPI.Failures, parStats.MPI.Failures) {
		t.Fatalf("pooled failure records differ:\npool=1 %+v\npool=4 %+v", seqStats.MPI.Failures, parStats.MPI.Failures)
	}
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
	block := &IOAblationParams{Iterations: 60, Intervals: []int{20}, MTTFSeconds: []float64{150}}
	out, text, err := runBlock(context.Background(), RunSpec{Ranks: 64, Seed: 133}, block)
	if err != nil {
		t.Fatal(err)
	}
	tab := out.IOAblation
	// 4 arms × (baseline E1 + one interval E1 + one campaign cell).
	if len(tab.Rows) != 12 {
		t.Fatalf("got %d rows, want 12:\n%s", len(tab.Rows), text)
	}
	t.Logf("\n%s", text)

	const c = 20
	row := func(arm string, mttfSeconds float64) *WireIOAblationRow {
		for i := range tab.Rows {
			if r := &tab.Rows[i]; r.Arm == arm && r.MTTFSeconds == mttfSeconds && r.C == c {
				return r
			}
		}
		t.Fatalf("no %s row at MTTF %v s, c=%d:\n%s", arm, mttfSeconds, c, text)
		return nil
	}
	free, flat, tiered, incr := row(IOArmFree, 0), row(IOArmFlatPFS, 0), row(IOArmTiered, 0), row(IOArmTieredIncr, 0)
	if !(free.E1NS < tiered.E1NS && tiered.E1NS < flat.E1NS) {
		t.Fatalf("E1 ordering broken: free %v, tiered %v, flat %v",
			free.E1NS, tiered.E1NS, flat.E1NS)
	}
	if incr.E1NS > tiered.E1NS {
		t.Fatalf("incremental E1 %v above plain tiered %v", incr.E1NS, tiered.E1NS)
	}
	for _, arm := range []string{IOArmTiered, IOArmTieredIncr} {
		if r := tab.recovered(arm, 0, c); r <= 0 || r > 1 {
			t.Fatalf("recovered E1 (%s) = %v, want in (0, 1]", arm, r)
		}
	}

	// The campaign cells face identical failure sequences (the draws
	// depend on seed and MTTF, not the arm), so F matches across arms
	// and the E2 ordering mirrors E1.
	mttf := block.MTTFSeconds[0]
	cells := []*WireIOAblationRow{row(IOArmFree, mttf), row(IOArmFlatPFS, mttf), row(IOArmTiered, mttf), row(IOArmTieredIncr, mttf)}
	for _, cell := range cells[1:] {
		if cell.F != cells[0].F {
			t.Fatalf("failure counts diverge across arms:\n%s", text)
		}
	}
	if cells[0].F == 0 {
		t.Fatalf("no failures at MTTF %v s — campaign cells degenerate", mttf)
	}
	if fr, fl := cells[0], cells[1]; fr.E2NS >= fl.E2NS {
		t.Fatalf("flat-PFS E2 %v not above free E2 %v", fl.E2NS, fr.E2NS)
	}
	if ti, fl := cells[2], cells[1]; ti.E2NS >= fl.E2NS {
		t.Fatalf("tiered E2 %v not below flat-PFS E2 %v", ti.E2NS, fl.E2NS)
	}
	if r := tab.recovered(IOArmTiered, mttf, c); r <= 0 || r > 1 {
		t.Fatalf("recovered E2 (tiered) = %v, want in (0, 1]", r)
	}
}

func TestTableIPoolMatchesSequential(t *testing.T) {
	run := func(pool int) *TableIOutcome {
		out, _, err := runBlock(context.Background(), RunSpec{Seed: 2013, Pool: pool}, &TableIParams{})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		return out.TableI
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

// TestClockOverflowSpecEndsInTypedError is the regression for a spec that
// passes Validate yet asks for more virtual time than the clock holds: in
// testdata/clock-overflow.json a 10^16 ns call overhead carries the restart
// chain's clocks to the end of virtual time. The campaign must fail with
// ErrClockOverflow naming the rank, not with the false deadlock the wrapped
// clocks used to produce. ci.sh runs the same file through xsim-run.
func TestClockOverflowSpecEndsInTypedError(t *testing.T) {
	data, err := os.ReadFile("testdata/clock-overflow.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeCampaignSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("the pinned spec no longer passes Validate (%v): refusing it up front is the admission budget's job", err)
	}
	_, err = spec.RunWith(context.Background(), RunOptions{})
	if !errors.Is(err, ErrClockOverflow) || errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrClockOverflow and not ErrDeadlock", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "rank 0 at ") {
		t.Fatalf("err = %q does not name the rank", msg)
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
