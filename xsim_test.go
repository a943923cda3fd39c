package xsim

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"xsim/internal/checkpoint"
	"xsim/internal/heat"
	"xsim/internal/reliability"
	"xsim/internal/trace"
)

// The aggregate-bandwidth extension must degenerate exactly: a flat model
// whose aggregate share exceeds the per-client bandwidth charges
// bit-identically to the plain per-client model, so existing flat
// configurations (and the 500-seed differential harness's zero-cost
// model) keep their digests.
func TestFlatModelDigestUnchangedByAggregateHeadroom(t *testing.T) {
	run := func(h FSHierarchy) []Time {
		hc, err := HeatWorkloadFor(8)
		if err != nil {
			t.Fatal(err)
		}
		hc.Iterations = 40
		hc.ExchangeInterval = 10
		hc.CheckpointInterval = 10
		sim, err := New(Config{Ranks: 8, FSHierarchy: h})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(RunHeat(hc))
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != 8 {
			t.Fatalf("completed = %d", res.Completed)
		}
		return res.PerRank
	}
	flat := run(PaperPFS())
	// 8 clients × 1 GB/s per client ≤ 256 GB/s aggregate: the per-client
	// rate governs and the shared model must charge the same times.
	shared := run(PaperPFSShared())
	for r := range flat {
		if flat[r] != shared[r] {
			t.Fatalf("rank %d: flat %v != shared-with-headroom %v", r, flat[r], shared[r])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero Ranks should fail")
	}
	if _, err := New(Config{Ranks: -1}); err == nil {
		t.Error("negative Ranks should fail")
	}
	if _, err := New(Config{Ranks: 8}); err != nil {
		t.Errorf("defaulted config should build: %v", err)
	}
}

func TestQuickstartSendRecv(t *testing.T) {
	sim, err := New(Config{Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got string
	res, err := sim.Run(func(env *Env) {
		defer env.Finalize()
		world := env.World()
		switch env.Rank() {
		case 0:
			if err := world.Send(1, 0, []byte("hello")); err != nil {
				t.Errorf("send: %v", err)
			}
		case 1:
			msg, err := world.Recv(0, 0)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = string(msg.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
	if !res.Success() || res.Completed != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.SimTime <= 0 {
		t.Fatal("simulated time should advance")
	}
}

func TestMetricsReportListsVPLifecycle(t *testing.T) {
	sim, err := New(Config{Ranks: 4, Trace: NewTrace(0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(func(env *Env) {
		defer env.Finalize()
		env.Compute(1e6)
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.MetricsReport()
	for _, want := range []string{"vp lifecycle:", "carriers-spawned", "carriers-hi", "carriers-live", "program-steps", "eventq-run-share"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if res.Engine.CarriersSpawned == 0 {
		t.Fatal("closure run spawned no carriers")
	}
	if res.Engine.CarriersLive != 0 {
		t.Fatalf("CarriersLive = %d after the run", res.Engine.CarriersLive)
	}
	// The run-end gauges also land on the trace as counter tracks.
	var names []string
	for _, c := range sim.cfg.Trace.Counters() {
		names = append(names, c.Name)
	}
	if len(names) == 0 || !strings.Contains(strings.Join(names, " "), "carriers-spawned") {
		t.Fatalf("trace counters = %v", names)
	}
}

func TestFactor3(t *testing.T) {
	cases := map[int][3]int{
		32768: {32, 32, 32},
		512:   {8, 8, 8},
		64:    {4, 4, 4},
		12:    {3, 2, 2},
		7:     {7, 1, 1},
		1:     {1, 1, 1},
	}
	for n, want := range cases {
		x, y, z := factor3(n)
		if x != want[0] || y != want[1] || z != want[2] {
			t.Errorf("factor3(%d) = %d,%d,%d, want %v", n, x, y, z, want)
		}
	}
}

func TestQuickFactor3Product(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw)%4096 + 1
		x, y, z := factor3(n)
		return x*y*z == n && x >= y && y >= z && z >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultNet(t *testing.T) {
	net := DefaultNet(32768)
	if net.Topo.Nodes() != 32768 || net.Topo.Name() != "32x32x32 torus" {
		t.Errorf("paper net = %v", net.Topo.Name())
	}
	net = DefaultNet(100)
	if net.Topo.Nodes() != 100 {
		t.Errorf("scaled net nodes = %d", net.Topo.Nodes())
	}
}

func TestHeatWorkloadFor(t *testing.T) {
	hc, err := HeatWorkloadFor(512)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.Validate(512); err != nil {
		t.Fatal(err)
	}
	if hc.PointsPerRank() != 4096 {
		t.Errorf("points per rank = %d, want 4096 (16³)", hc.PointsPerRank())
	}
	if _, err := HeatWorkloadFor(0); err == nil {
		t.Error("zero ranks should fail")
	}
	full := heat.PaperWorkload()
	if err := full.Validate(32768); err != nil {
		t.Fatal(err)
	}
}

func TestScheduledFailureAbortsHeat(t *testing.T) {
	hc, err := HeatWorkloadFor(8)
	if err != nil {
		t.Fatal(err)
	}
	hc.Iterations = 100
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 10
	sched, err := ParseSchedule("3@50")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Ranks: 8, Failures: sched})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunHeat(hc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Aborted != 7 {
		t.Fatalf("result = %+v", res)
	}
	if res.Success() {
		t.Fatal("aborted run should not be a success")
	}
}

func TestCampaignCompletesWithoutFailures(t *testing.T) {
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 50
	hc.ExchangeInterval = 25
	hc.CheckpointInterval = 25
	camp := Campaign{
		Base:             Config{Ranks: 8},
		CheckpointPrefix: "heat",
		AppFor:           func(int) App { return RunHeat(hc) },
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || len(res.Runs) != 1 || res.Failures != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.MTTFa() != Duration(res.E2) {
		t.Errorf("MTTFa with F=0 should equal E2")
	}
}

func TestCampaignRestartsThroughFailures(t *testing.T) {
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 100
	hc.ExchangeInterval = 20
	hc.CheckpointInterval = 20
	camp := Campaign{
		Base:             Config{Ranks: 8, Failures: Schedule{{Rank: 2, At: Time(120 * Second)}}},
		CheckpointPrefix: "heat",
		AppFor:           func(int) App { return RunHeat(hc) },
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Failures != 1 || len(res.Runs) != 2 {
		t.Fatalf("result = %+v", res)
	}
	// Continuous virtual time: the restart begins at the abort's end.
	if res.Runs[1].Start != res.Runs[0].End {
		t.Errorf("restart start %v != first run end %v", res.Runs[1].Start, res.Runs[0].End)
	}
	if res.E2 <= res.Runs[0].End {
		t.Errorf("completion %v should be after the first run's abort %v", res.E2, res.Runs[0].End)
	}
	want := Duration(res.E2) / 2
	if res.MTTFa() != want {
		t.Errorf("MTTFa = %v, want %v", res.MTTFa(), want)
	}
}

func TestCampaignRequiresApp(t *testing.T) {
	if _, err := (Campaign{Base: Config{Ranks: 2}}).Run(); err == nil {
		t.Fatal("missing AppFor should fail")
	}
}

func TestSavedExitTime(t *testing.T) {
	store := NewStore()
	if _, ok := checkpoint.LoadExitTime(store); ok {
		t.Fatal("fresh store should have no exit time")
	}
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 50
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 10
	camp := Campaign{
		Base:             Config{Ranks: 8, Store: store, Failures: Schedule{{Rank: 0, At: Time(60 * Second)}}},
		CheckpointPrefix: "heat",
		AppFor:           func(int) App { return RunHeat(hc) },
	}
	if _, err := camp.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := checkpoint.LoadExitTime(store); !ok {
		t.Fatal("campaign with a failure should persist an exit time")
	}
}

func TestRunTableIShape(t *testing.T) {
	out, _, err := runBlock(context.Background(), RunSpec{Seed: 2013}, &TableIParams{})
	if err != nil {
		t.Fatal(err)
	}
	res := out.TableI
	if res.Victims != 100 {
		t.Fatalf("victims = %d", res.Victims)
	}
	s := res.Summary
	if s.Mean < 15 || s.Mean > 30 {
		t.Errorf("mean = %v, want ≈ 22 (Table I: 21.97)", s.Mean)
	}
	if s.Min > 3 || s.Max < 50 {
		t.Errorf("min/max = %v/%v, want wide spread (Table I: 1/98)", s.Min, s.Max)
	}
	if !strings.Contains(res.Table(), "Victims") {
		t.Error("table rendering broken")
	}
}

// runSmallTableII runs the Table II reproduction at 64 ranks (fast) with
// the documented seed.
func runSmallTableII(t *testing.T) *TableII {
	t.Helper()
	tab, err := RunTableIIContext(context.Background(), TableIIConfig{RunSpec: RunSpec{Ranks: 64, Seed: 133}})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestRunTableIIShape(t *testing.T) {
	tab := runSmallTableII(t)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (baseline + 3 C × 2 MTTF)", len(tab.Rows))
	}
	base := tab.Rows[0]
	if base.C != 1000 || base.F != 0 || base.E2 != 0 {
		t.Fatalf("baseline row = %+v", base)
	}

	// E1 grows as the checkpoint interval shrinks (more checkpoints and
	// halo exchanges), starting from the baseline.
	for _, group := range [][]TableIIRow{tab.Rows[1:4], tab.Rows[4:7]} {
		prevE1 := base.E1
		for _, r := range group {
			if r.E1 <= prevE1 {
				t.Errorf("E1 not increasing: C=%d E1=%v (prev %v)", r.C, r.E1, prevE1)
			}
			prevE1 = r.E1
			if r.F > 0 {
				if r.E2 <= r.E1 {
					t.Errorf("E2 %v should exceed E1 %v when failures struck", r.E2, r.E1)
				}
				if want := Duration(r.E2) / Duration(r.F+1); r.MTTFa != want {
					t.Errorf("MTTFa = %v, want E2/(F+1) = %v", r.MTTFa, want)
				}
			}
		}
	}

	// The headline result: with failures present, a shorter checkpoint
	// interval loses less progress, so E2 falls as C shrinks.
	for _, group := range [][]TableIIRow{tab.Rows[1:4], tab.Rows[4:7]} {
		withF := make([]TableIIRow, 0, 3)
		for _, r := range group {
			if r.F > 0 {
				withF = append(withF, r)
			}
		}
		for i := 1; i < len(withF); i++ {
			if withF[i].F == withF[i-1].F && withF[i].E2 >= withF[i-1].E2 {
				t.Errorf("E2 not decreasing with smaller C at MTTF %v: C=%d E2=%v vs C=%d E2=%v",
					withF[i].MTTFs, withF[i].C, withF[i].E2, withF[i-1].C, withF[i-1].E2)
			}
		}
	}
}

func TestRunTableIIDeterministic(t *testing.T) {
	a := runSmallTableII(t)
	b := runSmallTableII(t)
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestRunTableIIProgModeMatchesClosure pins the headline experiment's
// program-mode switch: the full Table II grid — E1 runs and every
// failure/restart campaign cell — must be row-identical in both
// execution modes.
func TestRunTableIIProgModeMatchesClosure(t *testing.T) {
	ref := runSmallTableII(t)
	tab, err := RunTableIIContext(context.Background(), TableIIConfig{RunSpec: RunSpec{Ranks: 64, Seed: 133, ProgMode: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(ref.Rows) {
		t.Fatalf("prog rows = %d, closure rows = %d", len(tab.Rows), len(ref.Rows))
	}
	for i := range ref.Rows {
		if tab.Rows[i] != ref.Rows[i] {
			t.Fatalf("row %d differs in program mode: %+v vs %+v", i, tab.Rows[i], ref.Rows[i])
		}
	}
}

func TestFirstImpressions(t *testing.T) {
	out, text, err := runBlock(context.Background(), RunSpec{Ranks: 64, Seed: 1},
		&FirstImpressionsParams{Trials: 6, Iterations: 200, Interval: 25})
	if err != nil {
		t.Fatal(err)
	}
	fi := out.Phases
	if fi.Trials == 0 {
		t.Fatal("no failure activated in any trial")
	}
	// The computation phase dominates, so failures strike there (§V-D).
	if fi.FailedIn["compute"] == 0 {
		t.Errorf("no failure in compute: %v", fi.FailedIn)
	}
	// Detection happens in the communication phases: halo exchange or
	// the barrier after a checkpoint.
	detected := fi.DetectedIn["halo-exchange"] + fi.DetectedIn["barrier"] + fi.DetectedIn["checkpoint"]
	if detected == 0 {
		t.Errorf("no detection in communication phases: %v", fi.DetectedIn)
	}
	// Every abort leaves checkpoint debris (incomplete, corrupted, or
	// partially deleted sets) — the paper's observation.
	if fi.CheckpointOutcomes["clean"] == fi.Trials {
		t.Errorf("aborts left no checkpoint debris: %v", fi.CheckpointOutcomes)
	}
	if !strings.Contains(text, "failed rank was in phase") {
		t.Error("render broken")
	}
}

func TestIntervalSweepShape(t *testing.T) {
	out, text, err := runBlock(context.Background(), RunSpec{Ranks: 64},
		&IntervalSweepParams{Seeds: []int64{133, 134}, Intervals: []int{500, 125, 31}})
	if err != nil {
		t.Fatal(err)
	}
	s := out.Sweep
	if len(s.Points) != 3 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// At MTTF 3,000 s against a ~5,000+ s solve, failures are frequent:
	// shorter intervals must win, and Daly's model must agree on the
	// direction.
	if s.Points[0].MeanE2NS <= s.Points[2].MeanE2NS {
		t.Errorf("E2 at C=500 (%v ns) should exceed E2 at C=31 (%v ns)", s.Points[0].MeanE2NS, s.Points[2].MeanE2NS)
	}
	if s.Points[0].DalyNS <= s.Points[2].DalyNS {
		t.Errorf("Daly at C=500 (%v ns) should exceed Daly at C=31 (%v ns)", s.Points[0].DalyNS, s.Points[2].DalyNS)
	}
	if s.BestMeasured != 31 {
		t.Errorf("best measured = %d, want 31", s.BestMeasured)
	}
	if s.DalyOptimalIters <= 0 {
		t.Errorf("Daly optimum = %v", s.DalyOptimalIters)
	}
	if s.CheckpointCostNS <= 0 {
		t.Errorf("empirical checkpoint cost = %v ns", s.CheckpointCostNS)
	}
	if !strings.Contains(text, "Daly optimum") {
		t.Error("render broken")
	}
}

func TestResultEnergy(t *testing.T) {
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 50
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 10
	sim, err := New(Config{Ranks: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunHeat(hc))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Energy(PaperPower())
	if rep.TotalJoules <= 0 || rep.AvgPowerWatts <= 0 {
		t.Fatalf("energy report = %+v", rep)
	}
	// The heat application is compute-dominated: the busy fraction
	// should be high.
	if rep.BusyFraction < 0.5 {
		t.Errorf("busy fraction = %v, want compute-dominated", rep.BusyFraction)
	}
	// Sanity: energy is bounded by every node drawing full power for the
	// whole run.
	maxPossible := PaperPower().ComputeWatts * float64(8) * res.SimTime.Seconds()
	maxPossible += PaperPower().OverheadWatts * float64(8) * res.SimTime.Seconds()
	if rep.TotalJoules > maxPossible {
		t.Errorf("energy %v exceeds physical bound %v", rep.TotalJoules, maxPossible)
	}
}

// runProactiveCampaign runs a campaign whose one failure strikes rank 9 at
// 900 s, with or without a failure predictor: lead > 0 makes the first run
// checkpoint lead ahead of the failure.
func runProactiveCampaign(t *testing.T, lead Duration) *CampaignResult {
	t.Helper()
	hc, err := HeatWorkloadFor(64)
	if err != nil {
		t.Fatal(err)
	}
	hc.Iterations = 200
	hc.ExchangeInterval = 100
	hc.CheckpointInterval = 100
	camp := Campaign{
		Base:             Config{Ranks: 64, Failures: Schedule{{Rank: 9, At: Time(900 * Second)}}},
		CheckpointPrefix: "heat",
		AppFor: func(run int) App {
			h := hc
			if lead > 0 {
				// Never = proactive mode without a trigger this run
				// (restart runs still find off-cadence checkpoints).
				h.ProactiveTrigger = Never
				if run == 0 {
					h.ProactiveTrigger = Time(900*Second - lead)
				}
			}
			return RunHeat(h)
		},
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Failures != 1 {
		t.Fatalf("campaign = %+v", res)
	}
	return res
}

func TestProactiveCheckpointReducesLostWork(t *testing.T) {
	reactive := runProactiveCampaign(t, 0)
	proactive := runProactiveCampaign(t, 30*Second)
	// The predictor fires 30 s before the failure; the extra checkpoint
	// saves most of the ~375 s of progress since the last regular
	// checkpoint, so the proactive E2 must be clearly smaller.
	if proactive.E2 >= reactive.E2 {
		t.Fatalf("proactive E2 %v should beat reactive %v", proactive.E2, reactive.E2)
	}
	saved := (Duration(reactive.E2) - Duration(proactive.E2)).Seconds()
	if saved < 100 {
		t.Fatalf("proactive checkpoint saved only %.0f s", saved)
	}
	// Pin the exact completion times, so any shift in when the trigger
	// fires or what the restart finds shows.
	if reactive.E2 != 1579309673736 || proactive.E2 != 1232961563352 {
		t.Fatalf("E2 = %d reactive, %d proactive; want 1579309673736, 1232961563352",
			int64(reactive.E2), int64(proactive.E2))
	}
}

func TestReliabilityDrivenCampaign(t *testing.T) {
	hc, _ := HeatWorkloadFor(8)
	hc.Iterations = 100
	hc.ExchangeInterval = 20
	hc.CheckpointInterval = 20
	// A fragile system: one component whose 8-node fleet fails every
	// ~65 s — several failures during the ~530 s run.
	sys := reliability.System{
		Nodes: 8,
		Node: reliability.Node{Components: []reliability.Component{
			{Name: "flaky-dimm", Dist: reliability.Exponential{MTBF: 520 * Second}},
		}},
	}
	camp := Campaign{
		Base:             Config{Ranks: 8},
		DrawFailures:     sys.CampaignSource(11),
		CheckpointPrefix: "heat",
		AppFor:           func(int) App { return RunHeat(hc) },
	}
	res, err := camp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatalf("campaign did not finish: %+v", res)
	}
	if res.Failures == 0 {
		t.Fatal("fragile system produced no failures")
	}
	// Energy accounting spans all runs.
	rep := res.Energy(PaperPower())
	if rep.TotalJoules <= 0 {
		t.Fatalf("energy = %+v", rep)
	}
}

func TestTraceRecordsOperations(t *testing.T) {
	tr := NewTrace(0)
	sched, _ := ParseSchedule("1@5")
	sim, err := New(Config{Ranks: 2, Failures: sched, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(func(e *Env) {
		defer e.Finalize()
		w := e.World()
		w.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 0:
			if err := w.SendN(1, 7, 64); err != nil {
				t.Errorf("send: %v", err)
			}
			if _, err := w.Recv(1, 0); err == nil {
				t.Error("recv from failing rank should error")
			}
		case 1:
			e.Elapse(10 * Second) // fails here
		}
	}); err != nil {
		t.Fatal(err)
	}
	counts := make(map[trace.Kind]int)
	found := false
	for _, ev := range tr.Events() {
		counts[ev.Kind]++
		// The failed receive's completion carries the error detail.
		if ev.Kind == trace.KindComplete && strings.Contains(ev.Detail, "err=") {
			found = true
		}
	}
	if counts[trace.KindSend] == 0 || counts[trace.KindRecvPost] == 0 || counts[trace.KindComplete] == 0 {
		t.Fatalf("missing operation events: %v", counts)
	}
	if counts[trace.KindFailure] != 1 {
		t.Fatalf("failure events = %d, want 1 (%v)", counts[trace.KindFailure], counts)
	}
	if !found {
		t.Error("no completion recorded the detection error")
	}
	// CSV renders.
	var buf strings.Builder
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "send") {
		t.Error("CSV missing events")
	}
}

// TestGoldenDeterminism anchors the simulator's exact behaviour: a fixed
// workload must produce these exact virtual times on every platform and
// in every future revision that claims model compatibility. If a model
// change intentionally shifts timing, update the constants and say so in
// the commit.
func TestGoldenDeterminism(t *testing.T) {
	hc, err := HeatWorkloadFor(27)
	if err != nil {
		t.Fatal(err)
	}
	hc.Iterations = 50
	hc.ExchangeInterval = 10
	hc.CheckpointInterval = 25
	sim, err := New(Config{Ranks: 27, CallOverhead: PaperCallOverhead})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(RunHeat(hc))
	if err != nil {
		t.Fatal(err)
	}
	var sum Time
	for _, c := range res.PerRank {
		sum += c
	}
	const (
		wantMax = Time(262918543504) // 262.919 s
		wantSum = Time(7097782828608)
	)
	if res.SimTime != wantMax || sum != wantSum {
		t.Fatalf("golden mismatch: max=%d sum=%d (want %d / %d)\n"+
			"a model change shifted simulated timing — verify it is intentional and update the golden values",
			res.SimTime, sum, wantMax, wantSum)
	}
}

func TestParallelWorkersMatchSequential(t *testing.T) {
	run := func(workers int) *Result {
		hc, _ := HeatWorkloadFor(27)
		hc.Iterations = 40
		hc.ExchangeInterval = 10
		hc.CheckpointInterval = 10
		sim, err := New(Config{Ranks: 27, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(RunHeat(hc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	par := run(4)
	for r := range seq.PerRank {
		if seq.PerRank[r] != par.PerRank[r] {
			t.Fatalf("rank %d: sequential %v != parallel %v", r, seq.PerRank[r], par.PerRank[r])
		}
	}
}
