package heat

import (
	"math"
	"testing"

	"xsim/internal/checkpoint"
	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// fastProc is a processor model that keeps modelled compute time small in
// tests (no 1000x slowdown).
var fastProc = procmodel.Model{ReferenceHz: 1.7e9, Slowdown: 1}

func testWorld(t *testing.T, n, workers int, store *fsmodel.Store, start vclock.Time, failures fault.Schedule) *mpi.World {
	t.Helper()
	return testWorldWith(t, n, workers, start, failures, mpi.WorldConfig{FSStore: store})
}

// testWorldWith builds an n-rank world on the test network and fastProc
// with the failures applied; cfg supplies the storage side.
func testWorldWith(t *testing.T, n, workers int, start vclock.Time, failures fault.Schedule, cfg mpi.WorldConfig) *mpi.World {
	t.Helper()
	eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond, StartClock: start})
	if err != nil {
		t.Fatal(err)
	}
	link := netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond}
	cfg.Net = &netmodel.Model{Topo: topology.NewFullyConnected(n), System: link, OnNode: link, EagerThreshold: 256 * 1024}
	cfg.Proc = fastProc
	w, err := mpi.NewWorld(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Apply(eng, failures); err != nil {
		t.Fatal(err)
	}
	return w
}

// smallReal returns a tiny real-compute workload: 8³ grid on 8 ranks.
func smallReal(n int) Config {
	return Config{
		NX: 8, NY: 8, NZ: 8,
		PX: 2, PY: 2, PZ: 2,
		Iterations:         20,
		ExchangeInterval:   1,
		CheckpointInterval: 10,
		RealCompute:        true,
		PointCost:          1000, // ≈300 µs of modelled compute per iteration
	}
}

func TestValidate(t *testing.T) {
	cfg := PaperWorkload()
	if err := cfg.Validate(32768); err != nil {
		t.Errorf("paper workload invalid: %v", err)
	}
	if err := cfg.Validate(8); err == nil {
		t.Error("wrong world size should fail")
	}
	bad := cfg
	bad.NX = 100 // not divisible by 32
	if err := bad.Validate(32768); err == nil {
		t.Error("non-divisible grid should fail")
	}
	bad = cfg
	bad.Iterations = 0
	if err := bad.Validate(32768); err == nil {
		t.Error("zero iterations should fail")
	}
	bad = cfg
	bad.CheckpointInterval = 0
	if err := bad.Validate(32768); err == nil {
		t.Error("zero checkpoint interval should fail")
	}
}

func TestPaperWorkloadGeometry(t *testing.T) {
	cfg := PaperWorkload()
	nx, ny, nz := cfg.Local()
	if nx != 16 || ny != 16 || nz != 16 {
		t.Fatalf("local cube = %dx%dx%d, want 16³", nx, ny, nz)
	}
	if cfg.PointsPerRank() != 4096 {
		t.Fatalf("points per rank = %d", cfg.PointsPerRank())
	}
	// Calibration: one modelled iteration on the paper's processor model
	// should take about 5.25 s, so 1,000 iterations land near the
	// paper's 5,248 s baseline.
	perIter := procmodel.Paper().ComputeTime(float64(cfg.PointsPerRank()) * cfg.PointCost)
	if perIter < vclock.FromSeconds(5.0) || perIter > vclock.FromSeconds(5.5) {
		t.Fatalf("per-iteration compute = %v, want ≈5.25 s", perIter)
	}
}

func TestRealComputeConservation(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	heats := make([]float64, n)
	cfg.OnFinal = func(rank int, h float64) { heats[rank] = h }
	w := testWorld(t, n, 1, store, 0, nil)
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d", res.Completed, n)
	}
	var total float64
	for _, h := range heats {
		total += h
	}
	// Initial: one 1000-unit hot spot per rank; the periodic stencil with
	// per-iteration halo exchange conserves total heat.
	want := float64(n * 1000)
	if math.Abs(total-want) > 1e-6*want {
		t.Fatalf("total heat = %v, want %v", total, want)
	}
	// Heat must have spread off the hot spots: no rank keeps all 1000.
	for r, h := range heats {
		if math.Abs(h-1000) < 1 {
			t.Errorf("rank %d kept all its heat (%v): stencil or halo broken", r, h)
		}
	}
}

func TestCheckpointFilesWritten(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	w := testWorld(t, n, 1, store, 0, nil)
	if _, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) }); err != nil {
		t.Fatal(err)
	}
	// 20 iterations with interval 10: checkpoints at 10 and 20; the set
	// at 10 was deleted after the one at 20 was written.
	iters := store.Iterations("heat")
	if len(iters) != 1 || iters[0] != 20 {
		t.Fatalf("surviving checkpoint sets = %v, want [20]", iters)
	}
	if !checkpoint.SetComplete(store, "heat", 20, n, 1) {
		t.Fatal("final checkpoint set incomplete")
	}
}

func TestFailureAbortsAndRestartResumes(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.Iterations = 40
	cfg.CheckpointInterval = 10
	tr := NewTracker(n)
	cfg.Tracker = tr

	// First run: rank 3 fails mid-computation; everyone aborts.
	w := testWorld(t, n, 1, store, 0, fault.Schedule{{Rank: 3, At: vclock.Time(vclock.Millisecond)}})
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d (%+v)", res.Failed, res)
	}
	if res.Aborted != n-1 {
		t.Fatalf("aborted = %d, want %d", res.Aborted, n-1)
	}

	// Between runs: the cleanup script removes incomplete sets, and the
	// exit time is persisted for continuous virtual timing.
	checkpoint.CleanIncompleteSets(store, "heat", n)
	if err := checkpoint.SaveExitTime(store, res.MaxClock); err != nil {
		t.Fatal(err)
	}

	// Second run: restart from the persisted exit time; no failure.
	start, ok := checkpoint.LoadExitTime(store)
	if !ok {
		t.Fatal("exit time missing")
	}
	tr2 := NewTracker(n)
	cfg.Tracker = tr2
	w2 := testWorld(t, n, 1, store, start, nil)
	res2, err := w2.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != n {
		t.Fatalf("restart completed = %d (%+v)", res2.Completed, res2)
	}
	// Virtual time is continuous: the restarted run begins at the abort
	// time of the first.
	if res2.MinClock < start {
		t.Fatalf("restart clock %v precedes exit time %v", res2.MinClock, start)
	}
	// Ranks resumed from a checkpoint if the first run got that far;
	// either way they finished all iterations.
	for r := 0; r < n; r++ {
		if tr2.PhaseOf(r) != PhaseDone || tr2.IterOf(r) != cfg.Iterations {
			t.Errorf("rank %d: phase %v iter %d", r, tr2.PhaseOf(r), tr2.IterOf(r))
		}
	}
}

func TestRestartLoadsCheckpointData(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.Iterations = 30
	cfg.CheckpointInterval = 10

	// Fail late (≈iteration 24 of 30, one iteration ≈ 38 µs) so at least
	// one checkpoint set (iteration 10 or 20) completes before the abort.
	w := testWorld(t, n, 1, store, 0, fault.Schedule{{Rank: 0, At: vclock.Time(900 * vclock.Microsecond)}})
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Skipf("failure did not activate before completion (clocks too fast): %+v", res)
	}
	checkpoint.CleanIncompleteSets(store, "heat", n)
	sets := store.Iterations("heat")
	if len(sets) == 0 {
		t.Skip("no surviving checkpoint set; failure struck too early for this test")
	}

	tr := NewTracker(n)
	cfg.Tracker = tr
	heats := make([]float64, n)
	cfg.OnFinal = func(rank int, h float64) { heats[rank] = h }
	w2 := testWorld(t, n, 1, store, res.MaxClock, nil)
	if _, err := w2.Run(func(e *mpi.Env) { Run(e, &cfg) }); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < n; r++ {
		if tr.StartIterOf(r) != sets[len(sets)-1] {
			t.Errorf("rank %d restarted from %d, want %d", r, tr.StartIterOf(r), sets[len(sets)-1])
		}
	}
	// Conservation still holds across checkpoint/restore.
	var total float64
	for _, h := range heats {
		total += h
	}
	want := float64(n * 1000)
	if math.Abs(total-want) > 1e-6*want {
		t.Fatalf("total heat after restart = %v, want %v", total, want)
	}
}

func TestIncrementalCheckpointChain(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.RealCompute = false
	cfg.Iterations = 60
	cfg.CheckpointInterval = 10
	cfg.CheckpointPayload = 1000
	cfg.DeltaFraction = 0.25
	w := testWorld(t, n, 1, store, 0, nil)
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d", res.Completed)
	}
	// fullEvery defaults to 4: full at 10, deltas at 20/30/40, full at 50
	// (superseding the whole 10–40 chain), delta at 60. Only the live
	// chain survives.
	iters := store.Iterations("heat")
	if len(iters) != 2 || iters[0] != 50 || iters[1] != 60 {
		t.Fatalf("surviving sets = %v, want [50 60]", iters)
	}
	for r := 0; r < n; r++ {
		chain := checkpoint.Chain(store, "heat", r, 60)
		if len(chain) != 2 || chain[0] != 50 || chain[1] != 60 {
			t.Fatalf("rank %d chain = %v, want [50 60]", r, chain)
		}
	}
	if !checkpoint.SetComplete(store, "heat", 60, n, 1) {
		t.Fatal("final delta set incomplete")
	}

	// FullEvery 1 degenerates to all-full checkpointing: each write
	// supersedes the last, so only the final set survives.
	store2 := fsmodel.NewStore()
	cfg.FullEvery = 1
	w2 := testWorld(t, n, 1, store2, 0, nil)
	if _, err := w2.Run(func(e *mpi.Env) { Run(e, &cfg) }); err != nil {
		t.Fatal(err)
	}
	iters = store2.Iterations("heat")
	if len(iters) != 1 || iters[0] != 60 {
		t.Fatalf("FullEvery=1 surviving sets = %v, want [60]", iters)
	}
}

func TestIncrementalRestartResumesFromChain(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.RealCompute = false
	cfg.Iterations = 60
	cfg.CheckpointInterval = 10
	cfg.CheckpointPayload = 1000
	cfg.DeltaFraction = 0.25

	// Fail rank 2 mid-run, after at least one checkpoint lands.
	// One modelled iteration ≈ 40 µs: 1 ms lands near iteration 25, after
	// the sets at 10 and 20 completed.
	w := testWorld(t, n, 1, store, 0, fault.Schedule{{Rank: 2, At: vclock.Time(vclock.Millisecond)}})
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Skipf("failure did not activate before completion: %+v", res)
	}
	checkpoint.CleanIncompleteSets(store, "heat", n)
	sets := store.Iterations("heat")
	if len(sets) == 0 {
		t.Skip("no surviving checkpoint set; failure struck too early")
	}

	tr := NewTracker(n)
	cfg.Tracker = tr
	w2 := testWorld(t, n, 1, store, res.MaxClock, nil)
	res2, err := w2.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res2.Completed != n {
		t.Fatalf("restart completed = %d", res2.Completed)
	}
	// Every rank resumed from the newest surviving set, restoring through
	// its delta chain, then re-ran to completion; the run's final chain
	// (superseding whatever it restarted from) must be intact.
	latest := sets[len(sets)-1]
	for r := 0; r < n; r++ {
		if tr.StartIterOf(r) != latest {
			t.Errorf("rank %d restarted from %d, want %d", r, tr.StartIterOf(r), latest)
		}
		if chain := checkpoint.Chain(store, "heat", r, cfg.Iterations); chain == nil {
			t.Errorf("rank %d: broken chain at final iteration %d", r, cfg.Iterations)
		}
	}
}

func TestModeledModeMatchesGeometry(t *testing.T) {
	const n = 8
	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.RealCompute = false
	tr := NewTracker(n)
	cfg.Tracker = tr
	w := testWorld(t, n, 1, store, 0, nil)
	res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d", res.Completed)
	}
	for r := 0; r < n; r++ {
		if tr.CheckpointsOf(r) != 2 {
			t.Errorf("rank %d wrote %d checkpoints, want 2", r, tr.CheckpointsOf(r))
		}
	}
	// Synthetic checkpoints validate like real ones.
	if !checkpoint.SetComplete(store, "heat", 20, n, 1) {
		t.Fatal("synthetic final set incomplete")
	}
}

func TestModeledAndRealSameVirtualTime(t *testing.T) {
	const n = 8
	run := func(real bool) []vclock.Time {
		store := fsmodel.NewStore()
		cfg := smallReal(n)
		cfg.RealCompute = real
		w := testWorld(t, n, 1, store, 0, nil)
		res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalClocks
	}
	realClocks := run(true)
	modelClocks := run(false)
	for r := range realClocks {
		// Same message sizes, same compute model, same checkpoint sizes:
		// virtual time should agree to within the checkpoint-payload
		// encoding differences (none here: same sizes).
		if realClocks[r] != modelClocks[r] {
			t.Fatalf("rank %d: real %v != modelled %v", r, realClocks[r], modelClocks[r])
		}
	}
}

func TestParallelEngineSameResult(t *testing.T) {
	const n = 8
	run := func(workers int) []vclock.Time {
		store := fsmodel.NewStore()
		cfg := smallReal(n)
		w := testWorld(t, n, workers, store, 0, nil)
		res, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalClocks
	}
	seq := run(1)
	par := run(4)
	for r := range seq {
		if seq[r] != par[r] {
			t.Fatalf("rank %d: seq %v != par %v", r, seq[r], par[r])
		}
	}
}

func TestPhaseString(t *testing.T) {
	for p, want := range map[Phase]string{
		PhaseInit:       "init",
		PhaseCompute:    "compute",
		PhaseHalo:       "halo-exchange",
		PhaseCheckpoint: "checkpoint",
		PhaseBarrier:    "barrier",
		PhaseDelete:     "delete-old-checkpoint",
		PhaseDone:       "done",
		Phase(42):       "Phase(42)",
	} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int32(p), got, want)
		}
	}
}

func TestTrackerPhaseCounts(t *testing.T) {
	tr := NewTracker(4)
	tr.setPhase(0, PhaseCompute)
	tr.setPhase(1, PhaseCompute)
	tr.setPhase(2, PhaseBarrier)
	counts := tr.PhaseCounts()
	if counts[PhaseCompute] != 2 || counts[PhaseBarrier] != 1 || counts[PhaseInit] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPackUnpackFaces(t *testing.T) {
	cfg := Config{NX: 4, NY: 6, NZ: 8, PX: 1, PY: 1, PZ: 1, Iterations: 1,
		ExchangeInterval: 1, CheckpointInterval: 1, RealCompute: true}
	s := newState(&cfg, 0)
	// Fill the interior with position-coded values.
	for k := 1; k <= s.nz; k++ {
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				s.cur[s.idx(i, j, k)] = float64(i*100 + j*10 + k)
			}
		}
	}
	// The message unpacked for direction d was packed by the neighbour
	// with the opposite direction (its face that faces us). With a
	// single periodic rank the neighbour is this rank itself.
	opp := func(d direction) direction {
		for _, o := range directions {
			if o.tag == oppositeTag(d.tag) {
				return o
			}
		}
		t.Fatalf("no opposite for %+v", d)
		return d
	}
	for _, d := range directions {
		buf := s.packFace(opp(d))
		if len(buf) != s.faceSize(d) {
			t.Fatalf("face %+v: %d bytes, want %d", d, len(buf), s.faceSize(d))
		}
		s.unpackFace(d, buf)
	}
	// Spot-check wrap-around: the -x ghost plane holds the x=nx face
	// (periodic), the +y ghost plane holds the y=1 face.
	if got, want := s.cur[s.idx(0, 2, 3)], s.cur[s.idx(s.nx, 2, 3)]; got != want {
		t.Errorf("x ghost = %v, want %v", got, want)
	}
	if got, want := s.cur[s.idx(2, s.ny+1, 3)], s.cur[s.idx(2, 1, 3)]; got != want {
		t.Errorf("y ghost = %v, want %v", got, want)
	}
}

func TestEncodeRestoreRoundTrip(t *testing.T) {
	cfg := Config{NX: 4, NY: 4, NZ: 4, PX: 1, PY: 1, PZ: 1, Iterations: 1,
		ExchangeInterval: 1, CheckpointInterval: 1, RealCompute: true}
	s := newState(&cfg, 0)
	for i := range s.cur {
		s.cur[i] = float64(i) * 1.5
	}
	want := s.TotalHeat()
	buf := s.encode()
	if len(buf) != 64+8*cfg.PointsPerRank() {
		t.Fatalf("encoded %d bytes", len(buf))
	}
	s2 := newState(&cfg, 0)
	s2.restore(buf)
	if got := s2.TotalHeat(); got != want {
		t.Fatalf("restored heat %v, want %v", got, want)
	}
}

func TestNeighborPeriodic(t *testing.T) {
	cfg := Config{NX: 8, NY: 8, NZ: 8, PX: 2, PY: 2, PZ: 2, Iterations: 1,
		ExchangeInterval: 1, CheckpointInterval: 1}
	s := newState(&cfg, 0) // coords (0,0,0)
	if got := s.neighbor(1, 0, 0); got != 1 {
		t.Errorf("+x neighbour = %d, want 1", got)
	}
	if got := s.neighbor(-1, 0, 0); got != 1 {
		t.Errorf("-x neighbour (wrap) = %d, want 1", got)
	}
	if got := s.neighbor(0, 1, 0); got != 2 {
		t.Errorf("+y neighbour = %d, want 2", got)
	}
	if got := s.neighbor(0, 0, -1); got != 4 {
		t.Errorf("-z neighbour (wrap) = %d, want 4", got)
	}
}

// TestRestartSkipsMisnamedCheckpoint: a checkpoint set whose files hold an
// older iteration's bytes is not a restart point. Every rank finds
// iteration 20's state under iteration 40's name, rejects it, and resumes
// from 20 — in both execution modes, with modelled and with real compute.
func TestRestartSkipsMisnamedCheckpoint(t *testing.T) {
	const n = 8
	for _, real := range []bool{false, true} {
		for _, prog := range []bool{false, true} {
			cfg := smallReal(n)
			if !real {
				cfg.RealCompute = false
				cfg.CheckpointPayload = 1000
			}
			run := func(store *fsmodel.Store, cfg Config) {
				t.Helper()
				w := testWorld(t, n, 1, store, 0, nil)
				var res *core.Result
				var err error
				if prog {
					res, err = w.RunProgs(NewProg(cfg))
				} else {
					res, err = w.Run(func(e *mpi.Env) { Run(e, &cfg) })
				}
				if err != nil || res.Completed != n {
					t.Fatalf("real=%v prog=%v: %v, %+v", real, prog, err, res)
				}
			}
			store := fsmodel.NewStore()
			run(store, cfg) // 20 iterations: sets 10 and 20
			for r := 0; r < n; r++ {
				data, _, ok := store.Open(fsmodel.Key{Set: "heat", Iteration: 20, Rank: r})
				if !ok {
					t.Fatalf("rank %d has no checkpoint of iteration 20", r)
				}
				w := store.Create(checkpoint.FileName("heat", 40, r))
				if _, err := w.Write(data); err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			cfg.Iterations = 40
			tr := NewTracker(n)
			cfg.Tracker = tr
			run(store, cfg)
			for r := 0; r < n; r++ {
				if got := tr.StartIterOf(r); got != 20 {
					t.Errorf("real=%v prog=%v: rank %d restarted from %d, want 20", real, prog, r, got)
				}
			}
		}
	}
}
