package heat

import (
	"math"
	"testing"
	"unsafe"

	"xsim/internal/checkpoint"
	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// testWorldH is testWorld with the given storage hierarchy.
func testWorldH(t *testing.T, n, workers int, store *fsmodel.Store, h fsmodel.Hierarchy, start vclock.Time, failures fault.Schedule) *mpi.World {
	t.Helper()
	return testWorldWith(t, n, workers, start, failures, mpi.WorldConfig{FSStore: store, FSHierarchy: h})
}

// compareRuns fails the test when two runs are observationally different.
func compareRuns(t *testing.T, label string, ref, got *core.Result) {
	t.Helper()
	if ref.Completed != got.Completed || ref.Failed != got.Failed || ref.Aborted != got.Aborted {
		t.Fatalf("%s: closure %d/%d/%d vs prog %d/%d/%d (completed/failed/aborted)",
			label, ref.Completed, ref.Failed, ref.Aborted, got.Completed, got.Failed, got.Aborted)
	}
	for r := range ref.FinalClocks {
		if ref.FinalClocks[r] != got.FinalClocks[r] || ref.Deaths[r] != got.Deaths[r] {
			t.Fatalf("%s rank %d: closure (%v, %v) vs prog (%v, %v)",
				label, r, ref.FinalClocks[r], ref.Deaths[r], got.FinalClocks[r], got.Deaths[r])
		}
	}
}

// TestHeatProgMatchesClosure checks the program-mode heat application is
// observationally identical to the closure one across the fidelity modes:
// modelled, real compute (with conservation), incremental checkpointing,
// and a tiered store.
func TestHeatProgMatchesClosure(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		hier fsmodel.Hierarchy
	}{
		{name: "modelled", mut: func(c *Config) { c.RealCompute = false }},
		{name: "real", mut: func(c *Config) {}},
		{name: "incremental", mut: func(c *Config) {
			c.RealCompute = false
			c.CheckpointPayload = 1000
			c.DeltaFraction = 0.25
		}},
		{name: "tiered", mut: func(c *Config) { c.RealCompute = false }, hier: fsmodel.PaperTieredFS()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallReal(n)
			cfg.Iterations = 40
			cfg.CheckpointInterval = 10
			tc.mut(&cfg)

			newWorld := func(workers int, store *fsmodel.Store) *mpi.World {
				if tc.hier != nil {
					return testWorldH(t, n, workers, store, tc.hier, 0, nil)
				}
				return testWorld(t, n, workers, store, 0, nil)
			}

			var refHeat, progHeat float64
			if cfg.RealCompute {
				cfg.OnFinal = func(rank int, h float64) { refHeat += h }
			}
			ref, err := newWorld(1, fsmodel.NewStore()).Run(func(e *mpi.Env) { Run(e, cfg) })
			if err != nil {
				t.Fatal(err)
			}
			if ref.Completed != n {
				t.Fatalf("closure completed = %d", ref.Completed)
			}
			for _, workers := range []int{1, 2} {
				pcfg := cfg
				if cfg.RealCompute {
					progHeat = 0
					pcfg.OnFinal = func(rank int, h float64) { progHeat += h }
				}
				got, err := newWorld(workers, fsmodel.NewStore()).RunProgs(NewProg(pcfg))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				compareRuns(t, tc.name, ref, got)
				if cfg.RealCompute && math.Abs(progHeat-refHeat) > 1e-9*math.Abs(refHeat) {
					t.Fatalf("workers=%d: prog total heat %v, closure %v", workers, progHeat, refHeat)
				}
			}
		})
	}
}

// TestHeatProgRestartMatchesClosure injects a failure (closure mode, which
// is deterministic at one worker), persists the surviving checkpoints, and
// checks closure and program restarts from identical stores agree —
// including the incremental-chain restore path.
func TestHeatProgRestartMatchesClosure(t *testing.T) {
	const n = 8
	cfg := smallReal(n)
	cfg.RealCompute = false
	cfg.Iterations = 60
	cfg.CheckpointInterval = 10
	cfg.CheckpointPayload = 1000
	cfg.DeltaFraction = 0.25

	// Two identical failure runs produce two identical stores, so the
	// restart comparison cannot cross-contaminate.
	crash := func() (*fsmodel.Store, vclock.Time) {
		store := fsmodel.NewStore()
		w := testWorld(t, n, 1, store, 0, fault.Schedule{{Rank: 2, At: vclock.Time(vclock.Millisecond)}})
		res, err := w.Run(func(e *mpi.Env) { Run(e, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 1 {
			t.Skipf("failure did not activate before completion: %+v", res)
		}
		checkpoint.CleanIncompleteSets(store, "heat", n)
		if len(store.Iterations("heat")) == 0 {
			t.Skip("no surviving checkpoint set; failure struck too early")
		}
		return store, res.MaxClock
	}

	store1, start1 := crash()
	store2, start2 := crash()
	if start1 != start2 {
		t.Fatalf("crash runs diverged: %v vs %v", start1, start2)
	}

	tr1 := NewTracker(n)
	ccfg := cfg
	ccfg.Tracker = tr1
	ref, err := testWorld(t, n, 1, store1, start1, nil).Run(func(e *mpi.Env) { Run(e, ccfg) })
	if err != nil {
		t.Fatal(err)
	}
	tr2 := NewTracker(n)
	pcfg := cfg
	pcfg.Tracker = tr2
	got, err := testWorld(t, n, 1, store2, start2, nil).RunProgs(NewProg(pcfg))
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, "restart", ref, got)
	for r := 0; r < n; r++ {
		if tr1.StartIterOf(r) != tr2.StartIterOf(r) {
			t.Errorf("rank %d: closure restarted from %d, prog from %d", r, tr1.StartIterOf(r), tr2.StartIterOf(r))
		}
		if tr2.PhaseOf(r) != PhaseDone {
			t.Errorf("rank %d: prog phase %v, want done", r, tr2.PhaseOf(r))
		}
	}
}

// TestModelledRestartReadChargesOnePayloadRead pins a known undercharge
// (ROADMAP 1b): a modelled restart from a one-tier store charges its read
// as the tier's ReadCost(payload) — one client's bandwidth, no header, no
// metadata operation — where the write it restores charged the contended
// cost of header and payload. Restarts from a PaperPFSShared store and
// from the same store with free reads differ by exactly that charge.
func TestModelledRestartReadChargesOnePayloadRead(t *testing.T) {
	const n = 8
	cfg := smallReal(n)
	cfg.RealCompute = false
	cfg.Iterations = 20
	cfg.CheckpointInterval = 10
	cfg.CheckpointPayload = 64 << 20
	pfs := fsmodel.PaperPFSShared()
	freeReads := fsmodel.PaperPFSShared()
	freeReads[0].ReadBandwidth, freeReads[0].AggregateReadBandwidth = 0, 0

	// restart completes a run, then reruns it on the same store: every
	// rank restores the final checkpoint. It returns each rank's clock
	// advance in the rerun.
	restart := func(h fsmodel.Hierarchy) []vclock.Duration {
		store := fsmodel.NewStore()
		first, err := testWorldH(t, n, 1, store, h, 0, nil).RunProgs(NewProg(cfg))
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTracker(n)
		rcfg := cfg
		rcfg.Tracker = tr
		res, err := testWorldH(t, n, 1, store, h, first.MaxClock, nil).RunProgs(NewProg(rcfg))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]vclock.Duration, n)
		for r := range out {
			if tr.StartIterOf(r) != cfg.Iterations {
				t.Fatalf("rank %d restarted from %d, want %d", r, tr.StartIterOf(r), cfg.Iterations)
			}
			out[r] = res.FinalClocks[r].Sub(first.MaxClock)
		}
		return out
	}
	charged, free := restart(pfs), restart(freeReads)
	want := pfs[0].ReadCost(cfg.payloadBytes())
	for r := range charged {
		if got := charged[r] - free[r]; got != want {
			t.Errorf("rank %d: restart read charged %d ns, want ReadCost(payload) = %d ns", r, got, want)
		}
	}
}

// TestHeatRunnerLayout pins the heat side of a parked rank: one object of
// at most 320 bytes, allocated by NewProg's factory, that holds the rank's
// geometry, its file-system handle and its one halo request list. At a
// million program VPs every byte of it is a megabyte, so the restore and
// barrier states (192 and 312 bytes) are held only while a restore or
// barrier runs, and only real compute holds a grid: a modelled rank at a
// compute phase holds none of them.
func TestHeatRunnerLayout(t *testing.T) {
	if got := unsafe.Sizeof(heatRunner{}); got > 320 {
		t.Errorf("unsafe.Sizeof(heatRunner{}) = %d, want <= 320: one per parked rank", got)
	}
	factory := NewProg(PaperWorkload())
	if got := testing.AllocsPerRun(100, func() { factory(7) }); got != 1 {
		t.Errorf("NewProg's factory allocates %v objects per rank, want 1", got)
	}
	const n = 8
	// run runs cfg on store in program mode and calls atPhase with each
	// rank's runner at every compute phase.
	run := func(cfg Config, store *fsmodel.Store, atPhase func(p *heatRunner, iter int)) *core.Result {
		t.Helper()
		runners := make([]*heatRunner, n)
		cfg.onPhase = func(rank, iter int) { atPhase(runners[rank], iter) }
		progs := NewProg(cfg)
		res, err := testWorld(t, n, 1, store, 0, nil).RunProgs(func(rank int) mpi.Prog {
			p := progs(rank)
			runners[rank] = p.(*heatRunner)
			return p
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	phases := 0
	holdsNone := func(p *heatRunner, iter int) {
		phases++
		if p.rs != nil || p.cs != nil {
			t.Errorf("rank %d at compute phase %d holds restore state %v, collective state %v; want neither",
				p.rank, iter, p.rs != nil, p.cs != nil)
		}
	}

	modelled := PaperWorkload()
	modelled.NX, modelled.NY, modelled.NZ, modelled.PX, modelled.PY, modelled.PZ = 8, 8, 8, 2, 2, 2
	modelled.Iterations, modelled.ExchangeInterval, modelled.CheckpointInterval = 4, 1, 2
	run(modelled, fsmodel.NewStore(), func(p *heatRunner, iter int) {
		holdsNone(p, iter)
		if p.grid != nil {
			t.Errorf("modelled rank %d holds a grid", p.rank)
		}
	})
	if phases != n*4 {
		t.Fatalf("modelled run: %d compute phases, want %d", phases, n*4)
	}

	store := fsmodel.NewStore()
	cfg := smallReal(n)
	cfg.Iterations = 20
	run(cfg, store, func(*heatRunner, int) {})
	// A second, longer run on the same store restarts from iteration 20
	// (a restore) and then checkpoints twice (two barriers).
	cfg.Iterations = 40
	phases = 0
	res := run(cfg, store, func(p *heatRunner, iter int) {
		if p.startIter != 20 {
			t.Fatalf("rank %d restarted from %d, want 20", p.rank, p.startIter)
		}
		holdsNone(p, iter)
	})
	if res.Completed != n || phases != n*20 {
		t.Fatalf("completed %d ranks and %d compute phases, want %d and %d", res.Completed, phases, n, n*20)
	}
}
