package heat

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"xsim/internal/checkpoint"
	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// injectionGoldenPath holds one line per injection case, recorded at the
// last commit in which a modelled compute phase advanced the clock one
// iteration at a time. A change that is meant to alter simulated behaviour
// replaces it with the text the failing test prints.
const injectionGoldenPath = "testdata/compute_injection.golden"

// injectionConfig is the golden's workload: modelled compute on 8 ranks,
// four compute phases of ten iterations, a checkpoint after every second.
func injectionConfig() Config {
	cfg := smallReal(8)
	cfg.RealCompute = false
	cfg.Iterations = 40
	cfg.ExchangeInterval = 10
	cfg.CheckpointInterval = 20
	return cfg
}

// injectionWorld is testWorld with a file system that charges for metadata
// and bandwidth, so checkpoint writes and restart probes show in the clocks.
func injectionWorld(t *testing.T, workers int, store *fsmodel.Store, start vclock.Time, failures fault.Schedule) *mpi.World {
	t.Helper()
	return testWorldWith(t, 8, workers, start, failures, mpi.WorldConfig{
		FSStore: store,
		FSHierarchy: fsmodel.Hierarchy{{
			Model: fsmodel.Model{MetadataLatency: 3 * vclock.Microsecond, WriteBandwidth: 1e9, ReadBandwidth: 2e9},
		}},
	})
}

// abortOnRank3 makes rank 3 call MPI_Abort after `after` of computation
// (nothing when after is zero); it runs before the application starts.
func abortOnRank3(env *mpi.Env, after vclock.Duration) {
	if after > 0 && env.Rank() == 3 {
		env.Elapse(after)
		env.Abort(1)
	}
}

// abortFirst is abortOnRank3 ahead of a program-mode application.
type abortFirst struct {
	inner mpi.Prog
	after vclock.Duration
	begun bool
}

func (a *abortFirst) Step(env *mpi.Env, wake any) (any, bool) {
	if !a.begun {
		a.begun = true
		abortOnRank3(env, a.after)
	}
	return a.inner.Step(env, wake)
}

// injectionDriver runs one heat world to completion, in closure or program
// mode at a worker count.
type injectionDriver struct {
	name    string
	workers int
	prog    bool
}

func (d injectionDriver) run(t *testing.T, cfg Config, store *fsmodel.Store, start vclock.Time, failures fault.Schedule, abortAfter vclock.Duration) *core.Result {
	t.Helper()
	w := injectionWorld(t, d.workers, store, start, failures)
	var res *core.Result
	var err error
	if d.prog {
		inner := NewProg(cfg)
		res, err = w.RunProgs(func(rank int) mpi.Prog { return &abortFirst{inner: inner(rank), after: abortAfter} })
	} else {
		res, err = w.Run(func(e *mpi.Env) {
			abortOnRank3(e, abortAfter)
			Run(e, &cfg)
		})
	}
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return res
}

// injectionLine renders everything the golden pins about one run: the
// simulated exit time, the termination counts and, per rank, the death
// clock and reason, the tracker's iteration, phase, checkpoint count and
// restart iteration, and the busy time; last, the iterations that left
// checkpoint files behind.
func injectionLine(name string, res *core.Result, tr *Tracker, store *fsmodel.Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s sim=%d done=%d/%d/%d files=%v", name, res.MaxClock, res.Completed, res.Failed, res.Aborted,
		store.Iterations("heat"))
	for r := range res.FinalClocks {
		fmt.Fprintf(&b, " | %d %d it=%d ph=%d ck=%d st=%d busy=%d", res.FinalClocks[r], res.Deaths[r],
			tr.IterOf(r), tr.PhaseOf(r), tr.CheckpointsOf(r), tr.StartIterOf(r), res.Busy[r])
	}
	return b.String()
}

// injectionCases runs every case of the golden through one driver and
// returns its lines.
func injectionCases(t *testing.T, d injectionDriver) []string {
	const n = 8
	base := injectionConfig()
	iter := fastProc.ComputeTime(float64(base.PointsPerRank()) * base.PointCost)
	var lines []string
	// one runs a fresh world and records its line.
	one := func(name string, cfg Config, store *fsmodel.Store, start vclock.Time, failures fault.Schedule, abortAfter vclock.Duration) (*core.Result, *Tracker) {
		cfg.Tracker = NewTracker(n)
		res := d.run(t, cfg, store, start, failures, abortAfter)
		lines = append(lines, injectionLine(name, res, cfg.Tracker, store))
		return res, cfg.Tracker
	}
	failAt := func(rank int, at vclock.Time) fault.Schedule { return fault.Schedule{{Rank: rank, At: at}} }

	one("clean", base, fsmodel.NewStore(), 0, nil, 0)

	// One failure at half-iteration pitch over the whole run (the clean run
	// ends a little past 40 iterations), then exactly on, and one tick past,
	// iteration boundaries: the death clock of a rank that failed while
	// computing is the end clock of the iteration it died in.
	for _, rank := range []int{2, 5} {
		var boundaries []vclock.Time
		for j := 0; j < 90; j++ {
			at := vclock.Time(j) * vclock.Time(iter/2)
			res, tr := one(fmt.Sprintf("fail/r%d@%d", rank, at), base, fsmodel.NewStore(), 0, failAt(rank, at), 0)
			if c := res.FinalClocks[rank]; tr.PhaseOf(rank) == PhaseCompute &&
				(len(boundaries) == 0 || boundaries[len(boundaries)-1] != c) {
				boundaries = append(boundaries, c)
			}
		}
		for k := 0; k < len(boundaries); k += 3 {
			for _, at := range []vclock.Time{boundaries[k], boundaries[k] + 1} {
				one(fmt.Sprintf("boundary/r%d@%d", rank, at), base, fsmodel.NewStore(), 0, failAt(rank, at), 0)
			}
		}
	}

	// MPI_Abort from rank 3 in the middle of the others' second phase.
	one("abort/r3", base, fsmodel.NewStore(), 0, nil, 15*iter+iter/2)

	// The proactive checkpoint lands on the first iteration whose end clock
	// reaches the trigger; a failure two and a half iterations later leaves
	// its files in the store to show which iteration that was.
	for k := 0; k < 12; k++ {
		cfg := base
		cfg.ProactiveTrigger = vclock.Time(k)*vclock.Time(3*iter+iter/3) + vclock.Time(iter/2)
		one(fmt.Sprintf("proactive@%d", cfg.ProactiveTrigger), cfg, fsmodel.NewStore(), 0,
			failAt(2, cfg.ProactiveTrigger+vclock.Time(2*iter+iter/2)), 0)
	}
	never := base
	never.ProactiveTrigger = vclock.Never
	one("proactive@never", never, fsmodel.NewStore(), 0, nil, 0)

	// Failure, cleanup, restart: on the checkpoint cadence, and in proactive
	// mode where an off-cadence checkpoint is the newest complete set.
	for _, at := range []vclock.Time{vclock.Time(12*iter + iter/2), vclock.Time(25*iter + iter/2), vclock.Time(38*iter + iter/2)} {
		for _, proactive := range []bool{false, true} {
			name, cfg, again := fmt.Sprintf("cadence@%d", at), base, base
			if proactive {
				name = fmt.Sprintf("proactive-restart@%d", at)
				cfg.ProactiveTrigger = vclock.Time(7*iter + iter/2)
				again.ProactiveTrigger = vclock.Never
			}
			store := fsmodel.NewStore()
			crashed, _ := one(name+"/crash", cfg, store, 0, failAt(2, at), 0)
			checkpoint.CleanIncompleteSets(store, "heat", n)
			one(name+"/restart", again, store, crashed.MaxClock, nil, 0)
		}
	}

	// Zero-cost compute: every iteration of a phase ends on the same clock.
	free := base
	free.PointCost = 0
	one("free/clean", free, fsmodel.NewStore(), 0, nil, 0)
	for _, at := range []vclock.Time{0, 1, vclock.Time(5 * vclock.Microsecond), vclock.Time(vclock.Millisecond)} {
		one(fmt.Sprintf("free/r2@%d", at), free, fsmodel.NewStore(), 0, failAt(2, at), 0)
	}
	return lines
}

// TestComputeInjectionMatchesGolden pins where a failure lands relative to
// the compute phases: the paper's activation rule is that a rank dies at
// its first clock update at or past its time of failure, so the death
// clock, the iteration and phase it is attributed to, the busy time and
// everything downstream (detection, abort, restart point) depend on each
// iteration's clock update happening where it always did. Closure and
// program mode at one and two workers must all reproduce the recorded
// lines.
func TestComputeInjectionMatchesGolden(t *testing.T) {
	var ref []string
	for _, d := range []injectionDriver{
		{name: "closure/w1", workers: 1},
		{name: "closure/w2", workers: 2},
		{name: "prog/w1", workers: 1, prog: true},
		{name: "prog/w2", workers: 2, prog: true},
	} {
		got := injectionCases(t, d)
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s ran %d cases, closure/w1 %d", d.name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("%s diverges from closure/w1:\n got: %s\nwant: %s", d.name, got[i], ref[i])
			}
		}
	}
	text := strings.Join(ref, "\n") + "\n"
	want, err := os.ReadFile(injectionGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != text {
		t.Errorf("compute-phase injection outcomes diverge from %s; got:\n%s", injectionGoldenPath, text)
	}
}
