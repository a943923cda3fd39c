package heat

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"xsim/internal/checkpoint"
	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// goldenPath holds one "config/run digest" line per run, recorded at the
// last commit in which Run had a loop (and a halo exchange) of its own,
// separate from the program-mode runner. A change that is meant to alter
// simulated behaviour replaces it with the text the failing test prints.
const goldenPath = "testdata/closure_runs.golden"

// runDigest folds everything observable about one closure-mode heat run
// into a hash: per-rank clocks, terminations and busy/wait split, the MPI
// traffic counters, the tracker, each rank's final heat, and the
// checkpoint files left in the store.
func runDigest(res *core.Result, m mpi.MetricsSnapshot, tr *Tracker, heat []float64, store *fsmodel.Store) uint64 {
	h := fnv.New64a()
	u64 := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	u64(uint64(res.Completed), uint64(res.Failed), uint64(res.Aborted), uint64(res.MaxClock))
	for r := range res.FinalClocks {
		u64(uint64(res.FinalClocks[r]), uint64(res.Deaths[r]), uint64(res.Busy[r]), uint64(res.Waited[r]))
		u64(uint64(tr.PhaseOf(r)), uint64(tr.IterOf(r)), uint64(tr.CheckpointsOf(r)), uint64(tr.StartIterOf(r)))
		u64(math.Float64bits(heat[r]))
	}
	u64(m.EagerMsgs, m.EagerBytes, m.RendezvousMsgs, m.RendezvousBytes, m.CollectiveOps, uint64(m.UnexpectedMax))
	for _, f := range m.Failures {
		u64(uint64(f.Rank), uint64(f.FailedAt), uint64(f.NotifiedAt), uint64(f.LastDetectAt), uint64(f.Detections))
	}
	var names []string
	for _, k := range store.Keys() {
		names = append(names, k.String())
	}
	slices.Sort(names) // the digests were recorded in name order
	for _, name := range names {
		data, complete, _ := store.Open(fsmodel.Named(name))
		h.Write([]byte(name))
		u64(uint64(len(data)))
		if complete {
			u64(1)
		}
		h.Write(data)
	}
	return h.Sum64()
}

// TestClosureRunsMatchGolden pins closure-mode Run — a clean run, a run
// with an injected failure, and the restart from what it left behind, in
// real-compute, incremental and tiered configurations — to digests
// recorded before Run became a driver of the program-mode runner. Run's
// own loop was the reference TestHeatProgMatchesClosure compared against;
// this file took over that role.
func TestClosureRunsMatchGolden(t *testing.T) {
	const n = 8
	var got []string
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		hier fsmodel.Hierarchy
	}{
		{name: "real", mut: func(c *Config) {}},
		{name: "incremental", mut: func(c *Config) {
			c.RealCompute = false
			c.CheckpointPayload = 1000
			c.DeltaFraction = 0.25
		}},
		{name: "tiered", mut: func(c *Config) { c.RealCompute = false }, hier: fsmodel.PaperTieredFS()},
	} {
		cfg := smallReal(n)
		cfg.Iterations = 60
		cfg.CheckpointInterval = 10
		tc.mut(&cfg)
		run := func(kind string, store *fsmodel.Store, start vclock.Time, failures fault.Schedule) *core.Result {
			var w *mpi.World
			if tc.hier != nil {
				w = testWorldH(t, n, 1, store, tc.hier, start, failures)
			} else {
				w = testWorld(t, n, 1, store, start, failures)
			}
			rcfg := cfg
			rcfg.Tracker = NewTracker(n)
			heat := make([]float64, n)
			rcfg.OnFinal = func(rank int, h float64) { heat[rank] = h }
			res, err := w.Run(func(e *mpi.Env) { Run(e, &rcfg) })
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			got = append(got, fmt.Sprintf("%s/%s %016x", tc.name, kind, runDigest(res, w.Metrics(), rcfg.Tracker, heat, store)))
			return res
		}
		if res := run("clean", fsmodel.NewStore(), 0, nil); res.Completed != n {
			t.Fatalf("%s/clean: completed = %d", tc.name, res.Completed)
		}
		store := fsmodel.NewStore()
		crashed := run("failure", store, 0, fault.Schedule{{Rank: 2, At: vclock.Time(vclock.Millisecond)}})
		if crashed.Failed != 1 {
			t.Fatalf("%s/failure: the injected failure did not activate: %+v", tc.name, crashed)
		}
		checkpoint.CleanIncompleteSets(store, "heat", n)
		if len(store.Iterations("heat")) == 0 {
			t.Fatalf("%s/failure: no checkpoint set survived to restart from", tc.name)
		}
		if res := run("restart", store, crashed.MaxClock, nil); res.Completed != n {
			t.Fatalf("%s/restart: completed = %d", tc.name, res.Completed)
		}
	}
	text := strings.Join(got, "\n") + "\n"
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != text {
		t.Errorf("closure-mode heat runs diverge from %s:\n got:\n%s want:\n%s", goldenPath, text, want)
	}
}
