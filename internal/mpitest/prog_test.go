package mpitest

import (
	"fmt"
	"os"
	"testing"
)

// progSeedCount returns how many seeds the prog-vs-closure differential
// sweeps: XSIM_DIFF_SEEDS, unclamped, if set (ci.sh step 6b asks for 500
// and gets 500), else at most 120 — a smaller default than the
// seq-vs-parallel sweep, since each seed runs four times.
func progSeedCount(t *testing.T) int {
	n := seedCount(t)
	if os.Getenv("XSIM_DIFF_SEEDS") == "" && n > 120 {
		n = 120
	}
	return n
}

// TestDifferentialClosureVsProg runs every seeded workload in closure
// mode sequentially and in program mode at 1, 2 and 4 workers, and
// requires bit-identical outcomes: simulated times, per-rank clocks,
// terminations and observation digests, and MPI metrics. Both modes run
// the same step functions (waits, sends, receives, probes, sleeps, and
// every collective algorithm), so what this compares is the two drivers —
// Env.Block on a goroutine against the scheduler stepping a parked
// program — each walking the same per-rank script. The closure walk is
// the only randomised coverage of the public blocking API, including
// wildcard matching, failure detection, and error bail-out paths; a
// mistake in the script itself moves both modes together and is
// TestClosureOutcomesMatchGolden's to catch.
func TestDifferentialClosureVsProg(t *testing.T) {
	seeds := progSeedCount(t)
	const shard = 15
	for lo := 0; lo < seeds; lo += shard {
		lo := lo
		hi := lo + shard
		if hi > seeds {
			hi = seeds
		}
		t.Run(fmt.Sprintf("seeds%d-%d", lo, hi-1), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed < hi; seed++ {
				w := Generate(int64(seed))
				ref, err := w.Run(1)
				if err != nil {
					t.Fatalf("%s: closure run: %v", w, err)
				}
				for _, workers := range []int{1, 2, 4} {
					got, err := w.RunProg(workers)
					if err != nil {
						t.Fatalf("%s: prog workers=%d run: %v", w, workers, err)
					}
					if d := Diff(ref, got); d != "" {
						t.Fatalf("%s: prog workers=%d diverges from closure: %s", w, workers, d)
					}
				}
			}
		})
	}
}
