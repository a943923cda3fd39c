package mpitest

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"xsim"
	"xsim/internal/vclock"
)

// seedCount returns how many seeds the differential test sweeps:
// XSIM_DIFF_SEEDS if set, else 60 in -short mode, else 500.
func seedCount(t *testing.T) int { return envSeeds(t, "XSIM_DIFF_SEEDS", 60, 500) }

// wideSeedCount returns how many seeds the wide-world differentials
// sweep: XSIM_WIDE_SEEDS if set, else 4 in -short mode, else 16.
func wideSeedCount(t *testing.T) int { return envSeeds(t, "XSIM_WIDE_SEEDS", 4, 16) }

// envSeeds returns the seed count the environment variable name sets,
// else short in -short mode, else full.
func envSeeds(t *testing.T, name string, short, full int) int {
	if s := os.Getenv(name); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad %s=%q", name, s)
		}
		return n
	}
	if testing.Short() {
		return short
	}
	return full
}

// TestDifferentialSeqVsParallel runs every seeded workload sequentially
// and at 2 and 4 workers, with invariant checking enabled, and requires
// bit-identical outcomes: simulated times, per-rank clocks and
// terminations, per-rank observation digests, and MPI metrics.
func TestDifferentialSeqVsParallel(t *testing.T) {
	diffSeqVsParallel(t, Generate, seedCount(t), 25)
}

// TestWideDifferentialSeqVsParallel is TestDifferentialSeqVsParallel on
// 24- to 128-rank worlds (GenerateWide), where a fan-in root's matching
// queues move to a dense table.
func TestWideDifferentialSeqVsParallel(t *testing.T) {
	diffSeqVsParallel(t, GenerateWide, wideSeedCount(t), 4)
}

// diffSeqVsParallel runs seeds workloads of gen, shard seeds to a parallel
// subtest, sequentially and at 2 and 4 workers, and requires identical
// outcomes.
func diffSeqVsParallel(t *testing.T, gen func(int64) *Workload, seeds, shard int) {
	for lo := 0; lo < seeds; lo += shard {
		lo := lo
		hi := lo + shard
		if hi > seeds {
			hi = seeds
		}
		t.Run(fmt.Sprintf("seeds%d-%d", lo, hi-1), func(t *testing.T) {
			t.Parallel()
			for seed := lo; seed < hi; seed++ {
				w := gen(int64(seed))
				ref, err := w.Run(1)
				if err != nil {
					t.Fatalf("%s: sequential run: %v", w, err)
				}
				for _, workers := range []int{2, 4} {
					got, err := w.Run(workers)
					if err != nil {
						t.Fatalf("%s: workers=%d run: %v", w, workers, err)
					}
					if d := Diff(ref, got); d != "" {
						t.Fatalf("%s: workers=%d diverges from sequential: %s", w, workers, d)
					}
				}
			}
		})
	}
}

// TestRepeatability reruns the same workload at the same worker count and
// requires identical outcomes — the paper's repeatable-experiments
// property.
func TestRepeatability(t *testing.T) {
	for _, seed := range []int64{3, 17, 41} {
		w := Generate(seed)
		for _, workers := range []int{1, 4} {
			a, err := w.Run(workers)
			if err != nil {
				t.Fatalf("%s: workers=%d: %v", w, workers, err)
			}
			b, err := w.Run(workers)
			if err != nil {
				t.Fatalf("%s: workers=%d rerun: %v", w, workers, err)
			}
			if d := Diff(a, b); d != "" {
				t.Fatalf("%s: workers=%d not repeatable: %s", w, workers, d)
			}
		}
	}
}

// TestCampaignDifferential runs a checkpoint/restart campaign (heat
// distribution application with failures drawn from an MTTF) at several
// worker counts and requires identical campaign trajectories.
func TestCampaignDifferential(t *testing.T) {
	type runKey struct {
		Start, End xsim.Time
		Injected   string
		C, F, A    int
	}
	campaign := func(workers int) ([]runKey, xsim.Time, int, error) {
		hw, err := xsim.HeatWorkloadFor(8)
		if err != nil {
			return nil, 0, 0, err
		}
		hw.Iterations = 40
		hw.ExchangeInterval = 10
		hw.CheckpointInterval = 10
		c := xsim.Campaign{
			Base: xsim.Config{
				Ranks:    8,
				Workers:  workers,
				Validate: true,
			},
			MTTF:             150 * vclock.Second,
			Seed:             99,
			MaxRuns:          40,
			CheckpointPrefix: "heat",
			AppFor:           func(run int) xsim.App { return xsim.RunHeat(hw) },
		}
		res, err := c.Run()
		if err != nil {
			return nil, 0, 0, err
		}
		keys := make([]runKey, len(res.Runs))
		for i, r := range res.Runs {
			k := runKey{Start: r.Start, End: r.End, C: r.Completed, F: r.Failed, A: r.Aborted}
			if r.Injected != nil {
				k.Injected = r.Injected.String()
			}
			keys[i] = k
		}
		return keys, res.E2, res.Failures, nil
	}
	refRuns, refE2, refF, err := campaign(1)
	if err != nil {
		t.Fatalf("sequential campaign: %v", err)
	}
	for _, workers := range []int{2, 4} {
		runs, e2, f, err := campaign(workers)
		if err != nil {
			t.Fatalf("workers=%d campaign: %v", workers, err)
		}
		if e2 != refE2 || f != refF || len(runs) != len(refRuns) {
			t.Fatalf("workers=%d campaign diverges: E2 %v vs %v, failures %d vs %d, runs %d vs %d",
				workers, e2, refE2, f, refF, len(runs), len(refRuns))
		}
		for i := range runs {
			if runs[i] != refRuns[i] {
				t.Fatalf("workers=%d campaign run %d diverges: %+v vs %+v", workers, i, runs[i], refRuns[i])
			}
		}
	}
}
