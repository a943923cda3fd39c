package heat

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
)

// phaseConfig is side³ ranks (4³ points each) of modelled compute whose
// only exchange and only checkpoint come after the last iteration: one
// compute phase per rank.
func phaseConfig(side, iterations int) Config {
	cfg := smallReal(side * side * side)
	cfg.PX, cfg.PY, cfg.PZ = side, side, side
	cfg.NX, cfg.NY, cfg.NZ = 4*side, 4*side, 4*side
	cfg.RealCompute = false
	cfg.Iterations = iterations
	cfg.ExchangeInterval = iterations
	cfg.CheckpointInterval = iterations
	return cfg
}

// TestClockRangeRefusedAtInit: a run whose modelled compute cannot fit the
// virtual clock is refused by the application with a typed error, in both
// execution modes, instead of finishing at once on a wrapped clock.
func TestClockRangeRefusedAtInit(t *testing.T) {
	const n = 8
	cfg := phaseConfig(2, 1<<40)
	cfg.PointCost = 1e6 // 64 points: ~38 ms an iteration, ~1,300 years in all
	for _, mode := range []string{"prog", "closure"} {
		w := testWorld(t, n, 1, fsmodel.NewStore(), 0, nil)
		var err error
		if mode == "prog" {
			_, err = w.RunProgs(NewProg(cfg))
		} else {
			_, err = w.Run(func(e *mpi.Env) { Run(e, &cfg) })
		}
		var cre *ClockRangeError
		if !errors.As(err, &cre) {
			t.Fatalf("%s: err = %v, want a *ClockRangeError", mode, err)
		}
		if cre.Iterations != 1<<40 || cre.Max <= 0 || cre.Max >= 1<<40 {
			t.Errorf("%s: %+v", mode, cre)
		}
		ok := cfg
		ok.Iterations = cre.Max
		if err := ok.CheckClockRange(cre.Start, cre.PerIteration); err != nil {
			t.Errorf("%s: the reported maximum is itself refused: %v", mode, err)
		}
	}
	if err := cfg.CheckClockRange(0, 0); err != nil {
		t.Errorf("zero-cost compute cannot overrun the clock: %v", err)
	}
}

// TestComputePhaseHostCostIndependentOfIterations: a compute phase is one
// clock advance, so ten thousand times the iterations must not cost the
// host anything like ten thousand times the wall clock. (Stepping every
// iteration, the 1e7 run took seconds.)
func TestComputePhaseHostCostIndependentOfIterations(t *testing.T) {
	const n = 8
	wall := func(iterations int) time.Duration {
		best := time.Duration(math.MaxInt64)
		for try := 0; try < 5; try++ {
			cfg := phaseConfig(2, iterations)
			cfg.Tracker = NewTracker(n)
			w := testWorld(t, n, 1, fsmodel.NewStore(), 0, nil)
			t0 := time.Now()
			res, err := w.RunProgs(NewProg(cfg))
			d := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed != n || cfg.Tracker.IterOf(0) != iterations {
				t.Fatalf("%d iterations: completed %d ranks, rank 0 at iteration %d", iterations, res.Completed, cfg.Tracker.IterOf(0))
			}
			best = min(best, d)
		}
		return best
	}
	short, long := wall(1e3), wall(1e7)
	if long > 10*short+time.Millisecond {
		t.Errorf("1e7 iterations took %v, 1e3 took %v: host cost grows with the length of the compute phase", long, short)
	}
}

// BenchmarkHeatComputePhase measures the host cost of modelled compute per
// rank-iteration on 64 ranks that do nothing else until the last iteration.
// A compute phase is O(1), so ns/rank-iter falls in proportion to the
// iteration count and allocs/op does not move with it: the run's fixed cost
// (spawn, the first and last exchange, the checkpoint) is all that is left.
func BenchmarkHeatComputePhase(b *testing.B) {
	const n = 64
	for _, iterations := range []int{1e3, 1e6} {
		b.Run(fmt.Sprintf("iters=%d", iterations), func(b *testing.B) {
			cfg := phaseConfig(4, iterations)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := benchWorld(b, n)
				b.StartTimer()
				if _, err := w.RunProgs(NewProg(cfg)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n)/float64(iterations), "ns/rank-iter")
		})
	}
}
