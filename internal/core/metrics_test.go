package core

import (
	"testing"

	"xsim/internal/vclock"
)

// runMetricsWorkload drives a ping-pong workload and returns the metrics.
func runMetricsWorkload(t *testing.T, workers int) (*Result, MetricsSnapshot) {
	t.Helper()
	const la = vclock.Duration(1000)
	eng, err := New(Config{NumVPs: 4, Workers: workers, Lookahead: la})
	if err != nil {
		t.Fatal(err)
	}
	kind := FirstUserKind
	eng.RegisterHandler(kind, func(s *SchedCtx, ev *Event) {
		if s.Blocked(ev.Target) {
			s.Wake(ev.Target, ev.Time, ev.Words[0])
		}
	})
	res, err := eng.Run(func(c *Ctx) {
		peer := c.Rank() ^ 1
		for i := 0; i < 50; i++ {
			c.Emit(Event{Time: c.Now().Add(la), Kind: kind, Target: peer, Words: [EventWords]uint64{uint64(i)}})
			c.Block("ping")
		}
		// Release the peer's final block.
		c.Emit(Event{Time: c.Now().Add(la), Kind: kind, Target: peer})
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Metrics()
}

func TestMetricsSequential(t *testing.T) {
	_, m := runMetricsWorkload(t, 1)
	if m.EventsDispatched == 0 || m.Resumes == 0 {
		t.Fatalf("no work counted: %+v", m)
	}
	if m.PoolHits == 0 {
		t.Fatalf("event pool never hit: %+v", m)
	}
	// The pool serves the steady state: misses are bounded by the working
	// set (a handful of in-flight events), far below the total dispatched.
	if m.PoolMisses >= m.EventsDispatched/2 {
		t.Fatalf("pool misses %d not amortised over %d events", m.PoolMisses, m.EventsDispatched)
	}
	if m.CrossEvents != 0 || m.BarrierRounds != 0 || m.WindowWidthSum != 0 {
		t.Fatalf("sequential run recorded parallel metrics: %+v", m)
	}
	if m.EventHeapHighWater == 0 || m.ReadyHeapHighWater == 0 {
		t.Fatalf("heap high-water not tracked: %+v", m)
	}
	// A queue never deeper than one chunk opens no run: every push went
	// to the heap.
	if m.EventRunAppends != 0 || m.EventHeapPushes != m.PoolHits+m.PoolMisses || m.EventRunShare() != 0 {
		t.Fatalf("a shallow queue used its runs: %+v", m)
	}
}

func TestMetricsParallel(t *testing.T) {
	res1, _ := runMetricsWorkload(t, 1)
	res4, m := runMetricsWorkload(t, 4)
	// Determinism first: the parallel run's outcome matches sequential.
	for i := range res1.FinalClocks {
		if res1.FinalClocks[i] != res4.FinalClocks[i] {
			t.Fatalf("clock %d differs: %v vs %v", i, res1.FinalClocks[i], res4.FinalClocks[i])
		}
	}
	// Ranks 0^1 and 2^3 pair within partitions only at Workers=2; at
	// Workers=4 every pair spans partitions, so cross traffic must show.
	if m.CrossEvents == 0 {
		t.Fatalf("no cross-partition events at Workers=4: %+v", m)
	}
	if m.BarrierRounds == 0 || m.WindowWidthSum <= 0 {
		t.Fatalf("parallel window metrics missing: %+v", m)
	}
	// The horizon extension guarantees every window spans at least one
	// lookahead past the global minimum.
	if avg := m.AvgWindowWidth(); avg < 1000 {
		t.Fatalf("average window width %v below lookahead", avg)
	}
}
