package mpi

import (
	"math/rand"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// determinismOutcome captures everything the cross-check compares.
type determinismOutcome struct {
	clocks []vclock.Time
	deaths []core.DeathReason
	busy   []vclock.Duration
	waited []vclock.Duration
	events uint64
	resume uint64
}

// runDeterminismWorkload drives a randomized workload that mixes exact-source
// p2p, MPI_ANY_SOURCE receives, collectives, and injected process failures —
// every scheduler path the hot-path rewrite touches. Communicators use
// ErrorsReturn so failure-detection errors surface to the application (which
// ignores them and keeps going) instead of aborting the run.
func runDeterminismWorkload(t *testing.T, seed int64, workers int) determinismOutcome {
	t.Helper()
	const ranks, msgs = 12, 90
	script := randomScript(rand.New(rand.NewSource(seed)), ranks, msgs)

	eng, err := core.New(core.Config{NumVPs: ranks, Workers: workers, Lookahead: vclock.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: testNet(ranks), Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	frng := rand.New(rand.NewSource(seed ^ 0x0ddba11))
	for i := 0; i < 2; i++ {
		rank := frng.Intn(ranks)
		at := vclock.Time(frng.Int63n(int64(80 * vclock.Millisecond)))
		if err := eng.ScheduleFailure(rank, at); err != nil {
			t.Fatal(err)
		}
	}

	res, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		me := e.Rank()
		myRng := rand.New(rand.NewSource(seed*31 + int64(me)))

		// Phase 1: random p2p. Odd-indexed script messages are received
		// with an exact source, even-indexed ones via ANY_SOURCE (the
		// unique tag keeps the pairing deterministic either way).
		var reqs []*Request
		for i, m := range script {
			if m.dst != me {
				continue
			}
			src := m.src
			if i%2 == 0 {
				src = AnySource
			}
			r, err := c.Irecv(src, m.tag)
			if err != nil {
				return
			}
			reqs = append(reqs, r)
		}
		for _, m := range script {
			if m.src != me {
				continue
			}
			e.Elapse(vclock.Duration(myRng.Intn(500)) * vclock.Microsecond)
			r, err := c.IsendN(m.dst, m.tag, m.size)
			if err != nil {
				return
			}
			reqs = append(reqs, r)
		}
		c.Waitall(reqs) // errors expected once failures are detected

		// Phase 2: collectives over the surviving ranks; errors from
		// detected failures are ignored, the calls must still terminate
		// deterministically via the timeout-based detection.
		c.Allreduce([]float64{float64(me)}, OpSum)
		c.Bcast(0, []byte{byte(me)})
		c.Barrier()
	})
	if err != nil {
		t.Fatalf("seed %d workers %d: %v", seed, workers, err)
	}
	m := eng.Metrics()
	return determinismOutcome{
		clocks: res.FinalClocks,
		deaths: res.Deaths,
		busy:   res.Busy,
		waited: res.Waited,
		events: m.EventsDispatched,
		resume: m.Resumes,
	}
}

// TestDeterminismCrossCheck is the tentpole's safety net: the same randomized
// MPI workload (mixed p2p, ANY_SOURCE, collectives, injected failures) must
// produce identical per-rank results at Workers ∈ {1, 2, 3, 4, 5, 12} (12
// ranks, so 5 partitions are uneven: 3, 3, 2, 2, 2, and 12 are one VP each,
// the widest round the engine can run), and identical engine work counts run-to-run at a fixed worker count. (Event counts are
// not compared across worker counts: simulator-internal failure notifications
// are delivered once per partition, so their number legitimately scales with
// the partition count.)
func TestDeterminismCrossCheck(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		ref := runDeterminismWorkload(t, seed, 1)
		for _, workers := range []int{2, 3, 4, 5, 12} {
			got := runDeterminismWorkload(t, seed, workers)
			for r := range ref.clocks {
				if got.clocks[r] != ref.clocks[r] {
					t.Fatalf("seed %d workers %d: rank %d clock %v != sequential %v",
						seed, workers, r, got.clocks[r], ref.clocks[r])
				}
				if got.deaths[r] != ref.deaths[r] {
					t.Fatalf("seed %d workers %d: rank %d death %v != sequential %v",
						seed, workers, r, got.deaths[r], ref.deaths[r])
				}
				if got.busy[r] != ref.busy[r] || got.waited[r] != ref.waited[r] {
					t.Fatalf("seed %d workers %d: rank %d busy/wait %v/%v != sequential %v/%v",
						seed, workers, r, got.busy[r], got.waited[r], ref.busy[r], ref.waited[r])
				}
			}
		}
		// Run-to-run: the processed event and resume counts are part of
		// the deterministic contract at a fixed worker count.
		for _, workers := range []int{1, 2, 3, 4, 5, 12} {
			a := runDeterminismWorkload(t, seed, workers)
			b := runDeterminismWorkload(t, seed, workers)
			if a.events != b.events || a.resume != b.resume {
				t.Fatalf("seed %d workers %d: work counts not repeatable: %d/%d vs %d/%d",
					seed, workers, a.events, a.resume, b.events, b.resume)
			}
		}
	}
}
