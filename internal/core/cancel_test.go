package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"xsim/internal/vclock"
)

// pingPongBody builds a VP body in which each rank endlessly ping-pongs
// wake events with its ring neighbour — an unbounded simulation the
// engine can only leave through Cancel.
func pingPongBody(eng *Engine, delay vclock.Duration) func(*Ctx) {
	n := eng.NumVPs()
	return func(c *Ctx) {
		next := (c.Rank() + 1) % n
		if c.Rank() == 0 {
			c.Emit(Event{Time: c.Now().Add(delay), Kind: kindPing, Target: next})
		}
		for {
			c.Block("ping-pong")
			c.Emit(Event{Time: c.Now().Add(delay), Kind: kindPing, Target: next})
		}
	}
}

func TestCancelStopsSequentialRun(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 4})
	registerPing(eng)
	done := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		eng.Cancel()
		close(done)
	}()
	res, err := eng.Run(pingPongBody(eng, vclock.Millisecond))
	<-done
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if res == nil {
		t.Fatal("cancelled run should still return the partial result")
	}
	if res.Deadlocked {
		t.Fatal("a cancelled run must not be reported as a deadlock")
	}
	if eng.Metrics().EventsDispatched == 0 {
		t.Fatal("the run should have made progress before the cancel")
	}
	for r, d := range res.Deaths {
		if d != DeathKilled {
			t.Fatalf("rank %d death = %v, want killed", r, d)
		}
	}
}

func TestCancelStopsParallelRun(t *testing.T) {
	// 8 VPs: Workers 3 gives uneven partitions, 8 one VP each.
	for _, workers := range []int{3, 4, 8} {
		eng := newTestEngine(t, Config{NumVPs: 8, Workers: workers, Lookahead: vclock.Millisecond})
		registerPing(eng)
		go func() {
			time.Sleep(10 * time.Millisecond)
			eng.Cancel()
		}()
		res, err := eng.Run(pingPongBody(eng, vclock.Millisecond))
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", workers, err)
		}
		if res.Deadlocked {
			t.Fatalf("workers=%d: a cancelled run must not be reported as a deadlock", workers)
		}
	}
}

func TestCancelBeforeRunStopsImmediately(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	eng.Cancel()
	start := time.Now()
	_, err := eng.Run(pingPongBody(eng, vclock.Millisecond))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled run took %v", elapsed)
	}
}

func TestCancelAfterCompletionIsHarmless(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	res, err := eng.Run(func(c *Ctx) { c.Elapse(vclock.Second) })
	if err != nil {
		t.Fatal(err)
	}
	eng.Cancel() // e.g. a ctx watcher firing after the run finished
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestCancelRaceWithCompletionKeepsCleanResult(t *testing.T) {
	// A run whose VPs all finish before the cancel flag is observed must
	// report clean completion and no error: cancellation only matters
	// when it actually cut VPs short.
	eng := newTestEngine(t, Config{NumVPs: 2})
	res, err := eng.Run(func(c *Ctx) {
		c.Elapse(vclock.Second)
		eng.Cancel() // flag set while the run is finishing anyway
	})
	if err != nil {
		t.Fatalf("run with no surviving VPs should not report cancellation: %v", err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		eng := newTestEngine(t, Config{NumVPs: 16, Workers: 2, Lookahead: vclock.Millisecond})
		registerPing(eng)
		go func() {
			time.Sleep(2 * time.Millisecond)
			eng.Cancel()
		}()
		if _, err := eng.Run(pingPongBody(eng, vclock.Millisecond)); err != nil && !errors.Is(err, ErrStopped) {
			t.Fatal(err)
		}
	}
	// VP goroutines die synchronously in the teardown kill, but give the
	// runtime a moment to retire them before counting.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestDeadlockErrorWrapsSentinel(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Block("waiting for a ping that never comes")
		}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}
