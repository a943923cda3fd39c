package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"xsim/internal/vclock"
)

// TestParkedVPKilledAtRunEnd parks half the world forever: the run ends in a
// deadlock, the teardown kills every parked VP through its carrier, and
// every carrier coroutine exits, so the goroutine count returns to what it
// was before the runs.
func TestParkedVPKilledAtRunEnd(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2} {
		eng := newTestEngine(t, Config{NumVPs: 8, Workers: workers, Lookahead: vclock.Millisecond})
		res, err := eng.Run(func(c *Ctx) {
			c.Elapse(vclock.Millisecond)
			if c.Rank()%2 == 0 {
				c.Block("parked at run end")
			}
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("workers=%d: err = %v, want ErrDeadlock", workers, err)
		}
		for r, d := range res.Deaths {
			want := DeathCompleted
			if r%2 == 0 {
				want = DeathKilled
			}
			if d != want {
				t.Fatalf("workers=%d: rank %d death = %v, want %v", workers, r, d, want)
			}
		}
		if m := eng.Metrics(); m.CarriersLive != 0 {
			t.Fatalf("workers=%d: CarriersLive = %d after teardown", workers, m.CarriersLive)
		}
	}
	// Carrier coroutines exit inside Run; only the parallel workers may
	// still be on their way out.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBodyPanicWhileOthersParked panics one body with a plain value while
// the other VPs are parked on their carriers: the panic stays inside its
// VP (DeathPanicked, with its message), the parked VPs are woken and
// complete, and Run reports the panic.
func TestBodyPanicWhileOthersParked(t *testing.T) {
	for _, workers := range []int{1, 2} {
		eng := newTestEngine(t, Config{NumVPs: 4, Workers: workers, Lookahead: vclock.Millisecond})
		registerPing(eng)
		res, err := eng.Run(func(c *Ctx) {
			if c.Rank() != 0 {
				c.Block("waiting for rank 0")
				c.Elapse(vclock.Millisecond)
				return
			}
			for r := 1; r < c.N(); r++ {
				c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: r})
			}
			panic("boom")
		})
		if err == nil || !strings.Contains(err.Error(), "rank 0 panicked: boom") {
			t.Fatalf("workers=%d: err = %v, want rank 0's panic", workers, err)
		}
		if res.Deaths[0] != DeathPanicked {
			t.Fatalf("workers=%d: rank 0 death = %v, want panicked", workers, res.Deaths[0])
		}
		if res.Completed != 3 {
			t.Fatalf("workers=%d: completed = %d, want 3", workers, res.Completed)
		}
		if m := eng.Metrics(); m.CarriersLive != 0 {
			t.Fatalf("workers=%d: CarriersLive = %d after teardown", workers, m.CarriersLive)
		}
	}
}
