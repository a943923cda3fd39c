package core

import (
	"strings"
	"testing"

	"xsim/internal/vclock"
)

// kindPing is a test event kind: wakes the target VP with the payload.
const kindPing = reservedKinds + iota

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// registerPing installs a handler that completes a blocked VP's wait at the
// event time.
func registerPing(eng *Engine) {
	eng.RegisterHandler(kindPing, func(s *SchedCtx, ev *Event) {
		if s.Alive(ev.Target) && s.Blocked(ev.Target) {
			s.Wake(ev.Target, ev.Time, ev.Words[0])
		}
	})
}

func TestSingleVPElapse(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	res, err := eng.Run(func(c *Ctx) {
		if c.Rank() != 0 || c.N() != 1 {
			t.Errorf("rank/N wrong: %d/%d", c.Rank(), c.N())
		}
		c.Elapse(5 * vclock.Second)
		if c.Now() != vclock.TimeFromSeconds(5) {
			t.Errorf("clock = %v", c.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.MaxClock != vclock.TimeFromSeconds(5) {
		t.Fatalf("result = %+v", res)
	}
}

func TestIndependentClocks(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 4})
	res, err := eng.Run(func(c *Ctx) {
		c.Elapse(vclock.Duration(c.Rank()+1) * vclock.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if res.FinalClocks[r] != vclock.TimeFromSeconds(float64(r+1)) {
			t.Errorf("rank %d clock = %v", r, res.FinalClocks[r])
		}
	}
	if res.MinClock != vclock.TimeFromSeconds(1) || res.MaxClock != vclock.TimeFromSeconds(4) {
		t.Errorf("min/max = %v/%v", res.MinClock, res.MaxClock)
	}
	if res.AvgClock != vclock.TimeFromSeconds(2.5) {
		t.Errorf("avg = %v", res.AvgClock)
	}
}

// TestAvgClockDoesNotOverflow pins the mean of final clocks whose sum is
// past 2^63 ns: four ranks at 4e18 ns sum to 1.6e19, which an int64 sum
// wraps to a negative average.
func TestAvgClockDoesNotOverflow(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 4})
	res, err := eng.Run(func(c *Ctx) { c.Elapse(vclock.Duration(4e18)) })
	if err != nil {
		t.Fatal(err)
	}
	if want := vclock.Time(4e18); res.AvgClock != want {
		t.Fatalf("avg = %d, want %d", int64(res.AvgClock), int64(want))
	}
}

func TestPingWakesBlockedVP(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	var got any
	var gotClock vclock.Time
	res, err := eng.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Elapse(vclock.Second)
			c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: 1, Words: [EventWords]uint64{42}})
		case 1:
			got = c.Block("waiting for ping")
			gotClock = c.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != uint64(42) {
		t.Fatalf("woken with %v, want the event's first word 42", got)
	}
	want := vclock.TimeFromSeconds(1.001)
	if gotClock != want {
		t.Fatalf("wake clock = %v, want %v", gotClock, want)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestScheduledFailureDuringCompute(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(3)); err != nil {
		t.Fatal(err)
	}
	reached := false
	res, err := eng.Run(func(c *Ctx) {
		// A single 10 s compute phase: the simulator regains control at
		// 10 s, past the scheduled 3 s, so the actual failure time is
		// 10 s (the scheduled time is only the earliest failure time).
		c.Elapse(10 * vclock.Second)
		reached = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("VP survived its failure")
	}
	if res.Failed != 1 || res.Completed != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.FinalClocks[0] != vclock.TimeFromSeconds(10) {
		t.Fatalf("failure clock = %v, want 10s", res.FinalClocks[0])
	}
}

func TestScheduledFailureWakesBlockedVP(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(2)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(func(c *Ctx) {
		c.Block("waiting forever")
		t.Error("blocked VP should fail, not resume")
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("result = %+v", res)
	}
	// A blocked VP fails exactly at the scheduled time: the failure event
	// wakes it and the unwind activates at the scheduled clock.
	if res.FinalClocks[0] != vclock.TimeFromSeconds(2) {
		t.Fatalf("failure clock = %v, want 2s", res.FinalClocks[0])
	}
}

func TestFailureAtStart(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if err := eng.ScheduleFailure(0, 0); err != nil {
		t.Fatal(err)
	}
	entered := false
	res, err := eng.Run(func(c *Ctx) { entered = true })
	if err != nil {
		t.Fatal(err)
	}
	if entered {
		t.Fatal("VP body should never start")
	}
	if res.Failed != 1 || res.FinalClocks[0] != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestFailNow(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	res, err := eng.Run(func(c *Ctx) {
		c.Elapse(vclock.Second)
		c.FailNow()
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.FinalClocks[0] != vclock.TimeFromSeconds(1) {
		t.Fatalf("result = %+v", res)
	}
}

func TestOnDeathHook(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(1)); err != nil {
		t.Fatal(err)
	}
	var hookRank int
	var hookReason DeathReason
	var hookClock vclock.Time
	hooked := 0
	eng.OnDeath(func(c *Ctx, r DeathReason) {
		if r == DeathFailed {
			hookRank = c.Rank()
			hookReason = r
			hookClock = c.NowQuiet()
			hooked++
		}
	})
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.Elapse(5 * vclock.Second)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hooked != 1 || hookRank != 0 || hookReason != DeathFailed || hookClock != vclock.TimeFromSeconds(5) {
		t.Fatalf("hook: rank=%d reason=%v clock=%v count=%d", hookRank, hookReason, hookClock, hooked)
	}
}

func TestDeadlockDetection(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	res, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 1 {
			c.Block("receive from rank 0 that never comes")
		}
	})
	if err == nil {
		t.Fatal("want deadlock error")
	}
	if !res.Deadlocked || len(res.Blocked) != 1 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.Contains(res.Blocked[0], "never comes") {
		t.Errorf("blocked report = %q", res.Blocked[0])
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v", err)
	}
}

func TestPanicPropagation(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 1 {
			panic("application bug")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "application bug") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if _, err := eng.Run(func(c *Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(func(c *Ctx) {}); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestScheduleFailureValidation(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2, StartClock: vclock.TimeFromSeconds(10)})
	if err := eng.ScheduleFailure(5, vclock.TimeFromSeconds(20)); err == nil {
		t.Error("out-of-range rank should fail")
	}
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(5)); err == nil {
		t.Error("failure before start clock should fail")
	}
	if _, err := eng.Run(func(c *Ctx) {}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(20)); err == nil {
		t.Error("ScheduleFailure after Run should fail")
	}
}

func TestStartClock(t *testing.T) {
	start := vclock.TimeFromSeconds(7957)
	eng := newTestEngine(t, Config{NumVPs: 1, StartClock: start})
	res, err := eng.Run(func(c *Ctx) {
		if c.Now() != start {
			t.Errorf("initial clock = %v, want %v", c.Now(), start)
		}
		c.Elapse(vclock.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxClock != start.Add(vclock.Second) {
		t.Fatalf("MaxClock = %v", res.MaxClock)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumVPs: 0}); err == nil {
		t.Error("NumVPs=0 should fail")
	}
	if _, err := New(Config{NumVPs: 4, Workers: -1}); err == nil {
		t.Error("negative Workers should fail")
	}
	if _, err := New(Config{NumVPs: 4, Workers: 2}); err == nil {
		t.Error("parallel without lookahead should fail")
	}
	if _, err := New(Config{NumVPs: 4, StartClock: -1}); err == nil {
		t.Error("negative StartClock should fail")
	}
	// Workers clamped to NumVPs.
	eng, err := New(Config{NumVPs: 2, Workers: 8, Lookahead: vclock.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != 2 {
		t.Errorf("workers = %d, want 2", eng.Workers())
	}
}

func TestVPData(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if _, err := eng.Run(func(c *Ctx) {
		c.SetData(42)
		if c.Data().(int) != 42 {
			t.Error("data round trip failed")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitBroadcast(t *testing.T) {
	const kindMark = kindPing + 1
	eng := newTestEngine(t, Config{NumVPs: 6, Workers: 3, Lookahead: vclock.Millisecond})
	marked := make([]bool, 6)
	eng.RegisterHandler(kindMark, func(s *SchedCtx, ev *Event) {
		lo, hi := s.LocalRanks()
		for r := lo; r < hi; r++ {
			marked[r] = true
		}
	})
	registerPing(eng)
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			c.EmitBroadcast(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindMark})
		}
		c.Elapse(vclock.Second) // keep every VP alive past the broadcast
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, m := range marked {
		if !m {
			t.Errorf("rank %d not marked by broadcast", r)
		}
	}
}

func TestLookaheadViolationPanics(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 4, Workers: 2, Lookahead: vclock.Second})
	registerPing(eng)
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() == 0 {
			// Rank 3 is in the other partition; a 1 ms delay violates
			// the 1 s lookahead.
			c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: 3})
		}
		if c.Rank() == 3 {
			c.Block("ping")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Fatalf("err = %v, want lookahead violation", err)
	}
}

func TestAbortViaSetAbortAt(t *testing.T) {
	const kindAbortAll = kindPing + 2
	eng := newTestEngine(t, Config{NumVPs: 3})
	eng.RegisterHandler(kindAbortAll, func(s *SchedCtx, ev *Event) {
		at := ev.Time
		lo, hi := s.LocalRanks()
		for r := lo; r < hi; r++ {
			if !s.Alive(r) {
				continue
			}
			s.SetAbortAt(r, at)
			if s.Blocked(r) {
				s.Wake(r, at, nil)
			}
		}
	})
	registerPing(eng)
	res, err := eng.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Elapse(vclock.Second)
			c.EmitBroadcast(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindAbortAll})
			// Elapse models native compute: the simulator never regains
			// control, so this VP completes before processing the abort.
			c.Elapse(vclock.Hour)
		case 1:
			c.Block("waiting; released by abort")
		case 2:
			// Sleep yields to the simulator, so the abort interrupts it.
			c.Sleep(10 * vclock.Second)
			c.Elapse(vclock.Hour)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted != 2 || res.Completed != 1 {
		t.Fatalf("aborted = %d completed = %d; result %+v", res.Aborted, res.Completed, res)
	}
	// Ranks 1 and 2 are released at the abort time.
	for _, r := range []int{1, 2} {
		if res.FinalClocks[r] != vclock.TimeFromSeconds(1.001) {
			t.Errorf("rank %d abort clock = %v, want 1.001s", r, res.FinalClocks[r])
		}
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	res, err := eng.Run(func(c *Ctx) {
		c.Sleep(3 * vclock.Second)
		c.Sleep(0)  // no-op
		c.Sleep(-1) // no-op
		c.Sleep(2 * vclock.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxClock != vclock.TimeFromSeconds(5) {
		t.Fatalf("clock after sleeps = %v, want 5s", res.MaxClock)
	}
}

func TestSleepInterruptedByFailure(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	if err := eng.ScheduleFailure(0, vclock.TimeFromSeconds(2)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(func(c *Ctx) {
		c.Sleep(10 * vclock.Second)
		t.Error("sleep should have been interrupted by the failure")
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unlike Elapse (failure at end of phase), a sleeping VP fails at
	// exactly the scheduled time.
	if res.Failed != 1 || res.FinalClocks[0] != vclock.TimeFromSeconds(2) {
		t.Fatalf("result = %+v", res)
	}
}

// pingPongWorkload bounces a token between rank pairs and returns final clocks.
func pingPongWorkload(t *testing.T, workers int) []vclock.Time {
	t.Helper()
	eng := newTestEngine(t, Config{NumVPs: 8, Workers: workers, Lookahead: vclock.Millisecond})
	registerPing(eng)
	res, err := eng.Run(func(c *Ctx) {
		peer := c.Rank() ^ 1
		for i := 0; i < 10; i++ {
			if c.Rank() < peer {
				c.Elapse(vclock.Duration(c.Rank()+1) * vclock.Millisecond)
				c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: peer, Words: [EventWords]uint64{uint64(i)}})
				got := c.Block("pong")
				if got.(uint64) != uint64(i) {
					t.Errorf("bad pong %v", got)
				}
			} else {
				got := c.Block("ping")
				c.Elapse(2 * vclock.Millisecond)
				c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: peer, Words: [EventWords]uint64{got.(uint64)}})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.FinalClocks
}

func TestDeterminism(t *testing.T) {
	a := pingPongWorkload(t, 1)
	b := pingPongWorkload(t, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run-to-run mismatch at rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	seq := pingPongWorkload(t, 1)
	for _, w := range []int{2, 4, 8} {
		par := pingPongWorkload(t, w)
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("workers=%d mismatch at rank %d: %v vs %v", w, i, seq[i], par[i])
			}
		}
	}
}

func TestBusyWaitAccounting(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	res, err := eng.Run(func(c *Ctx) {
		switch c.Rank() {
		case 0:
			c.Elapse(3 * vclock.Second) // busy
			c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: 1})
		case 1:
			c.Elapse(vclock.Second) // busy 1s
			c.Block("ping")         // waits from 1s to 3.001s
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Busy[0] != 3*vclock.Second || res.Waited[0] != 0 {
		t.Errorf("rank 0 busy/wait = %v/%v", res.Busy[0], res.Waited[0])
	}
	if res.Busy[1] != vclock.Second {
		t.Errorf("rank 1 busy = %v", res.Busy[1])
	}
	if want := vclock.FromSeconds(2.001); res.Waited[1] != want {
		t.Errorf("rank 1 waited = %v, want %v", res.Waited[1], want)
	}
	// Invariant: busy + waited equals the clock advance.
	for r := 0; r < 2; r++ {
		if got := res.Busy[r] + res.Waited[r]; vclock.Time(got) != res.FinalClocks[r] {
			t.Errorf("rank %d: busy+waited %v != clock %v", r, got, res.FinalClocks[r])
		}
	}
}

func TestSleepCountsAsWait(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	res, err := eng.Run(func(c *Ctx) {
		c.Sleep(4 * vclock.Second)
		c.Elapse(vclock.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waited[0] != 4*vclock.Second || res.Busy[0] != vclock.Second {
		t.Fatalf("busy/wait = %v/%v", res.Busy[0], res.Waited[0])
	}
}

func TestAdvanceToCountsAsWait(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	res, err := eng.Run(func(c *Ctx) {
		c.AdvanceTo(vclock.TimeFromSeconds(2))
		c.AdvanceTo(vclock.TimeFromSeconds(1)) // no-op: clock never goes back
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Waited[0] != 2*vclock.Second || res.FinalClocks[0] != vclock.TimeFromSeconds(2) {
		t.Fatalf("result = %+v", res)
	}
}

func TestDeathReasonString(t *testing.T) {
	for r, want := range map[DeathReason]string{
		DeathCompleted:  "completed",
		DeathFailed:     "failed",
		DeathAborted:    "aborted",
		DeathKilled:     "killed",
		DeathPanicked:   "panicked",
		DeathReason(99): "DeathReason(99)",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
}
