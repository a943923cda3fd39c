package core

import (
	"errors"
	"strings"
	"testing"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// A VP emitting an event into its own past is caught (always on, not just
// under Validate) and surfaces as a run error naming the invariant, the
// rank and the virtual time.
func TestEmitBeforeNowViolation(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	_, err := eng.Run(func(c *Ctx) {
		if c.Rank() != 0 {
			c.Elapse(vclock.Second)
			return
		}
		c.Elapse(vclock.Second)
		c.Emit(Event{Kind: kindPing, Time: vclock.TimeFromSeconds(0.5), Target: 1})
	})
	if err == nil {
		t.Fatal("emitting into the past should fail the run")
	}
	for _, want := range []string{"invariant violation [emit-before-now]", "rank 0", "0.5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// A handler emitting an event before the partition watermark via EmitFor
// raises a *check.Violation carrying the diagnostic dump, which the engine
// recovers and returns as the run's error with the partial result, at
// every worker count.
func TestHandlerEmitForBeforeWatermarkViolation(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		eng := newTestEngine(t, Config{NumVPs: 4, Workers: workers, Lookahead: vclock.Millisecond})
		const kindStale = reservedKinds + 100
		eng.RegisterHandler(kindPing, func(s *SchedCtx, ev *Event) {
			// Emitting at time zero while processing an event at 1s is a
			// simulator bug; EmitFor must refuse it.
			s.EmitFor(ev.Target, Event{Kind: kindStale, Time: 0, Target: ev.Target})
		})
		res, err := eng.Run(func(c *Ctx) {
			if c.Rank() == 0 {
				c.Emit(Event{Kind: kindPing, Time: vclock.TimeFromSeconds(1), Target: 3})
			}
			c.Elapse(2 * vclock.Second)
		})
		var v *check.Violation
		if !errors.As(err, &v) {
			t.Fatalf("workers=%d: err = %v, want the stale EmitFor's violation", workers, err)
		}
		if v.Invariant != "emit-before-now" || v.Rank != 3 {
			t.Fatalf("workers=%d: violation = %+v", workers, v)
		}
		if !strings.Contains(v.Error(), "kind=") {
			t.Errorf("workers=%d: violation dump %q should describe the event", workers, v.Error())
		}
		if res == nil || res.Deadlocked {
			t.Errorf("workers=%d: result %+v, want the partial result and no deadlock", workers, res)
		}
	}
}

// Validate must not change results — same clocks and terminations with
// checking on and off, sequentially and windowed.
func TestValidateDoesNotChangeResults(t *testing.T) {
	run := func(validate bool, workers int) *Result {
		eng := newTestEngine(t, Config{
			NumVPs: 4, Workers: workers, Lookahead: vclock.Microsecond, Validate: validate,
		})
		registerPing(eng)
		res, err := eng.Run(func(c *Ctx) {
			next := (c.Rank() + 1) % c.N()
			for i := 0; i < 5; i++ {
				c.Elapse(vclock.Duration(c.Rank()+1) * vclock.Microsecond)
				c.Emit(Event{Kind: kindPing, Time: c.Now().Add(2 * vclock.Microsecond), Target: next})
				c.Block("ping wait")
			}
		})
		if err != nil {
			t.Fatalf("validate=%v workers=%d: %v", validate, workers, err)
		}
		return res
	}
	for _, workers := range []int{1, 2} {
		ref := run(false, workers)
		got := run(true, workers)
		for r := range ref.FinalClocks {
			if ref.FinalClocks[r] != got.FinalClocks[r] || ref.Deaths[r] != got.Deaths[r] {
				t.Fatalf("workers=%d rank %d: validate changed result: %v/%v vs %v/%v",
					workers, r, ref.FinalClocks[r], ref.Deaths[r], got.FinalClocks[r], got.Deaths[r])
			}
		}
	}
}
