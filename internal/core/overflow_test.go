package core

import (
	"errors"
	"strings"
	"testing"

	"xsim/internal/vclock"
)

// overflowProg is a program VP that asks for one clock advance past the
// end of virtual time at its first step.
type overflowProg struct{ d vclock.Duration }

func (p overflowProg) Step(c *Ctx, wake any) (any, bool) {
	c.Elapse(p.d)
	return nil, true
}

// TestClockOverflowIsTypedOutcome starts a two-rank world ten seconds short
// of vclock.Never and has rank 0 ask for twenty more, through each way a
// caller-supplied duration reaches a clock, while rank 1 parks forever. The
// run must end in ErrClockOverflow naming rank 0, its clock and the
// advance — not in the deadlock rank 1's park would otherwise report, and
// with no goroutine stack — and rank 1 must be torn down as at any run
// end.
func TestClockOverflowIsTypedOutcome(t *testing.T) {
	start := vclock.Never.Add(-10 * vclock.Second)
	for _, tc := range []struct {
		name string
		ask  func(c *Ctx)
		adv  string
	}{
		{"Elapse", func(c *Ctx) { c.Elapse(20 * vclock.Second) }, "+ 20.000000s"},
		{"ElapseSteps", func(c *Ctx) { c.ElapseSteps(4*vclock.Second, 5) }, "+ 3 × 4.000000s"},
		{"Sleep", func(c *Ctx) { c.Sleep(20 * vclock.Second) }, "+ 20.000000s"},
	} {
		eng := newTestEngine(t, Config{NumVPs: 2, StartClock: start})
		res, err := eng.Run(func(c *Ctx) {
			if c.Rank() == 1 {
				c.Block("parked forever")
			}
			tc.ask(c)
		})
		checkOverflowErr(t, tc.name, err, tc.adv)
		if res.Deaths[0] != DeathPanicked || res.Deaths[1] != DeathKilled {
			t.Errorf("%s: deaths = %v, want [panicked killed]", tc.name, res.Deaths)
		}
		if m := eng.Metrics(); m.CarriersLive != 0 {
			t.Errorf("%s: CarriersLive = %d after teardown", tc.name, m.CarriersLive)
		}
	}

	eng := newTestEngine(t, Config{NumVPs: 2, StartClock: start})
	_, err := eng.RunPrograms(func(c *Ctx) Program {
		if c.Rank() == 1 {
			return &parkForever{reason: "parked forever"}
		}
		return overflowProg{d: 20 * vclock.Second}
	})
	checkOverflowErr(t, "program", err, "+ 20.000000s")
}

func checkOverflowErr(t *testing.T, name string, err error, adv string) {
	t.Helper()
	if !errors.Is(err, ErrClockOverflow) || errors.Is(err, ErrDeadlock) {
		t.Fatalf("%s: err = %v, want ErrClockOverflow and not ErrDeadlock", name, err)
	}
	msg := err.Error()
	clock := vclock.Never.Add(-10 * vclock.Second).String()
	if !strings.Contains(msg, "rank 0 at "+clock+" "+adv) || strings.Contains(msg, "goroutine") {
		t.Errorf("%s: err = %q, want rank 0, its clock %s and the advance %q, and no stack", name, msg, clock, adv)
	}
}
