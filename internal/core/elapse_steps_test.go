package core

import (
	"testing"
	"testing/quick"

	"xsim/internal/vclock"
)

// stepOutcome is what a run of clock steps leaves behind: how many were
// taken (the one that unwound the VP included), the clock (which fixes the
// busy time the run reports), and whether and why the VP unwound.
type stepOutcome struct {
	taken  int
	clock  vclock.Time
	died   bool
	reason DeathReason
}

// catchUnwind runs f on a VP and reports the unwind it ended in, if any.
func catchUnwind(f func()) (died bool, reason DeathReason) {
	defer func() {
		if r := recover(); r != nil {
			died, reason = true, r.(unwindSentinel).reason
		}
	}()
	f()
	return false, DeathCompleted
}

// elapseLoop is the reference: n Elapse(d) calls, one clock update and one
// activation check each.
func elapseLoop(v vp, d vclock.Duration, n int) stepOutcome {
	c := Ctx{vp: &v}
	var out stepOutcome
	out.died, out.reason = catchUnwind(func() {
		for i := 0; i < n; i++ {
			out.taken++
			c.Elapse(d)
		}
	})
	out.clock = v.clock
	return out
}

// elapseSteps is the O(1) form used as its contract says: take the steps,
// record the count, then reach the activation point.
func elapseSteps(v vp, d vclock.Duration, n int) stepOutcome {
	c := Ctx{vp: &v}
	var out stepOutcome
	out.taken = c.ElapseSteps(d, n)
	if out.taken > 0 { // n <= 0 is no Elapse call at all, so no activation either
		out.died, out.reason = catchUnwind(func() { c.Elapse(0) })
	}
	out.clock = v.clock
	return out
}

func TestElapseStepsEdges(t *testing.T) {
	const never = vclock.Never
	for _, tc := range []struct {
		name         string
		clock        vclock.Time
		tof, abortAt vclock.Time
		d            vclock.Duration
		n            int
	}{
		{"no threshold", 100, never, never, 7, 1000},
		{"no steps", 100, 50, never, 7, 0},
		{"negative count", 100, 50, never, 7, -3},
		{"zero step, nothing pending", 100, 101, never, 0, 9},
		{"zero step, failure already due", 100, 100, never, 0, 9},
		{"negative step is a zero step", 100, 90, never, -4, 9},
		{"failure already due", 100, 40, never, 7, 9},
		{"failure exactly on a step", 100, 100 + 3*7, never, 7, 9},
		{"failure one tick past a step", 100, 100 + 3*7 + 1, never, 7, 9},
		{"failure one tick before a step", 100, 100 + 3*7 - 1, never, 7, 9},
		{"failure exactly on the last step", 100, 100 + 9*7, never, 7, 9},
		{"failure just past the last step", 100, 100 + 9*7 + 1, never, 7, 9},
		{"abort before failure", 100, 160, 130, 7, 9},
		{"failure before abort", 100, 130, 160, 7, 9},
		{"both due on one step, failure first", 100, 120, 121, 7, 9},
		{"both due on one step, abort first", 100, 121, 120, 7, 9},
		{"both at the same instant", 100, 121, 121, 7, 9},
		{"negative clock, far threshold", -5, never - 1, never, 3, 4},
	} {
		v := vp{clock: tc.clock, tof: tc.tof, abortAt: tc.abortAt}
		if want, got := elapseLoop(v, tc.d, tc.n), elapseSteps(v, tc.d, tc.n); got != want {
			t.Errorf("%s: ElapseSteps left %+v, the Elapse loop %+v", tc.name, got, want)
		}
	}
}

// Property: ElapseSteps followed by the activation point is
// indistinguishable from the loop of Elapse calls it replaces — same steps
// taken, same clock (so the same busy time), same unwind — over clocks,
// step sizes (zero and negative too), counts, and failure and abort times
// that are unset, already passed, exactly on a step, or anywhere around
// the run.
func TestQuickElapseStepsMatchesElapseLoop(t *testing.T) {
	// threshold picks a pending time from two random words.
	threshold := func(clock vclock.Time, d vclock.Duration, n int, sel uint8, off int16) vclock.Time {
		span := vclock.Duration(n+2) * max(d, 1)
		switch sel % 4 {
		case 0:
			return vclock.Never
		case 1: // exactly on a step boundary (or on the start clock)
			return clock.Add(vclock.Duration(int(off)%(n+2)) * d)
		case 2: // already passed
			return clock.Add(-vclock.Duration(off&0xff) - 1)
		default: // anywhere from just before the run to just after it
			return clock.Add(vclock.Duration(off)%span + span/2)
		}
	}
	f := func(clock int32, d int8, n uint8, tofSel, abortSel uint8, tofOff, abortOff int16) bool {
		v := vp{clock: vclock.Time(clock)}
		step, count := vclock.Duration(d), int(n)
		if d < -2 {
			step = vclock.Duration(-int(d)) * 37 // mostly positive steps; keep 0, -1, -2
		}
		v.tof = threshold(v.clock, step, count, tofSel, tofOff)
		v.abortAt = threshold(v.clock, step, count, abortSel, abortOff)
		want, got := elapseLoop(v, step, count), elapseSteps(v, step, count)
		if got != want {
			t.Logf("clock %d tof %d abortAt %d d %d n %d: ElapseSteps left %+v, the Elapse loop %+v",
				v.clock, v.tof, v.abortAt, step, count, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
