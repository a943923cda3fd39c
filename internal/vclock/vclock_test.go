package vclock

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", Second)
	}
	if Minute != 60*Second || Hour != 60*Minute {
		t.Fatalf("minute/hour wrong: %d %d", Minute, Hour)
	}
}

func TestAddSub(t *testing.T) {
	tm := Time(0).Add(5 * Second)
	if tm != Time(5*Second) {
		t.Fatalf("Add: got %v", tm)
	}
	if d := tm.Sub(Time(2 * Second)); d != 3*Second {
		t.Fatalf("Sub: got %v", d)
	}
}

func TestBeforeAfter(t *testing.T) {
	a, b := Time(1), Time(2)
	if !a.Before(b) || a.After(b) || b.Before(a) || !b.After(a) {
		t.Fatal("ordering broken")
	}
	if a.Before(a) || a.After(a) {
		t.Fatal("a should not be before/after itself")
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1, 5248, 0.000001, 12345.678901} {
		tm := TimeFromSeconds(s)
		if got := tm.Seconds(); math.Abs(got-s) > 1e-9*math.Max(1, s) {
			t.Errorf("TimeFromSeconds(%v).Seconds() = %v", s, got)
		}
		d := FromSeconds(s)
		if got := d.Seconds(); math.Abs(got-s) > 1e-9*math.Max(1, s) {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestString(t *testing.T) {
	if got := Time(5248 * Second).String(); got != "5248.000000s" {
		t.Errorf("Time.String() = %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Errorf("Never.String() = %q", got)
	}
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Errorf("Duration.String() = %q", got)
	}
}

func TestMaxMin(t *testing.T) {
	if Max(Time(1), Time(2)) != Time(2) || Max(Time(2), Time(1)) != Time(2) {
		t.Fatal("Max wrong")
	}
	if Min(Time(1), Time(2)) != Time(1) || Min(Time(2), Time(1)) != Time(1) {
		t.Fatal("Min wrong")
	}
}

func TestNeverIsLatest(t *testing.T) {
	if !Time(1 << 40).Before(Never) {
		t.Fatal("Never must compare later than any realistic time")
	}
}

// Property: Add and Sub are inverses for non-overflowing operands.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(base int32, delta int32) bool {
		tm := Time(base)
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Max/Min return one of their operands and order correctly.
func TestQuickMaxMin(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		mx, mn := Max(x, y), Min(x, y)
		return (mx == x || mx == y) && (mn == x || mn == y) &&
			!mx.Before(mn) && mn.Add(mx.Sub(mn)) == mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStepsToReach(t *testing.T) {
	for _, tc := range []struct {
		t      Time
		d      Duration
		target Time
		want   int
	}{
		{0, 10, 0, 1},  // already there: the next step is the first at or past it
		{5, 10, 3, 1},  // already past
		{0, 10, 1, 1},  // reached inside the first step
		{0, 10, 10, 1}, // exactly on the first step
		{0, 10, 11, 2}, // one tick past a step
		{0, 10, 100, 10},
		{7, 10, 100, 10}, // 7+9·10 = 97 < 100 <= 107
		{0, 0, 0, 1},
		{0, 0, 1, math.MaxInt},  // a zero step never gets there
		{0, -5, 1, math.MaxInt}, // nor does a negative one
		{0, 1, Never, math.MaxInt},
		{-4, 2, Never, 1<<62 + 2}, // the gap overflows int64, not the unsigned division
		{0, Duration(Never), Never, 1},
		{1, Duration(Never), Never, 1},
	} {
		if got := StepsToReach(tc.t, tc.d, tc.target); got != tc.want {
			t.Errorf("StepsToReach(%d, %d, %d) = %d, want %d", tc.t, tc.d, tc.target, got, tc.want)
		}
	}
}

// Property: StepsToReach agrees with stepping the clock one d at a time.
func TestQuickStepsToReachMatchesLoop(t *testing.T) {
	f := func(start int16, step uint8, ahead uint16) bool {
		tm, d := Time(start), Duration(step)+1
		target := tm.Add(Duration(ahead) - 100) // some targets already passed
		k := 0
		for c := tm; ; {
			c = c.Add(d)
			k++
			if c >= target {
				break
			}
		}
		return StepsToReach(tm, d, target) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
