// Package fault provides the MPI process failure injection facilities of
// the simulator: explicit failure schedules given as rank/time pairs (the
// paper's command-line/environment-variable method) and randomly drawn
// failures parameterised by a system mean-time-to-failure (the paper's
// evaluation draws a random rank and a random time within 2×MTTF for each
// application run).
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"xsim/internal/core"
	"xsim/internal/vclock"
)

// Injection schedules a simulated MPI process failure: rank fails at the
// earliest failure time At (the actual failure happens when the simulator
// regains control at or after At).
type Injection struct {
	Rank int
	At   vclock.Time
}

// String renders the injection in schedule syntax.
func (i Injection) String() string {
	return fmt.Sprintf("%d@%g", i.Rank, i.At.Seconds())
}

// Schedule is a set of failure injections.
type Schedule []Injection

// Parse reads a schedule in "rank@seconds[,rank@seconds...]" syntax, e.g.
// "12@350.5,99@1200". Whitespace around entries is ignored; an empty
// string is an empty schedule.
func Parse(s string) (Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out Schedule
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		rankStr, timeStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fault: entry %q is not rank@seconds", part)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(rankStr))
		if err != nil {
			return nil, fmt.Errorf("fault: bad rank in %q: %v", part, err)
		}
		if rank < 0 {
			return nil, fmt.Errorf("fault: negative rank in %q", part)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(timeStr), 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad time in %q: %v", part, err)
		}
		// ParseFloat accepts "NaN" and "Inf", and `secs < 0` is false for
		// both NaN and +Inf; a float64→int64 conversion of either (or of
		// any value at or beyond 2^63 nanoseconds) is implementation-
		// defined, so reject everything the virtual clock cannot represent.
		// float64(math.MaxInt64) is exactly 2^63, so ns < that bound
		// guarantees a safe conversion.
		if secs < 0 || math.IsNaN(secs) {
			return nil, fmt.Errorf("fault: negative time in %q", part)
		}
		if ns := secs * 1e9; math.IsInf(ns, 0) || ns >= float64(math.MaxInt64) {
			return nil, fmt.Errorf("fault: time in %q overflows the virtual clock", part)
		}
		out = append(out, Injection{Rank: rank, At: vclock.TimeFromSeconds(secs)})
	}
	return out, nil
}

// String renders the schedule in Parse syntax.
func (s Schedule) String() string {
	parts := make([]string, len(s))
	for i, inj := range s {
		parts[i] = inj.String()
	}
	return strings.Join(parts, ",")
}

// Sorted returns a copy ordered by (time, rank).
func (s Schedule) Sorted() Schedule {
	out := append(Schedule(nil), s...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// Apply schedules every injection on the engine. Must be called before the
// engine runs.
func Apply(eng *core.Engine, s Schedule) error {
	for _, inj := range s {
		if err := eng.ScheduleFailure(inj.Rank, inj.At); err != nil {
			return err
		}
	}
	return nil
}

// RandomFailure draws one failure for an application run starting at
// virtual time start, following the paper's worst-case model: the failed
// rank is uniform over the n ranks and the failure time is uniform within
// [start, start + 2×MTTF). The evenly distributed system MTTF applies to
// each application run separately (start to finish/failure, restart to
// finish/failure).
func RandomFailure(rng *rand.Rand, n int, mttf vclock.Duration, start vclock.Time) Injection {
	if n <= 0 {
		panic(fmt.Sprintf("fault: invalid rank count %d", n))
	}
	if mttf <= 0 {
		panic(fmt.Sprintf("fault: invalid MTTF %v", mttf))
	}
	rank := rng.Intn(n)
	// 2×mttf overflows int64 for mttf > MaxInt64/2 (Int63n would then be
	// handed a negative bound and panic, or a wrapped positive one and
	// draw from the wrong window); clamp the window to the representable
	// range.
	span := int64(mttf)
	if span > math.MaxInt64/2 {
		span = math.MaxInt64
	} else {
		span *= 2
	}
	offset := vclock.Duration(rng.Int63n(span))
	at := start.Add(offset)
	if at < start {
		// start + offset overflowed Time; saturate below "fail never".
		at = vclock.Never - 1
	}
	return Injection{Rank: rank, At: at}
}

// PoissonSchedule draws a multi-failure schedule for one application run:
// failures arrive as a Poisson process at system rate 1/MTTF within
// [start, start+horizon), each striking a uniformly drawn rank. A rank is
// struck at most once (repeat draws keep the earliest hit — a dead
// process cannot die again within a run), and the draw stops early once
// every rank has failed. This is the multi-failure generalisation of
// RandomFailure that replication experiments need: a single failure per
// run can never exhaust an r ≥ 2 replica group, so the one-failure model
// would make replication trivially unbeatable.
func PoissonSchedule(rng *rand.Rand, n int, mttf, horizon vclock.Duration, start vclock.Time) Schedule {
	if n <= 0 {
		panic(fmt.Sprintf("fault: invalid rank count %d", n))
	}
	if mttf <= 0 {
		panic(fmt.Sprintf("fault: invalid MTTF %v", mttf))
	}
	if horizon <= 0 {
		return nil
	}
	end := start.Add(horizon)
	if end < start {
		end = vclock.Never - 1
	}
	struck := make(map[int]bool, 4)
	var out Schedule
	t := start
	for len(struck) < n {
		gap := mttf.Seconds() * rng.ExpFloat64()
		if ns := gap * 1e9; math.IsInf(ns, 0) || ns >= float64(math.MaxInt64) {
			break
		}
		next := t.Add(vclock.FromSeconds(gap))
		if next < t || next >= end {
			break
		}
		t = next
		rank := rng.Intn(n)
		if struck[rank] {
			continue
		}
		struck[rank] = true
		out = append(out, Injection{Rank: rank, At: t})
	}
	return out
}

// Campaign generates failures for repeated application runs
// deterministically: run i of a campaign with base seed s uses an rng
// seeded with s+i, so experiments are repeatable (the paper stresses that
// the simulator and application are deterministic and experiments
// repeatable).
type Campaign struct {
	// Seed is the base seed.
	Seed int64
	// Ranks is the world size.
	Ranks int
	// MTTF is the system mean-time-to-failure (zero disables injection).
	MTTF vclock.Duration
}

// ForRun returns the failure schedule of the campaign's run-th application
// run (0-based) starting at virtual time start: one random failure per
// run, or none when MTTF is zero.
func (c Campaign) ForRun(run int, start vclock.Time) Schedule {
	if c.MTTF <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed + int64(run)))
	return Schedule{RandomFailure(rng, c.Ranks, c.MTTF, start)}
}
