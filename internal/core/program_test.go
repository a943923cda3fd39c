package core

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xsim/internal/vclock"
)

// pingProg is a two-phase program: rank 0 elapses and pings rank 1; rank 1
// parks until the ping arrives, then records the wake payload and clock.
type pingProg struct {
	t       *testing.T
	phase   int
	got     *any
	gotTime *vclock.Time
}

func (p *pingProg) Step(c *Ctx, wake any) (any, bool) {
	switch c.Rank() {
	case 0:
		c.Elapse(vclock.Second)
		c.Emit(Event{Time: c.Now().Add(vclock.Millisecond), Kind: kindPing, Target: 1, Words: [EventWords]uint64{42}})
		return nil, true
	default:
		if p.phase == 0 {
			p.phase = 1
			return "waiting for ping", false
		}
		*p.got = wake
		*p.gotTime = c.Now()
		return nil, true
	}
}

func TestProgramPingMatchesClosure(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	registerPing(eng)
	var got any
	var gotClock vclock.Time
	res, err := eng.RunPrograms(func(c *Ctx) Program {
		return &pingProg{t: t, got: &got, gotTime: &gotClock}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != uint64(42) {
		t.Fatalf("woken with %v, want the event's first word 42", got)
	}
	if want := vclock.TimeFromSeconds(1.001); gotClock != want {
		t.Fatalf("wake clock = %v, want %v", gotClock, want)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d", res.Completed)
	}
	m := eng.Metrics()
	if m.ProgramSteps == 0 {
		t.Fatal("ProgramSteps = 0 for a program run")
	}
	if m.CarriersSpawned != 0 {
		t.Fatalf("CarriersSpawned = %d for a program run (programs own no goroutine)", m.CarriersSpawned)
	}
}

// elapseProg elapses rank+1 seconds and completes — the program analogue
// of TestIndependentClocks' closure body.
type elapseProg struct{}

func (elapseProg) Step(c *Ctx, wake any) (any, bool) {
	c.Elapse(vclock.Duration(c.Rank()+1) * vclock.Second)
	return nil, true
}

func TestProgramClocksMatchClosureRun(t *testing.T) {
	body := func(c *Ctx) { c.Elapse(vclock.Duration(c.Rank()+1) * vclock.Second) }
	closure := newTestEngine(t, Config{NumVPs: 8})
	cres, err := closure.Run(body)
	if err != nil {
		t.Fatal(err)
	}
	prog := newTestEngine(t, Config{NumVPs: 8})
	pres, err := prog.RunPrograms(func(*Ctx) Program { return elapseProg{} })
	if err != nil {
		t.Fatal(err)
	}
	for r := range cres.FinalClocks {
		if cres.FinalClocks[r] != pres.FinalClocks[r] || cres.Deaths[r] != pres.Deaths[r] {
			t.Fatalf("rank %d: closure (%v, %v) vs program (%v, %v)",
				r, cres.FinalClocks[r], cres.Deaths[r], pres.FinalClocks[r], pres.Deaths[r])
		}
	}
}

// parkForever parks on the first step and never expects a resume.
type parkForever struct{ reason string }

func (p *parkForever) Step(c *Ctx, wake any) (any, bool) {
	return p.reason, false
}

func TestProgramDeadlockReportsParkedVPs(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 3})
	_, err := eng.RunPrograms(func(c *Ctx) Program {
		return &parkForever{reason: "waiting for a message that never comes"}
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	for _, want := range []string{"rank 0", "rank 2", "waiting for a message that never comes"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock report missing %q:\n%s", want, err)
		}
	}
}

// blockingProg illegally calls Ctx.Block from a program step.
type blockingProg struct{}

func (blockingProg) Step(c *Ctx, wake any) (any, bool) {
	c.Block("illegal")
	return nil, true
}

func TestProgramBlockPanicsWithDiagnostic(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 1})
	_, err := eng.RunPrograms(func(*Ctx) Program { return blockingProg{} })
	if err == nil || !strings.Contains(err.Error(), "called Block from a program VP") {
		t.Fatalf("err = %v, want the program-Block diagnostic", err)
	}
}

// failProg fails rank 0 immediately and completes everyone else.
type failProg struct{}

func (failProg) Step(c *Ctx, wake any) (any, bool) {
	if c.Rank() == 0 {
		c.FailNow()
	}
	return nil, true
}

func TestProgramDeathClassification(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 2})
	var deaths []DeathReason
	eng.OnDeath(func(c *Ctx, r DeathReason) { deaths = append(deaths, r) })
	res, err := eng.RunPrograms(func(*Ctx) Program { return failProg{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("failed/completed = %d/%d", res.Failed, res.Completed)
	}
	if len(deaths) != 2 {
		t.Fatalf("death hook ran %d times", len(deaths))
	}
}

func TestProgramCancelLeavesNoLiveState(t *testing.T) {
	eng := newTestEngine(t, Config{NumVPs: 16})
	eng.Cancel()
	_, err := eng.RunPrograms(func(*Ctx) Program {
		return &parkForever{reason: "parked at cancel"}
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if m := eng.Metrics(); m.CarriersLive != 0 {
		t.Fatalf("CarriersLive = %d after teardown", m.CarriersLive)
	}
}

// TestRunToCompletionVPsHoldOneCarrierAtATime runs bodies that never park:
// each VP's carrier is created at its first resume and exits when the body
// returns, before the partition resumes the next VP, so the world starts
// one carrier per VP but never holds two at once.
func TestRunToCompletionVPsHoldOneCarrierAtATime(t *testing.T) {
	const n = 64
	eng := newTestEngine(t, Config{NumVPs: n})
	res, err := eng.Run(func(c *Ctx) { c.Elapse(vclock.Second) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d", res.Completed)
	}
	m := eng.Metrics()
	if m.CarriersSpawned != n {
		t.Fatalf("CarriersSpawned = %d, want %d", m.CarriersSpawned, n)
	}
	if m.CarriersHighWater != 1 {
		t.Fatalf("CarriersHighWater = %d, want 1", m.CarriersHighWater)
	}
	if m.CarriersLive != 0 {
		t.Fatalf("CarriersLive = %d after teardown", m.CarriersLive)
	}
}

func TestCancelMidWindowLeavesNoCarriers(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		eng := newTestEngine(t, Config{NumVPs: 8, Workers: workers, Lookahead: vclock.Millisecond})
		registerPing(eng)
		started := make(chan struct{}, 8)
		_, err := eng.Run(func(c *Ctx) {
			select {
			case started <- struct{}{}:
				eng.Cancel()
			default:
			}
			c.Block("cancelled mid-window")
		})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: err = %v, want ErrStopped", workers, err)
		}
		if m := eng.Metrics(); m.CarriersLive != 0 {
			t.Fatalf("workers=%d: CarriersLive = %d after teardown", workers, m.CarriersLive)
		}
	}
}

// TestRoundSyncMatchesFlatScan drives the round barrier with concurrent
// workers across several widths, alternating fold rounds with
// fold-ignoring rounds as workerLoop does, and checks every worker leaves
// each fold round with the global minimum and derives exactly the
// min-over-others a per-worker flat scan would compute.
func TestRoundSyncMatchesFlatScan(t *testing.T) {
	const rounds = 50
	rng := rand.New(rand.NewSource(42))
	for n := 1; n <= 33; n++ {
		vals := make([][]vclock.Time, rounds)
		for r := range vals {
			vals[r] = make([]vclock.Time, n)
			for i := range vals[r] {
				if rng.Intn(4) == 0 {
					vals[r][i] = vclock.Never
				} else {
					vals[r][i] = vclock.Time(rng.Intn(8)) // dense: force ties
				}
			}
		}
		var s roundSync
		s.init(n)
		got := make([][]minTriple, n)
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func(id int) {
				defer wg.Done()
				got[id] = make([]minTriple, rounds)
				for r := 0; r < rounds; r++ {
					got[id][r] = s.arrive(id, vals[r][id])
					s.arrive(id, vclock.Never) // the exchange pass
				}
			}(i)
		}
		wg.Wait()
		for r := 0; r < rounds; r++ {
			flatMin := vclock.Never
			for _, v := range vals[r] {
				if v < flatMin {
					flatMin = v
				}
			}
			for id := 0; id < n; id++ {
				g := got[id][r]
				if g.min1 != flatMin {
					t.Fatalf("n=%d round=%d worker %d: min1 = %v, want %v (vals %v)", n, r, id, g.min1, flatMin, vals[r])
				}
				flatOther := vclock.Never
				for j, v := range vals[r] {
					if j != id && v < flatOther {
						flatOther = v
					}
				}
				other := g.min1
				if g.arg1 == id {
					other = g.min2
				}
				if other != flatOther {
					t.Fatalf("n=%d round=%d worker %d: derived otherMin = %v, want %v (triple %+v, vals %v)",
						n, r, id, other, flatOther, g, vals[r])
				}
			}
		}
	}
}
