package daly

import (
	"math"
	"testing"
	"testing/quick"

	"xsim/internal/vclock"
)

func params() Params {
	return Params{
		Solve:   5248 * vclock.Second,
		Delta:   60 * vclock.Second,
		Restart: 0,
		MTTF:    6000 * vclock.Second,
	}
}

func TestValidate(t *testing.T) {
	if err := params().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Params){
		func(p *Params) { p.Solve = 0 },
		func(p *Params) { p.Delta = -1 },
		func(p *Params) { p.Restart = -1 },
		func(p *Params) { p.MTTF = 0 },
	} {
		p := params()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("Validate(%+v) should fail", p)
		}
	}
}

func TestFirstOrderOptimum(t *testing.T) {
	p := params()
	// sqrt(2·60·6000) − 60 = sqrt(720000) − 60 ≈ 788.5 s.
	got := p.OptimalIntervalFirstOrder().Seconds()
	want := math.Sqrt(2*60*6000) - 60
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("first-order optimum = %v, want %v", got, want)
	}
}

func TestHigherOrderAboveFirstOrder(t *testing.T) {
	p := params()
	ho := p.OptimalInterval().Seconds()
	fo := p.OptimalIntervalFirstOrder().Seconds()
	if ho <= fo {
		t.Fatalf("higher-order %v should exceed first-order %v", ho, fo)
	}
	// The correction is small for δ << M.
	if ho > fo*1.2 {
		t.Fatalf("higher-order %v unreasonably far from first-order %v", ho, fo)
	}
}

func TestOptimalIntervalDegenerate(t *testing.T) {
	p := params()
	p.Delta = 3 * p.MTTF // δ >= 2M: checkpointing every MTTF
	if got := p.OptimalInterval(); got != p.MTTF {
		t.Fatalf("degenerate optimum = %v, want MTTF", got)
	}
}

func TestExpectedRuntimeMinimumNearOptimum(t *testing.T) {
	p := params()
	opt := p.OptimalInterval()
	rOpt := p.ExpectedRuntime(opt)
	// The optimum beats intervals substantially away from it on both
	// sides.
	for _, tau := range []vclock.Duration{opt / 4, opt * 4} {
		if r := p.ExpectedRuntime(tau); r <= rOpt {
			t.Errorf("runtime at %v (%v) should exceed runtime at optimum %v (%v)", tau, r, opt, rOpt)
		}
	}
	// And a fine sweep finds no interval more than marginally better.
	for tau := opt / 2; tau <= opt*2; tau += opt / 20 {
		if r := p.ExpectedRuntime(tau); r < rOpt-rOpt/100 {
			t.Errorf("sweep found %v at %v, below optimum %v", r, tau, rOpt)
		}
	}
}

func TestExpectedRuntimeAboveSolve(t *testing.T) {
	p := params()
	f := func(tauSecs uint16) bool {
		tau := vclock.Duration(tauSecs%5000+1) * vclock.Second
		return p.ExpectedRuntime(tau) > p.Solve
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedRuntimeZeroTau(t *testing.T) {
	p := params()
	if p.ExpectedRuntime(0) != vclock.Duration(math.MaxInt64) {
		t.Fatal("zero interval should be infinitely bad")
	}
}

func TestShorterMTTFShortensOptimum(t *testing.T) {
	p := params()
	long := p.OptimalInterval()
	p.MTTF = 3000 * vclock.Second
	short := p.OptimalInterval()
	if short >= long {
		t.Fatalf("optimum at MTTF 3000 (%v) should be below optimum at 6000 (%v)", short, long)
	}
}

func TestOptimalIntervalFirstOrderClampsAtHugeDelta(t *testing.T) {
	// The unclamped Young formula sqrt(2δM)−δ goes non-positive once
	// δ ≥ 2M; both optima must fall back to MTTF there instead of
	// returning a negative (unusable) interval.
	p := params()
	p.Delta = 2 * p.MTTF
	if got := p.OptimalIntervalFirstOrder(); got != p.MTTF {
		t.Fatalf("at delta=2M first-order optimum = %v, want MTTF %v", got, p.MTTF)
	}
	p.Delta = 3 * p.MTTF
	if got := p.OptimalIntervalFirstOrder(); got != p.MTTF {
		t.Fatalf("at delta=3M first-order optimum = %v, want MTTF %v", got, p.MTTF)
	}
	// Just inside the valid region the formula is positive and finite.
	p.Delta = 2*p.MTTF - vclock.Second
	if got := p.OptimalIntervalFirstOrder(); got <= 0 {
		t.Fatalf("just below the clamp boundary the optimum should stay positive, got %v", got)
	}
}
