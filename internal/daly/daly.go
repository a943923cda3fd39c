// Package daly implements the checkpoint-interval optimisation model of
// J. T. Daly ("A higher order estimate of the optimum checkpoint interval
// for restart dumps", FGCS 2006) — the reference the paper cites for the
// standard practice of modelling checkpoint/restart. It predicts the
// expected completion time of an application under periodic checkpointing
// with a given system MTTF, and the interval minimising it; the simulator's
// interval sweeps can be compared directly against these predictions.
package daly

import (
	"fmt"
	"math"

	"xsim/internal/vclock"
)

// Params describes one checkpoint/restart scenario.
type Params struct {
	// Solve is the failure-free solve time (no checkpoints).
	Solve vclock.Duration
	// Delta is the cost of writing one checkpoint.
	Delta vclock.Duration
	// Restart is the cost of restarting after a failure (rework is
	// modelled separately by the formula).
	Restart vclock.Duration
	// MTTF is the system mean time to failure.
	MTTF vclock.Duration
}

// Validate reports a configuration error, if any.
func (p Params) Validate() error {
	if p.Solve <= 0 {
		return fmt.Errorf("daly: Solve must be positive")
	}
	if p.Delta < 0 || p.Restart < 0 {
		return fmt.Errorf("daly: Delta and Restart must be non-negative")
	}
	if p.MTTF <= 0 {
		return fmt.Errorf("daly: MTTF must be positive")
	}
	return nil
}

// OptimalIntervalFirstOrder returns Young's classic first-order optimum:
//
//	τ_opt = sqrt(2δM) − δ   for δ < 2M
//	τ_opt = M               otherwise
//
// The δ ≥ 2M fallback matches OptimalInterval: past that point the
// unclamped formula goes non-positive (a checkpoint costs more than it
// can ever save), which is not a usable interval.
func (p Params) OptimalIntervalFirstOrder() vclock.Duration {
	d := p.Delta.Seconds()
	m := p.MTTF.Seconds()
	if d >= 2*m {
		return p.MTTF
	}
	return vclock.FromSeconds(math.Sqrt(2*d*m) - d)
}

// OptimalInterval returns Daly's higher-order optimum:
//
//	τ_opt = sqrt(2δM)·[1 + (1/3)·sqrt(δ/2M) + (1/9)·(δ/2M)] − δ   for δ < 2M
//	τ_opt = M                                                      otherwise
func (p Params) OptimalInterval() vclock.Duration {
	d := p.Delta.Seconds()
	m := p.MTTF.Seconds()
	if d >= 2*m {
		return p.MTTF
	}
	x := d / (2 * m)
	tau := math.Sqrt(2*d*m)*(1+math.Sqrt(x)/3+x/9) - d
	return vclock.FromSeconds(tau)
}

// ExpectedRuntime returns Daly's expected completion wall time for
// checkpoint interval tau (compute time between checkpoints):
//
//	T(τ) = M · e^(R/M) · (e^((τ+δ)/M) − 1) · Ts/τ
//
// It accounts for checkpoint overhead, lost work, and restart costs under
// exponentially distributed failures.
func (p Params) ExpectedRuntime(tau vclock.Duration) vclock.Duration {
	if tau <= 0 {
		return vclock.Duration(math.MaxInt64)
	}
	m := p.MTTF.Seconds()
	t := m * math.Exp(p.Restart.Seconds()/m) *
		(math.Exp((tau.Seconds()+p.Delta.Seconds())/m) - 1) *
		p.Solve.Seconds() / tau.Seconds()
	if t >= float64(math.MaxInt64)/float64(vclock.Second) {
		return vclock.Duration(math.MaxInt64)
	}
	return vclock.FromSeconds(t)
}
