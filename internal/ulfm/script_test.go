package ulfm

import (
	"fmt"
	"reflect"
	"testing"

	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// This file runs ULFM scenarios as per-rank scripts in both execution
// modes: a closure VP calls the blocking entry points (Comm.Shrink,
// Comm.Agree, ...), a program VP their step forms (ShrinkStep, AgreeStep,
// ...) from its Step. Each rank logs what its calls returned, so the two
// modes can be held to the same decisions and the same per-rank clocks at
// every worker count.

// scriptState is one rank's script state: its current communicator, the
// states the step forms park in, and its log.
type scriptState struct {
	c     *mpi.Comm
	sleep mpi.SleepState
	recv  mpi.RecvState
	coll  mpi.CollectiveState
	armed bool // coll holds an allreduce in progress
	log   *[]string
}

func (s *scriptState) logf(format string, args ...any) {
	*s.log = append(*s.log, fmt.Sprintf(format, args...))
}

// op is one call of a script in both forms: run blocks on a closure VP;
// step advances it on a program VP and reports done == false with the
// value to park on.
type op struct {
	run  func(e *mpi.Env, s *scriptState)
	step func(e *mpi.Env, s *scriptState) (done bool, park any)
}

// local is an op that never parks.
func local(f func(e *mpi.Env, s *scriptState)) op {
	return op{run: f, step: func(e *mpi.Env, s *scriptState) (bool, any) { f(e, s); return true, nil }}
}

func elapse(d vclock.Duration) op { return local(func(e *mpi.Env, _ *scriptState) { e.Elapse(d) }) }

func revoke() op { return local(func(_ *mpi.Env, s *scriptState) { s.c.Revoke() }) }

func sleep(d vclock.Duration) op {
	return op{
		run:  func(e *mpi.Env, _ *scriptState) { e.Sleep(d) },
		step: func(e *mpi.Env, s *scriptState) (bool, any) { return e.SleepStep(&s.sleep, d) },
	}
}

// recv logs how a receive from src with tag ended.
func recv(src, tag int) op {
	end := func(s *scriptState, msg *mpi.Message, err error) {
		msg.Release()
		s.logf("recv from %d: %v", src, err)
	}
	return op{
		run: func(_ *mpi.Env, s *scriptState) { msg, err := s.c.Recv(src, tag); end(s, msg, err) },
		step: func(_ *mpi.Env, s *scriptState) (bool, any) {
			done, park, msg, err := s.c.RecvStep(&s.recv, src, tag)
			if done {
				end(s, msg, err)
			}
			return done, park
		},
	}
}

// shrink moves the rank onto the shrunk communicator and logs its
// membership.
func shrink() op {
	end := func(s *scriptState, c *mpi.Comm, err error) {
		if err != nil {
			s.logf("shrink: %v", err)
			return
		}
		c.SetErrorHandler(mpi.ErrorsReturn)
		s.c = c
		s.logf("shrink: %v", c.Group())
	}
	return op{
		run: func(_ *mpi.Env, s *scriptState) { c, err := s.c.Shrink(); end(s, c, err) },
		step: func(_ *mpi.Env, s *scriptState) (bool, any) {
			done, park, c, err := s.c.ShrinkStep(&s.coll)
			if done {
				end(s, c, err)
			}
			return done, park
		},
	}
}

// agree logs the flags an Agree on flag returned.
func agree(flag uint32) op {
	return op{
		run: func(_ *mpi.Env, s *scriptState) {
			got, err := s.c.Agree(flag)
			s.logf("agree: %04b %v", got, err)
		},
		step: func(_ *mpi.Env, s *scriptState) (bool, any) {
			done, park, got, err := s.c.AgreeStep(&s.coll, flag)
			if done {
				s.logf("agree: %04b %v", got, err)
			}
			return done, park
		},
	}
}

// allreduce logs the sum of one per member.
func allreduce() op {
	return op{
		run: func(_ *mpi.Env, s *scriptState) {
			sum, err := s.c.Allreduce([]float64{1}, mpi.OpSum)
			s.logf("allreduce: %v %v", sum, err)
		},
		step: func(_ *mpi.Env, s *scriptState) (bool, any) {
			if !s.armed {
				s.coll.BeginAllreduce([]float64{1}, mpi.OpSum)
				s.armed = true
			}
			done, park, err := s.c.CollectiveStep(&s.coll)
			if done {
				s.armed = false
				s.logf("allreduce: %v %v", s.coll.Floats(), err)
			}
			return done, park
		},
	}
}

// scriptProg steps a rank's script on a program VP.
type scriptProg struct {
	ops  []op
	next int
	s    scriptState
}

func (p *scriptProg) Step(e *mpi.Env, _ any) (any, bool) {
	if p.s.c == nil {
		p.s.c = e.World()
		p.s.c.SetErrorHandler(mpi.ErrorsReturn)
	}
	for ; p.next < len(p.ops); p.next++ {
		if done, park := p.ops[p.next].step(e, &p.s); !done {
			return park, false
		}
	}
	e.Finalize()
	return nil, true
}

// scenario is a world of n ranks (the testWorld network on the windowed
// engine), a failure schedule, and each rank's script.
type scenario struct {
	n        int
	failures fault.Schedule
	script   func(rank int) []op
}

// run executes the scenario on closure VPs or program VPs and returns the
// result and every rank's log.
func (sc scenario) run(t *testing.T, prog bool, workers int) (*core.Result, [][]string) {
	t.Helper()
	w := parallelWorld(t, sc.n, workers, sc.failures)
	logs := make([][]string, sc.n)
	var res *core.Result
	var err error
	if prog {
		res, err = w.RunProgs(func(rank int) mpi.Prog {
			return &scriptProg{ops: sc.script(rank), s: scriptState{log: &logs[rank]}}
		})
	} else {
		res, err = w.Run(func(e *mpi.Env) {
			s := scriptState{c: e.World(), log: &logs[e.Rank()]}
			s.c.SetErrorHandler(mpi.ErrorsReturn)
			for _, o := range sc.script(e.Rank()) {
				o.run(e, &s)
			}
			e.Finalize()
		})
	}
	if err != nil || res.Deadlocked {
		t.Fatalf("prog=%v workers=%d: %v (blocked: %v)", prog, workers, err, res.Blocked)
	}
	return res, logs
}

// matchBothModes runs the scenario in closure and program mode at Workers
// 1 and 2 and requires every run to match the closure run at Workers 1:
// the same logs and, per rank, the same final clock, death, busy and
// waited time. It returns that reference run.
func (sc scenario) matchBothModes(t *testing.T) (*core.Result, [][]string) {
	t.Helper()
	ref, refLogs := sc.run(t, false, 1)
	for _, prog := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			res, logs := sc.run(t, prog, workers)
			if !reflect.DeepEqual(logs, refLogs) {
				t.Errorf("prog=%v workers=%d logs\n%q\nwant (closure, workers=1)\n%q", prog, workers, logs, refLogs)
			}
			for r := 0; r < sc.n; r++ {
				if res.FinalClocks[r] != ref.FinalClocks[r] || res.Deaths[r] != ref.Deaths[r] ||
					res.Busy[r] != ref.Busy[r] || res.Waited[r] != ref.Waited[r] {
					t.Errorf("prog=%v workers=%d rank %d: clock %v death %v busy %v waited %v, want %v %v %v %v",
						prog, workers, r, res.FinalClocks[r], res.Deaths[r], res.Busy[r], res.Waited[r],
						ref.FinalClocks[r], ref.Deaths[r], ref.Busy[r], ref.Waited[r])
				}
			}
		}
	}
	return ref, refLogs
}

// splitRoot is the split-root schedule on the 4-rank world: rank 0
// computes in 100 µs steps and fails at 1 ms (its notice lands at
// 1.001 ms). Survivor r computes for compute[r], which hides the notice
// from it, then sleeps for nap[r], which shows it, then runs exchange(r).
func splitRoot(compute, nap [4]vclock.Duration, exchange func(rank int) op) scenario {
	return scenario{
		n:        4,
		failures: fault.Schedule{{Rank: 0, At: vclock.Time(vclock.Millisecond)}},
		script: func(rank int) []op {
			if rank == 0 {
				ops := make([]op, 20)
				for i := range ops {
					ops[i] = elapse(100 * vclock.Microsecond)
				}
				return ops
			}
			return []op{elapse(compute[rank]), sleep(nap[rank]), exchange(rank)}
		},
	}
}

// splitFlag is survivor r's Agree flag: all bits but bit r, so the
// survivors 1–3 agree on 0001.
func splitFlag(r int) uint32 { return 0b1111 &^ (1 << r) }

// TestSplitRootReelects pins the survivor exchange when survivors learn of
// the lowest rank's death at different instants. In "split", rank 1
// enters at 1 ms, before the notice, and elects dead rank 0, while ranks 2
// and 3 sleep through the notice and elect rank 1; in "all-late" every
// survivor computes through the notice and elects rank 0. A member whose
// root fails it deposes that root and elects again, so every survivor
// ends on the 3-rank communicator, or with the AND of the survivors'
// flags, at the time pinned here — in both modes, at Workers 1 and 2 —
// instead of an error at rank 1 and a deadlock of ranks 2 and 3.
func TestSplitRootReelects(t *testing.T) {
	const ms = vclock.Millisecond
	variants := []struct {
		name         string
		compute, nap [4]vclock.Duration
	}{
		{"split", [4]vclock.Duration{1: ms}, [4]vclock.Duration{2: 2 * ms, 3: 2 * ms}},
		{"all-late", [4]vclock.Duration{1: 2 * ms, 2: 2 * ms, 3: 2 * ms}, [4]vclock.Duration{}},
	}
	exchanges := []struct {
		name string
		op   func(rank int) op
		log  string
	}{
		{"shrink", func(int) op { return shrink() }, "shrink: [1 2 3]"},
		{"agree", func(r int) op { return agree(splitFlag(r)) }, "agree: 0001 <nil>"},
	}
	// The last survivor's end: the root's detection of rank 0 (at 11 or
	// 12 ms), the re-election's hops, and the decision's transfer.
	end := map[string]vclock.Time{
		"split/shrink":    11_001_036,
		"split/agree":     11_001_012,
		"all-late/shrink": 12_002_040,
		"all-late/agree":  12_002_016,
	}
	for _, v := range variants {
		for _, ex := range exchanges {
			name := v.name + "/" + ex.name
			t.Run(name, func(t *testing.T) {
				res, logs := splitRoot(v.compute, v.nap, ex.op).matchBothModes(t)
				if res.Failed != 1 || res.Completed != 3 {
					t.Fatalf("result = %+v", res)
				}
				for r := 1; r < 4; r++ {
					if want := []string{ex.log}; !reflect.DeepEqual(logs[r], want) {
						t.Errorf("rank %d logged %q, want %q", r, logs[r], want)
					}
				}
				if res.MaxClock != end[name] {
					t.Errorf("survivors done at %d ns, want %d", res.MaxClock, end[name])
				}
			})
		}
	}
}

// TestStepFormsMatchClosure runs the scenarios of
// TestShrinkExcludesFailedRank and TestAgreeAcrossFailure through
// ShrinkStep/AgreeStep on program VPs and Shrink/Agree on closure VPs.
func TestStepFormsMatchClosure(t *testing.T) {
	t.Run("shrink", func(t *testing.T) {
		const dead = 2
		sc := scenario{
			n:        5,
			failures: fault.Schedule{{Rank: dead, At: vclock.Time(vclock.Millisecond)}},
			script: func(rank int) []op {
				switch rank {
				case dead:
					return []op{elapse(vclock.Hour)}
				case 0:
					return []op{recv(dead, 0), revoke(), shrink(), allreduce()}
				}
				return []op{recv(0, 99), shrink(), allreduce()}
			},
		}
		_, logs := sc.matchBothModes(t)
		for r, log := range logs {
			if r == dead {
				continue
			}
			if n := len(log); n != 3 || log[1] != "shrink: [0 1 3 4]" || log[2] != "allreduce: [4] <nil>" {
				t.Errorf("rank %d logged %q", r, log)
			}
		}
	})
	t.Run("agree", func(t *testing.T) {
		const dead = 3
		sc := scenario{
			n:        4,
			failures: fault.Schedule{{Rank: dead, At: 0}},
			script: func(rank int) []op {
				if rank == dead {
					return []op{elapse(vclock.Hour)}
				}
				flag := uint32(0b111)
				if rank == 1 {
					flag = 0b101
				}
				return []op{sleep(vclock.Millisecond), agree(flag)}
			},
		}
		_, logs := sc.matchBothModes(t)
		for r, log := range logs[:dead] {
			if want := []string{"agree: 0101 <nil>"}; !reflect.DeepEqual(log, want) {
				t.Errorf("rank %d logged %q, want %q", r, log, want)
			}
		}
	})
}
