package redundancy

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"xsim/internal/core"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// This file runs replicated-messaging scenarios as per-rank scripts in
// both execution modes: a closure VP calls the blocking Send and Recv, a
// program VP their step forms SendStep and RecvStep from its Step. Each
// rank logs what its calls returned, so the two forms can be held to the
// same results and the same per-rank clocks at every worker count.

// rankState is one rank's script state: its replicated communicator, the
// states the step forms park in, and its log.
type rankState struct {
	c    *Comm
	send SendState
	recv RecvState
	log  *[]string
}

// op is one call of a script in both forms: run blocks on a closure VP;
// step advances it on a program VP and reports done == false with the
// value to park on.
type op struct {
	run  func(e *mpi.Env, s *rankState)
	step func(e *mpi.Env, s *rankState) (done bool, park any)
}

func elapse(d vclock.Duration) op {
	f := func(e *mpi.Env, _ *rankState) { e.Elapse(d) }
	return op{run: f, step: func(e *mpi.Env, s *rankState) (bool, any) { f(e, s); return true, nil }}
}

// send logs how a replicated send of data to logical rank dst ended.
func send(dst, tag int, data []byte) op {
	return op{
		run: func(_ *mpi.Env, s *rankState) {
			*s.log = append(*s.log, fmt.Sprintf("send to %d: %v", dst, s.c.Send(dst, tag, data)))
		},
		step: func(_ *mpi.Env, s *rankState) (bool, any) {
			done, park, err := s.c.SendStep(&s.send, dst, tag, data)
			if done {
				*s.log = append(*s.log, fmt.Sprintf("send to %d: %v", dst, err))
			}
			return done, park
		},
	}
}

// recv logs the copy a replicated receive from logical rank src returned,
// and its error with the replicas a vote blamed.
func recv(src, tag int) op {
	end := func(s *rankState, msg *mpi.Message, err error) {
		var data []byte
		if msg != nil {
			data = msg.Data
		}
		line := fmt.Sprintf("recv from %d: %q %v", src, data, err)
		if sdc := (*SDCError)(nil); errors.As(err, &sdc) {
			line += fmt.Sprintf(" corrupt=%#v", sdc.Corrupt)
		}
		*s.log = append(*s.log, line)
		msg.Release()
	}
	return op{
		run: func(_ *mpi.Env, s *rankState) { msg, err := s.c.Recv(src, tag); end(s, msg, err) },
		step: func(_ *mpi.Env, s *rankState) (bool, any) {
			done, park, msg, err := s.c.RecvStep(&s.recv, src, tag)
			if done {
				end(s, msg, err)
			}
			return done, park
		},
	}
}

// scriptProg steps a rank's script on a program VP.
type scriptProg struct {
	r    int
	ops  func(c *Comm) []op
	todo []op
	s    rankState
}

func (p *scriptProg) Step(e *mpi.Env, _ any) (any, bool) {
	if p.s.c == nil {
		c, err := WrapN(e, p.r)
		if err != nil {
			panic(err)
		}
		p.s.c, p.todo = c, p.ops(c)
	}
	for ; len(p.todo) > 0; p.todo = p.todo[1:] {
		if done, park := p.todo[0].step(e, &p.s); !done {
			return park, false
		}
	}
	e.Finalize()
	return nil, true
}

// scenario is a world of logical×r ranks built by replicatedWorld, a
// failure schedule, and each rank's script, built from its replicated
// communicator.
type scenario struct {
	logical, r int
	failures   map[int]vclock.Time
	script     func(c *Comm) []op
}

// run executes the scenario through the blocking forms on closure VPs or
// through the step forms on program VPs, and returns the result and every
// rank's log.
func (sc scenario) run(t *testing.T, prog bool, workers int) (*core.Result, [][]string) {
	t.Helper()
	w := replicatedWorld(t, sc.logical, sc.r, workers, sc.failures)
	logs := make([][]string, sc.logical*sc.r)
	var res *core.Result
	var err error
	if prog {
		res, err = w.RunProgs(func(rank int) mpi.Prog {
			return &scriptProg{r: sc.r, ops: sc.script, s: rankState{log: &logs[rank]}}
		})
	} else {
		res, err = w.Run(func(e *mpi.Env) {
			c, err := WrapN(e, sc.r)
			if err != nil {
				panic(err)
			}
			s := rankState{c: c, log: &logs[e.Rank()]}
			for _, o := range sc.script(c) {
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

// expect runs the scenario through the blocking forms and the step forms
// at Workers 1 and 2. It requires the named world ranks to log want in
// the blocking run at Workers 1, and every other run to match that one:
// the same logs and, per rank, the same final clock, death, busy and
// waited time. It returns that reference run.
func (sc scenario) expect(t *testing.T, want map[int][]string) *core.Result {
	t.Helper()
	ref, refLogs := sc.run(t, false, 1)
	for rank, w := range want {
		if !slices.Equal(refLogs[rank], w) {
			t.Errorf("rank %d logged\n%q\nwant\n%q", rank, refLogs[rank], w)
		}
	}
	for _, prog := range []bool{false, true} {
		for _, workers := range []int{1, 2} {
			res, logs := sc.run(t, prog, workers)
			if !reflect.DeepEqual(logs, refLogs) {
				t.Errorf("prog=%v workers=%d logs\n%q\nwant (blocking, workers=1)\n%q", prog, workers, logs, refLogs)
			}
			for r := range res.FinalClocks {
				if res.FinalClocks[r] != ref.FinalClocks[r] || res.Deaths[r] != ref.Deaths[r] ||
					res.Busy[r] != ref.Busy[r] || res.Waited[r] != ref.Waited[r] {
					t.Errorf("prog=%v workers=%d rank %d: clock %v death %v busy %v waited %v, want %v %v %v %v",
						prog, workers, r, res.FinalClocks[r], res.Deaths[r], res.Busy[r], res.Waited[r],
						ref.FinalClocks[r], ref.Deaths[r], ref.Busy[r], ref.Waited[r])
				}
			}
		}
	}
	return ref
}

// closureOnlyProg calls one blocking replicated operation from a program
// VP and records, per rank, what the call panicked with (nil if it
// returned). Only a *mpi.ClosureOnlyError is swallowed; simulator unwinds
// pass through.
type closureOnlyProg struct {
	call func(c *Comm) error
	got  []any
}

func (p closureOnlyProg) Step(e *mpi.Env, _ any) (any, bool) {
	c, err := WrapN(e, 2)
	if err != nil {
		panic(err)
	}
	if c.Logical() == 0 && c.Replica() == 0 {
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(*mpi.ClosureOnlyError); r != nil && !ok {
					panic(r)
				}
				p.got[e.Rank()] = r
			}()
			if err := p.call(c); err != nil {
				p.got[e.Rank()] = err
			}
		}()
	}
	e.Finalize()
	return nil, true
}

// TestBlockingFormsOnProgramVPPanicTyped pins Env.Block's refusal for the
// replicated operations: a blocking Send or Recv that has to park on a
// program VP surfaces a *mpi.ClosureOnlyError naming the world operation
// it parked in and the rank, and one that finishes without parking (an
// eager send) works.
func TestBlockingFormsOnProgramVPPanicTyped(t *testing.T) {
	for _, tc := range []struct {
		name   string
		call   func(c *Comm) error
		wantOp string // substring of ClosureOnlyError.Op; "" = the call must succeed
	}{
		{"recv", func(c *Comm) error { _, err := c.Recv(1, 0); return err }, "MPI wait: recv from 1 tag 0"},
		{"rendezvous-send", func(c *Comm) error { return c.Send(1, 0, make([]byte, 512<<10)) }, "MPI wait: send to 1 tag 0"},
		{"eager-send", func(c *Comm) error { return c.Send(1, 0, []byte("x")) }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			w := replicatedWorld(t, 2, 2, 1, nil)
			got := make([]any, n)
			res, err := w.RunProgs(func(int) mpi.Prog { return closureOnlyProg{call: tc.call, got: got} })
			if err != nil || res.Completed != n {
				t.Fatalf("run: %v, %+v", err, res)
			}
			if tc.wantOp == "" {
				if got[0] != nil {
					t.Fatalf("call that need not park ended in %v", got[0])
				}
				return
			}
			coe, ok := got[0].(*mpi.ClosureOnlyError)
			if !ok {
				t.Fatalf("rank 0 got %#v, want a *mpi.ClosureOnlyError", got[0])
			}
			if coe.Rank != 0 || !strings.Contains(coe.Op, tc.wantOp) {
				t.Errorf("ClosureOnlyError{Op: %q, Rank: %d}, want rank 0 and an op containing %q", coe.Op, coe.Rank, tc.wantOp)
			}
		})
	}
}
