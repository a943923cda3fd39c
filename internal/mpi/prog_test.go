package mpi

import (
	"strings"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// runProgWorldErr mirrors runWorldErr for program mode.
func runProgWorldErr(t *testing.T, n, workers int, failures map[int]vclock.Time, newProg func(rank int) Prog, opts ...worldOpt) (*core.Result, error) {
	t.Helper()
	ecfg := core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond}
	cfg := WorldConfig{Net: testNet(n), Proc: procmodel.Paper()}
	for _, o := range opts {
		o(&ecfg, &cfg)
	}
	eng, err := core.New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range failures {
		if err := eng.ScheduleFailure(r, at); err != nil {
			t.Fatal(err)
		}
	}
	return w.RunProgs(newProg)
}

// heatProg is the halo-exchange state machine: the program-mode twin of
// the closure heat step (Irecv/Irecv/SendN/SendN/Waitall per step).
type heatProg struct {
	n, steps int
	step     int
	waiting  bool
	ws       WaitState
	rl, rr   *Request
}

func (p *heatProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	for {
		if !p.waiting {
			if p.step == p.steps {
				e.Finalize()
				return nil, true
			}
			left := (e.Rank() + p.n - 1) % p.n
			right := (e.Rank() + 1) % p.n
			var err error
			if p.rl, err = c.Irecv(left, 0); err != nil {
				return nil, true
			}
			if p.rr, err = c.Irecv(right, 0); err != nil {
				return nil, true
			}
			if err := c.SendN(left, 0, 512); err != nil {
				return nil, true
			}
			if err := c.SendN(right, 0, 512); err != nil {
				return nil, true
			}
			p.ws.Begin(p.rl, p.rr)
			p.waiting = true
		}
		done, park, err := c.WaitallStep(&p.ws)
		if !done {
			return park, false
		}
		if err != nil {
			e.Finalize()
			return nil, true
		}
		p.waiting = false
		p.step++
	}
}

// closureHeat is the goroutine-mode reference for the same exchange.
func closureHeat(n, steps int) func(*Env) {
	return func(e *Env) {
		c := e.World()
		left := (e.Rank() + n - 1) % n
		right := (e.Rank() + 1) % n
		for s := 0; s < steps; s++ {
			rl, err := c.Irecv(left, 0)
			if err != nil {
				return
			}
			rr, err := c.Irecv(right, 0)
			if err != nil {
				return
			}
			if err := c.SendN(left, 0, 512); err != nil {
				return
			}
			if err := c.SendN(right, 0, 512); err != nil {
				return
			}
			if err := c.Waitall([]*Request{rl, rr}); err != nil {
				e.Finalize()
				return
			}
		}
		e.Finalize()
	}
}

// TestProgHeatMatchesClosure checks the program execution mode is
// observationally identical to the goroutine mode on the dominant MPI
// shape: same per-rank final clocks, same death reasons, at one and at
// several workers.
func TestProgHeatMatchesClosure(t *testing.T) {
	const n, steps = 64, 3
	ref, err := runWorldErr(t, n, 1, nil, closureHeat(n, steps))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		got, err := runProgWorldErr(t, n, workers, nil, func(rank int) Prog {
			return &heatProg{n: n, steps: steps}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Completed != n {
			t.Fatalf("workers=%d: completed = %d", workers, got.Completed)
		}
		for r := range ref.FinalClocks {
			if ref.FinalClocks[r] != got.FinalClocks[r] || ref.Deaths[r] != got.Deaths[r] {
				t.Fatalf("workers=%d rank %d: closure (%v, %v) vs prog (%v, %v)",
					workers, r, ref.FinalClocks[r], ref.Deaths[r], got.FinalClocks[r], got.Deaths[r])
			}
		}
	}
}

// TestProgHeatWithFailureMatchesClosure injects a process failure and
// checks the detection path (armTimeout from waitStep, completion in
// error, error-handler abort) agrees between the modes.
func TestProgHeatWithFailureMatchesClosure(t *testing.T) {
	const n, steps = 16, 4
	failures := map[int]vclock.Time{5: vclock.TimeFromSeconds(0.00001)}
	ref, refErr := runWorldErr(t, n, 1, failures, closureHeat(n, steps))
	got, gotErr := runProgWorldErr(t, n, 1, failures, func(rank int) Prog {
		return &heatProg{n: n, steps: steps}
	})
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("closure err = %v, prog err = %v", refErr, gotErr)
	}
	if ref.Failed != got.Failed || ref.Aborted != got.Aborted || ref.Completed != got.Completed {
		t.Fatalf("closure %d/%d/%d vs prog %d/%d/%d (completed/failed/aborted)",
			ref.Completed, ref.Failed, ref.Aborted, got.Completed, got.Failed, got.Aborted)
	}
	for r := range ref.FinalClocks {
		if ref.FinalClocks[r] != got.FinalClocks[r] || ref.Deaths[r] != got.Deaths[r] {
			t.Fatalf("rank %d: closure (%v, %v) vs prog (%v, %v)",
				r, ref.FinalClocks[r], ref.Deaths[r], got.FinalClocks[r], got.Deaths[r])
		}
	}
}

// noFinalizeProg completes without calling Finalize — the MPI discipline
// must classify it as a simulated process failure, as in closure mode.
type noFinalizeProg struct{}

func (noFinalizeProg) Step(e *Env, wake any) (any, bool) { return nil, true }

func TestProgWithoutFinalizeFails(t *testing.T) {
	res, err := runProgWorldErr(t, 2, 1, nil, func(rank int) Prog { return noFinalizeProg{} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2", res.Failed)
	}
}

// rendezvousProg attempts a blocking rendezvous send from a program.
type rendezvousProg struct{}

func (rendezvousProg) Step(e *Env, wake any) (any, bool) {
	if e.Rank() == 0 {
		_ = e.World().SendN(1, 0, 1<<20) // above eager threshold: must block
		e.Finalize()
		return nil, true
	}
	return "never matched", false
}

func TestProgRendezvousSendPanicsWithDiagnostic(t *testing.T) {
	_, err := runProgWorldErr(t, 2, 1, nil, func(rank int) Prog { return rendezvousProg{} })
	if err == nil || !strings.Contains(err.Error(), "closure-mode-only") {
		t.Fatalf("err = %v, want the typed closure-only diagnostic", err)
	}
	if err == nil || !strings.Contains(err.Error(), "rank 0") {
		t.Fatalf("err = %v, want the offending rank named", err)
	}
}

// closureOnlyProg calls one closure-style entry point from a program VP
// and records, per rank, what the call panicked with (nil if it returned).
// Only a *ClosureOnlyError is swallowed; simulator unwinds pass through.
type closureOnlyProg struct {
	call func(e *Env) error
	got  []any
	// scratch records whether the call allocated the closure scratch.
	scratch []bool
}

func (p closureOnlyProg) Step(e *Env, wake any) (any, bool) {
	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*ClosureOnlyError); r != nil && !ok {
				panic(r)
			}
			p.got[e.Rank()] = r
		}()
		if err := p.call(e); err != nil {
			p.got[e.Rank()] = err
		}
	}()
	p.scratch[e.Rank()] = e.scratch != nil
	e.Finalize()
	return nil, true
}

// TestProgClosureOnlyEntriesPanicTyped pins Env.Block's refusal on a
// program VP: every closure-style entry point that has to park surfaces a
// *ClosureOnlyError naming the operation and the rank, and the ones that
// finish without parking still work — without allocating the closure
// scratch, which at a million program VPs would be the largest per-rank
// object.
func TestProgClosureOnlyEntriesPanicTyped(t *testing.T) {
	onRank0 := func(f func(c *Comm) error) func(*Env) error {
		return func(e *Env) error {
			if e.Rank() != 0 {
				return nil
			}
			return f(e.World())
		}
	}
	for _, tc := range []struct {
		name   string
		call   func(e *Env) error
		wantOp string // substring of ClosureOnlyError.Op; "" = the call must succeed
	}{
		{"recv", onRank0(func(c *Comm) error { _, err := c.Recv(1, 0); return err }), "MPI wait: recv from 1"},
		{"rendezvous-send", onRank0(func(c *Comm) error { return c.SendN(1, 0, 1<<20) }), "MPI wait: send to 1"},
		{"probe", onRank0(func(c *Comm) error { _, err := c.Probe(1, 0); return err }), "MPI probe: src 1"},
		{"barrier", func(e *Env) error { return e.World().Barrier() }, "MPI wait: recv from 1 tag"},
		{"shrink", func(e *Env) error { _, err := e.World().Shrink(); return err }, "MPI wait: recv from 1 tag"},
		{"agree", func(e *Env) error { _, err := e.World().Agree(1); return err }, "MPI wait: recv from 1 tag"},
		{"sleep", func(e *Env) error { e.Sleep(vclock.Millisecond); return nil }, "sleep"},
		{"run-prog", func(e *Env) error { e.RunProg(&parkedRecvProg{}); return nil }, "MPI wait: recv from -1 tag 7"},
		{"eager-send", onRank0(func(c *Comm) error { return c.Send(1, 0, []byte("x")) }), ""},
		{"wait-completed", onRank0(func(c *Comm) error {
			r, err := c.Isend(1, 0, []byte("x"))
			if err == nil {
				_, err = c.Wait(r)
			}
			return err
		}), ""},
		{"sleep-zero", func(e *Env) error { e.Sleep(0); return nil }, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, scratch := make([]any, 2), make([]bool, 2)
			res, err := runProgWorldErr(t, 2, 1, nil, func(rank int) Prog {
				return closureOnlyProg{call: tc.call, got: got, scratch: scratch}
			})
			if err != nil || res.Completed != 2 {
				t.Fatalf("run: %v, %+v", err, res)
			}
			if tc.wantOp == "" {
				if got[0] != nil {
					t.Fatalf("call that need not park ended in %v", got[0])
				}
				if scratch[0] {
					t.Error("call that need not park allocated the closure scratch on a program VP")
				}
				return
			}
			coe, ok := got[0].(*ClosureOnlyError)
			if !ok {
				t.Fatalf("rank 0 got %#v, want a *ClosureOnlyError", got[0])
			}
			if coe.Rank != 0 || !strings.Contains(coe.Op, tc.wantOp) {
				t.Errorf("ClosureOnlyError{Op: %q, Rank: %d}, want rank 0 and an op containing %q", coe.Op, coe.Rank, tc.wantOp)
			}
			if !strings.Contains(coe.Error(), "closure-mode-only") || !strings.Contains(coe.Error(), "rank 0") {
				t.Errorf("Error() = %q, want the rank and the closure-mode-only hint", coe.Error())
			}
		})
	}
}

// parkedRecvProg posts a receive that is never matched, parks on it, and
// must render an MPI wait reason in the deadlock report even though the
// rank never owned a goroutine.
type parkedRecvProg struct {
	posted bool
	ws     WaitState
}

func (p *parkedRecvProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	if !p.posted {
		p.posted = true
		r, err := c.Irecv(AnySource, 7)
		if err != nil {
			return nil, true
		}
		p.ws.Begin(r)
	}
	done, park, _ := c.WaitallStep(&p.ws)
	if !done {
		return park, false
	}
	e.Finalize()
	return nil, true
}

func TestProgDeadlockReportRendersWaitReason(t *testing.T) {
	_, err := runProgWorldErr(t, 2, 1, nil, func(rank int) Prog { return &parkedRecvProg{} })
	if err == nil || !strings.Contains(err.Error(), "MPI wait: recv") {
		t.Fatalf("err = %v, want a deadlock report with an MPI wait reason", err)
	}
}
