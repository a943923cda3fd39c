package mpi

import (
	"bytes"
	"testing"

	"xsim/internal/vclock"
)

// The tests in this file pin the tentpole property of the step-based
// blocking surface: a program built from SendNStep/RecvStep/SleepStep/
// ProbeStep/CollectiveState is observationally identical (per-rank final
// clocks, death reasons, payload contents) to the closure program built
// from SendN/Recv/Sleep/Probe and the blocking collectives, under both
// the linear and the binomial-tree collective algorithms, at one and at
// several workers.

// stepPat builds a deterministic payload for rank r in context k.
func stepPat(r, k int) []byte {
	b := make([]byte, 8+(r+k)%5)
	for i := range b {
		b[i] = byte(r*31 + k*7 + i)
	}
	return b
}

// stepOpsReduceWant is the expected sum-reduction over n ranks of the
// per-rank contribution {rank, 1}.
func stepOpsReduceWant(n int) []float64 {
	return []float64{float64(n*(n-1)) / 2, float64(n)}
}

// checkF64s compares a float reduction result.
func checkF64s(t *testing.T, mode string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s rank %d: reduction len %d, want %d", mode, rank, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s rank %d: reduction[%d] = %v, want %v", mode, rank, i, got[i], want[i])
		}
	}
}

// closureStepOps is the closure-mode reference workload: a rendezvous
// ring, a rank-dependent sleep, a probe/recv pairing, then every
// collective.
func closureStepOps(t *testing.T, n int) func(*Env) {
	return func(e *Env) {
		c := e.World()
		rank := e.Rank()

		// Rendezvous ring: above-eager send to the right, receive from
		// the left.
		recv, err := c.Irecv((rank+n-1)%n, 1)
		if err != nil {
			return
		}
		if err := c.SendN((rank+1)%n, 1, 1<<20); err != nil {
			return
		}
		if err := c.Waitall([]*Request{recv}); err != nil {
			return
		}
		c.Free(recv)

		// Rank-dependent sleep.
		e.Sleep(vclock.Duration(rank%3+1) * vclock.Microsecond)

		// Probe/recv pairing: even ranks send to their odd neighbour
		// after a rank-dependent delay; odd ranks probe then receive.
		if rank%2 == 0 {
			e.Elapse(vclock.Duration(rank+1) * vclock.Microsecond)
			if err := c.Send(rank+1, 7, stepPat(rank, 2)); err != nil {
				return
			}
		} else {
			pm, err := c.Probe(rank-1, 7)
			if err != nil {
				return
			}
			m, err := c.Recv(pm.Src, pm.Tag)
			if err != nil {
				return
			}
			if !bytes.Equal(m.Data, stepPat(rank-1, 2)) {
				t.Errorf("closure rank %d: probe recv = %v, want %v", rank, m.Data, stepPat(rank-1, 2))
			}
			m.Release()
		}

		// Every collective, content-checked.
		if err := c.Barrier(); err != nil {
			return
		}
		var bin []byte
		if rank == 1 {
			bin = stepPat(1, 99)
		}
		bout, err := c.Bcast(1, bin)
		if err != nil {
			return
		}
		if !bytes.Equal(bout, stepPat(1, 99)) {
			t.Errorf("closure rank %d: bcast = %v, want %v", rank, bout, stepPat(1, 99))
		}
		contrib := []float64{float64(rank), 1}
		red, err := c.Reduce(2, contrib, OpSum)
		if err != nil {
			return
		}
		if rank == 2 {
			checkF64s(t, "closure", rank, red, stepOpsReduceWant(n))
		}
		all, err := c.Allreduce(contrib, OpSum)
		if err != nil {
			return
		}
		checkF64s(t, "closure", rank, all, stepOpsReduceWant(n))
		gout, err := c.Gather(0, stepPat(rank, 4))
		if err != nil {
			return
		}
		if rank == 0 {
			for r := 0; r < n; r++ {
				if !bytes.Equal(gout[r], stepPat(r, 4)) {
					t.Errorf("closure: gather[%d] = %v, want %v", r, gout[r], stepPat(r, 4))
				}
			}
		}
		var parts [][]byte
		if rank == 1 {
			parts = make([][]byte, n)
			for r := range parts {
				parts[r] = stepPat(r, 5)
			}
		}
		part, err := c.Scatter(1, parts)
		if err != nil {
			return
		}
		if !bytes.Equal(part, stepPat(rank, 5)) {
			t.Errorf("closure rank %d: scatter = %v, want %v", rank, part, stepPat(rank, 5))
		}
		ag, err := c.Allgather(stepPat(rank, 6))
		if err != nil {
			return
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(ag[r], stepPat(r, 6)) {
				t.Errorf("closure rank %d: allgather[%d] = %v, want %v", rank, r, ag[r], stepPat(r, 6))
			}
		}
		a2a := make([][]byte, n)
		for r := range a2a {
			a2a[r] = stepPat(rank, r)
		}
		aout, err := c.Alltoall(a2a)
		if err != nil {
			return
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(aout[r], stepPat(r, rank)) {
				t.Errorf("closure rank %d: alltoall[%d] = %v, want %v", rank, r, aout[r], stepPat(r, rank))
			}
		}
		e.Finalize()
	}
}

// stepOpsProg is the program-mode twin of closureStepOps, built from the
// step-based states.
type stepOpsProg struct {
	t  *testing.T
	n  int
	pc int

	posted bool
	recv   *Request
	ws     WaitState
	ss     SendState
	sl     SleepState
	pbs    ProbeState
	rs     RecvState
	pm     *Message

	cq    int
	armed bool
	cs    CollectiveState
}

// bail ends the program on error, matching the closure's early return
// (no Finalize: the rank counts as failed in both modes).
func (p *stepOpsProg) bail() (any, bool) { return nil, true }

func (p *stepOpsProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	rank, n := e.Rank(), p.n
	for {
		switch p.pc {
		case 0: // rendezvous ring
			if !p.posted {
				p.posted = true
				var err error
				if p.recv, err = c.Irecv((rank+n-1)%n, 1); err != nil {
					return p.bail()
				}
			}
			done, park, err := c.SendNStep(&p.ss, (rank+1)%n, 1, 1<<20)
			if !done {
				return park, false
			}
			if err != nil {
				return p.bail()
			}
			p.ws.Begin(p.recv)
			p.pc = 1
		case 1:
			done, park, err := c.WaitallStep(&p.ws)
			if !done {
				return park, false
			}
			if err != nil {
				return p.bail()
			}
			c.Free(p.recv)
			p.recv = nil
			p.pc = 2
		case 2: // rank-dependent sleep
			done, park := e.SleepStep(&p.sl, vclock.Duration(rank%3+1)*vclock.Microsecond)
			if !done {
				return park, false
			}
			p.pc = 3
		case 3: // probe/recv pairing
			if rank%2 == 0 {
				if !p.ss.hop.inFlight() && p.pm == nil {
					e.Elapse(vclock.Duration(rank+1) * vclock.Microsecond)
				}
				done, park, err := c.SendStep(&p.ss, rank+1, 7, stepPat(rank, 2))
				if !done {
					p.pm = &Message{} // mark the pre-send delay as charged
					return park, false
				}
				p.pm = nil
				if err != nil {
					return p.bail()
				}
				p.pc = 5
				continue
			}
			done, park, msg, err := c.ProbeStep(&p.pbs, rank-1, 7)
			if !done {
				return park, false
			}
			if err != nil {
				return p.bail()
			}
			p.pm = msg
			p.pc = 4
		case 4:
			done, park, msg, err := c.RecvStep(&p.rs, p.pm.Src, p.pm.Tag)
			if !done {
				return park, false
			}
			if err != nil {
				return p.bail()
			}
			if !bytes.Equal(msg.Data, stepPat(rank-1, 2)) {
				p.t.Errorf("prog rank %d: probe recv = %v, want %v", rank, msg.Data, stepPat(rank-1, 2))
			}
			msg.Release()
			p.pm = nil
			p.pc = 5
		case 5: // collectives, content-checked
			if p.cq == 8 {
				e.Finalize()
				return nil, true
			}
			if !p.armed {
				p.armed = true
				switch p.cq {
				case 0:
					p.cs.BeginBarrier()
				case 1:
					var bin []byte
					if rank == 1 {
						bin = stepPat(1, 99)
					}
					p.cs.BeginBcast(1, bin)
				case 2:
					p.cs.BeginReduce(2, []float64{float64(rank), 1}, OpSum)
				case 3:
					p.cs.BeginAllreduce([]float64{float64(rank), 1}, OpSum)
				case 4:
					p.cs.BeginGather(0, stepPat(rank, 4))
				case 5:
					var parts [][]byte
					if rank == 1 {
						parts = make([][]byte, n)
						for r := range parts {
							parts[r] = stepPat(r, 5)
						}
					}
					p.cs.BeginScatter(1, parts)
				case 6:
					p.cs.BeginAllgather(stepPat(rank, 6))
				case 7:
					a2a := make([][]byte, n)
					for r := range a2a {
						a2a[r] = stepPat(rank, r)
					}
					p.cs.BeginAlltoall(a2a)
				}
			}
			done, park, err := c.CollectiveStep(&p.cs)
			if !done {
				return park, false
			}
			p.armed = false
			if err != nil {
				return p.bail()
			}
			switch p.cq {
			case 1:
				if !bytes.Equal(p.cs.Bytes(), stepPat(1, 99)) {
					p.t.Errorf("prog rank %d: bcast = %v, want %v", rank, p.cs.Bytes(), stepPat(1, 99))
				}
			case 2:
				if rank == 2 {
					checkF64s(p.t, "prog", rank, p.cs.Floats(), stepOpsReduceWant(n))
				}
			case 3:
				checkF64s(p.t, "prog", rank, p.cs.Floats(), stepOpsReduceWant(n))
			case 4:
				if rank == 0 {
					for r := 0; r < n; r++ {
						if !bytes.Equal(p.cs.Parts()[r], stepPat(r, 4)) {
							p.t.Errorf("prog: gather[%d] = %v, want %v", r, p.cs.Parts()[r], stepPat(r, 4))
						}
					}
				}
			case 5:
				if !bytes.Equal(p.cs.Bytes(), stepPat(rank, 5)) {
					p.t.Errorf("prog rank %d: scatter = %v, want %v", rank, p.cs.Bytes(), stepPat(rank, 5))
				}
			case 6:
				for r := 0; r < n; r++ {
					if !bytes.Equal(p.cs.Parts()[r], stepPat(r, 6)) {
						p.t.Errorf("prog rank %d: allgather[%d] = %v, want %v", rank, r, p.cs.Parts()[r], stepPat(r, 6))
					}
				}
			case 7:
				for r := 0; r < n; r++ {
					if !bytes.Equal(p.cs.Parts()[r], stepPat(r, rank)) {
						p.t.Errorf("prog rank %d: alltoall[%d] = %v, want %v", rank, r, p.cs.Parts()[r], stepPat(r, rank))
					}
				}
			}
			p.cq++
		}
	}
}

func TestProgStepOpsMatchClosure(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name string
		opts []worldOpt
	}{{"linear", nil}, {"tree", []worldOpt{withTree()}}} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := runWorldErr(t, n, 1, nil, closureStepOps(t, n), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Completed != n {
				t.Fatalf("closure completed = %d, want %d", ref.Completed, n)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := runProgWorldErr(t, n, workers, nil, func(rank int) Prog {
					return &stepOpsProg{t: t, n: n}
				}, tc.opts...)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.Completed != n {
					t.Fatalf("workers=%d: prog completed = %d, want %d", workers, got.Completed, n)
				}
				for r := range ref.FinalClocks {
					if ref.FinalClocks[r] != got.FinalClocks[r] || ref.Deaths[r] != got.Deaths[r] {
						t.Fatalf("%s workers=%d rank %d: closure (%v, %v) vs prog (%v, %v)",
							tc.name, workers, r, ref.FinalClocks[r], ref.Deaths[r], got.FinalClocks[r], got.Deaths[r])
					}
				}
			}
		})
	}
}

// TestProgCollectiveWithFailureMatchesClosure injects a failure under a
// collective-heavy workload and checks detection and abort agree.
func TestProgCollectiveWithFailureMatchesClosure(t *testing.T) {
	const n = 8
	failures := map[int]vclock.Time{3: vclock.TimeFromSeconds(0.00001)}
	closure := func(e *Env) {
		c := e.World()
		for i := 0; i < 4; i++ {
			if _, err := c.Allreduce([]float64{1}, OpSum); err != nil {
				return
			}
		}
		e.Finalize()
	}
	ref, refErr := runWorldErr(t, n, 1, failures, closure)
	got, gotErr := runProgWorldErr(t, n, 1, failures, func(rank int) Prog {
		return &allreduceLoopProg{rounds: 4}
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

// allreduceLoopProg runs a fixed number of allreduce rounds.
type allreduceLoopProg struct {
	rounds int
	done   int
	armed  bool
	cs     CollectiveState
}

func (p *allreduceLoopProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	for {
		if p.done == p.rounds {
			e.Finalize()
			return nil, true
		}
		if !p.armed {
			p.armed = true
			p.cs.BeginAllreduce([]float64{1}, OpSum)
		}
		done, park, err := c.CollectiveStep(&p.cs)
		if !done {
			return park, false
		}
		p.armed = false
		if err != nil {
			return nil, true
		}
		p.done++
	}
}
