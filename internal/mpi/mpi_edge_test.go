package mpi

import (
	"strings"
	"testing"

	"xsim/internal/core"
	"xsim/internal/vclock"
)

func TestAnyTagSpecificSource(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			for _, tag := range []int{5, 9, 2} {
				if _, err := c.Isend(1, tag, []byte{byte(tag)}); err != nil {
					t.Fatalf("isend: %v", err)
				}
			}
		} else {
			e.Elapse(vclock.Millisecond)
			// AnyTag takes the earliest arrival regardless of tag.
			for _, want := range []int{5, 9, 2} {
				m, err := c.Recv(0, AnyTag)
				if err != nil {
					t.Fatalf("recv: %v", err)
				}
				if m.Tag != want {
					t.Errorf("tag = %d, want %d", m.Tag, want)
				}
			}
		}
	})
}

func TestTagSelectivity(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			if _, err := c.Isend(1, 6, []byte("six")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Isend(1, 5, []byte("five")); err != nil {
				t.Fatal(err)
			}
		} else {
			// Posting for tag 5 must skip the earlier tag-6 message.
			m5, err := c.Recv(0, 5)
			if err != nil || string(m5.Data) != "five" {
				t.Fatalf("tag 5: %v %q", err, m5.Data)
			}
			m6, err := c.Recv(0, 6)
			if err != nil || string(m6.Data) != "six" {
				t.Fatalf("tag 6: %v %q", err, m6.Data)
			}
		}
	})
}

func TestRendezvousSelfSendNonblocking(t *testing.T) {
	runWorld(t, 1, 1, func(e *Env) {
		c := e.World()
		big := make([]byte, 4096) // above the 1 KiB test threshold
		req, err := c.Isend(0, 0, big)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Recv(0, 0)
		if err != nil || len(m.Data) != 4096 {
			t.Fatalf("recv: %v", err)
		}
		if _, err := c.Wait(req); err != nil {
			t.Fatalf("wait: %v", err)
		}
	})
}

func TestBlockingRendezvousSelfSendDeadlocks(t *testing.T) {
	_, err := runWorldErr(t, 1, 1, nil, func(e *Env) {
		// The MPI classic: a blocking send to self above the eager
		// threshold can never complete — the deadlock detector must
		// catch it rather than hang.
		e.World().SendN(0, 0, 1<<20)
		t.Error("unreachable: send should deadlock")
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

func TestMultipleFailuresAllDetected(t *testing.T) {
	failures := map[int]vclock.Time{
		1: vclock.TimeFromSeconds(1),
		2: vclock.TimeFromSeconds(2),
	}
	res, err := runWorldErr(t, 4, 1, failures, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 1, 2:
			e.Elapse(10 * vclock.Second)
		case 0:
			if _, err := c.Recv(1, 0); err == nil {
				t.Error("recv from rank 1 should fail")
			}
			if _, err := c.Recv(2, 0); err == nil {
				t.Error("recv from rank 2 should fail")
			}
			if n := len(e.FailedPeers()); n != 2 {
				t.Errorf("failed peers = %d, want 2", n)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 || res.Completed != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestBarrierRootFailureAborts(t *testing.T) {
	// Rank 0 is the linear barrier's root; its failure must be detected
	// by the participants and abort the application.
	res, err := runWorldErr(t, 4, 1, map[int]vclock.Time{0: vclock.TimeFromSeconds(1)}, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			e.Elapse(5 * vclock.Second)
			return
		}
		if err := c.Barrier(); err != nil {
			t.Errorf("fatal handler should abort, not return: %v", err)
		}
		t.Errorf("rank %d survived the barrier", e.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Aborted != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestCollectivesOnRevokedComm(t *testing.T) {
	runWorld(t, 3, 1, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if e.Rank() == 0 {
			c.Revoke()
		} else {
			e.Sleep(vclock.Millisecond) // let the revocation arrive
		}
		if err := c.Barrier(); err == nil {
			t.Errorf("rank %d: barrier on revoked comm should fail", e.Rank())
		}
		if _, err := c.Bcast(0, nil); err == nil {
			t.Errorf("rank %d: bcast on revoked comm should fail", e.Rank())
		}
		if _, err := c.Allreduce([]float64{1}, OpSum); err == nil {
			t.Errorf("rank %d: allreduce on revoked comm should fail", e.Rank())
		}
	})
}

func TestEmptyMessage(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			if err := c.Send(1, 0, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			m, err := c.Recv(0, 0)
			if err != nil || m.Size != 0 || len(m.Data) != 0 {
				t.Fatalf("empty message: %v %+v", err, m)
			}
		}
	})
}

func TestMixedProtocolOrdering(t *testing.T) {
	// A big rendezvous send followed by a small eager send from the same
	// source: matching must stay in send order even though the eager
	// payload could physically arrive first.
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			big, err := c.IsendN(1, 0, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			small, err := c.Isend(1, 0, []byte("small"))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Waitall([]*Request{big, small}); err != nil {
				t.Fatalf("waitall: %v", err)
			}
		} else {
			e.Elapse(vclock.Millisecond)
			m1, err := c.Recv(0, 0)
			if err != nil || m1.Size != 1<<20 {
				t.Fatalf("first recv: %v size=%d, want the rendezvous message", err, m1.Size)
			}
			m2, err := c.Recv(0, 0)
			if err != nil || string(m2.Data) != "small" {
				t.Fatalf("second recv: %v %q", err, m2.Data)
			}
		}
	})
}

func TestWildcardVsSpecificPostOrder(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			e.Elapse(vclock.Millisecond)
			if _, err := c.Isend(1, 3, []byte("first")); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Isend(1, 3, []byte("second")); err != nil {
				t.Fatal(err)
			}
		} else {
			// The wildcard receive is posted first: MPI matching gives
			// it the first message, the later specific receive gets the
			// second.
			wild, err := c.Irecv(AnySource, AnyTag)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := c.Irecv(0, 3)
			if err != nil {
				t.Fatal(err)
			}
			mWild, err := c.Wait(wild)
			if err != nil {
				t.Fatalf("wild wait: %v", err)
			}
			if string(mWild.Data) != "first" || mWild.Tag != 3 || mWild.Src != 0 {
				t.Fatalf("wildcard got %+v, want the first message", mWild)
			}
			mSpec, err := c.Wait(spec)
			if err != nil {
				t.Fatalf("spec wait: %v", err)
			}
			if string(mSpec.Data) != "second" {
				t.Fatalf("specific got %q, want the second message", mSpec.Data)
			}
		}
	})
}

func TestWaitallFirstErrorInOrder(t *testing.T) {
	res, err := runWorldErr(t, 3, 1, map[int]vclock.Time{2: 0}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		switch e.Rank() {
		case 0:
			// req0: from the failed rank (errors); req1: from rank 1
			// (succeeds). Waitall returns req0's error.
			r0, err := c.Irecv(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			r1, err := c.Irecv(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			werr := c.Waitall([]*Request{r0, r1})
			if _, ok := werr.(*ProcFailedError); !ok {
				t.Fatalf("waitall err = %v, want ProcFailedError", werr)
			}
			if !r1.Done() || r1.Err() != nil {
				t.Error("healthy request should have completed cleanly")
			}
		case 1:
			if err := c.Send(0, 0, []byte("ok")); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestTreeCollectivesOddSizes(t *testing.T) {
	for _, n := range []int{3, 5, 6} {
		n := n
		runWorld(t, n, 1, func(e *Env) {
			c := e.World()
			if err := c.Barrier(); err != nil {
				t.Errorf("n=%d barrier: %v", n, err)
			}
			out, err := c.Bcast(n-1, []byte{42})
			if err != nil || len(out) != 1 || out[0] != 42 {
				t.Errorf("n=%d bcast: %v %v", n, err, out)
			}
			sum, err := c.Allreduce([]float64{1}, OpSum)
			if err != nil || sum[0] != float64(n) {
				t.Errorf("n=%d allreduce: %v %v", n, err, sum)
			}
		}, withTree())
	}
}

func TestLargeScaleBarrierSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := runWorld(t, 4096, 1, func(e *Env) {
		if err := e.World().Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
	})
	if res.Completed != 4096 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestFailedPeersSnapshotIsolated(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		snap := e.FailedPeers()
		snap[42] = 1 // mutating the snapshot must not corrupt the state
		if len(e.FailedPeers()) != 0 {
			t.Error("snapshot mutation leaked into the failed-peer list")
		}
	})
}

// oneCollProg runs a single armed collective to completion in program
// mode and records its error.
type oneCollProg struct {
	begin func(*CollectiveState)
	errs  []error
	armed bool
	cs    CollectiveState
}

func (p *oneCollProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	if !p.armed {
		p.armed = true
		c.SetErrorHandler(ErrorsReturn)
		p.begin(&p.cs)
	}
	done, park, err := c.CollectiveStep(&p.cs)
	if !done {
		return park, false
	}
	p.errs[e.Rank()] = err
	e.Finalize()
	return nil, true
}

// TestCollectiveRootOutOfRange pins the root check of the rooted
// collectives, in both execution modes. Unchecked, root -1 read as
// AnySource on the internal tag and the run ended in a deadlock report;
// root n addressed an event to a rank that does not exist and panicked
// the engine. Every rank must get an error instead, and the run must end
// cleanly.
func TestCollectiveRootOutOfRange(t *testing.T) {
	const n = 4
	parts := make([][]byte, n)
	for _, tc := range []struct {
		name    string
		closure func(c *Comm, root int) error
		begin   func(cs *CollectiveState, root int)
	}{
		{"bcast",
			func(c *Comm, root int) error { _, err := c.Bcast(root, []byte{1}); return err },
			func(cs *CollectiveState, root int) { cs.BeginBcast(root, []byte{1}) }},
		{"reduce",
			func(c *Comm, root int) error { _, err := c.Reduce(root, []float64{1}, OpSum); return err },
			func(cs *CollectiveState, root int) { cs.BeginReduce(root, []float64{1}, OpSum) }},
		{"gather",
			func(c *Comm, root int) error { _, err := c.Gather(root, []byte{1}); return err },
			func(cs *CollectiveState, root int) { cs.BeginGather(root, []byte{1}) }},
		{"scatter",
			func(c *Comm, root int) error { _, err := c.Scatter(root, parts); return err },
			func(cs *CollectiveState, root int) { cs.BeginScatter(root, parts) }},
	} {
		for _, root := range []int{-1, n} {
			for _, mode := range []string{"closure", "prog"} {
				for _, opt := range []worldOpt{func(*core.Config, *WorldConfig) {}, withTree()} {
					errs := make([]error, n)
					var res *core.Result
					var err error
					if mode == "closure" {
						res, err = runWorldErr(t, n, 1, nil, func(e *Env) {
							c := e.World()
							c.SetErrorHandler(ErrorsReturn)
							errs[e.Rank()] = tc.closure(c, root)
						}, opt)
					} else {
						res, err = runProgWorldErr(t, n, 1, nil, func(int) Prog {
							return &oneCollProg{begin: func(cs *CollectiveState) { tc.begin(cs, root) }, errs: errs}
						}, opt)
					}
					if err != nil {
						t.Fatalf("%s root %d (%s): run ended in %v", tc.name, root, mode, err)
					}
					if res.Completed != n {
						t.Errorf("%s root %d (%s): completed = %d, want %d", tc.name, root, mode, res.Completed, n)
					}
					for r, e := range errs {
						if e == nil || !strings.Contains(e.Error(), "root rank") {
							t.Errorf("%s root %d (%s) rank %d: err = %v, want a root-range error", tc.name, root, mode, r, e)
						}
					}
				}
			}
		}
	}
}

// TestFailedCollectiveLeavesScratchEmpty pins what the closure scratch
// holds after a collective that returned an error: nothing. An alltoall
// with a failed peer ends with 2(n-1) requests (and their messages) in the
// machine's request sets; the process must not keep them alive until its
// next collective — or, if there is none, for the rest of its life.
func TestFailedCollectiveLeavesScratchEmpty(t *testing.T) {
	const n = 4
	checked := 0
	res, err := runWorldErr(t, n, 1, map[int]vclock.Time{3: 0}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if e.Rank() == 3 {
			e.Elapse(vclock.Second) // fails at the first clock update
		}
		if _, err := c.Alltoall(make([][]byte, n)); err == nil {
			t.Errorf("rank %d: alltoall with a failed peer succeeded", e.Rank())
		}
		// A receive from the failed rank through the wait scratch, too.
		if _, err := c.Recv(3, 0); err == nil {
			t.Errorf("rank %d: recv from a failed peer succeeded", e.Rank())
		}
		sc := e.scratch
		for name, reqs := range map[string][]*Request{
			"coll.reqs":     sc.coll.reqs[:cap(sc.coll.reqs)],
			"coll.recvs":    sc.coll.recvs[:cap(sc.coll.recvs)],
			"coll.ws.reqs":  sc.coll.ws.reqs[:cap(sc.coll.ws.reqs)],
			"coll.hop.reqs": sc.coll.hop.ws.reqs[:cap(sc.coll.hop.ws.reqs)],
			"wait.reqs":     sc.wait.reqs[:cap(sc.wait.reqs)],
			"reqs":          sc.reqs[:cap(sc.reqs)],
		} {
			for i, r := range reqs {
				if r != nil {
					t.Errorf("rank %d: %s[%d] still holds a request after the failed call", e.Rank(), name, i)
				}
			}
		}
		if sc.coll.hop.inFlight() || sc.coll.parts != nil || sc.coll.out != nil || sc.coll.data != nil {
			t.Errorf("rank %d: collective scratch still holds operands or results: %+v", e.Rank(), sc.coll)
		}
		if cap(sc.coll.reqs) < 2*(n-1) {
			t.Errorf("rank %d: alltoall did not run through the scratch (cap %d)", e.Rank(), cap(sc.coll.reqs))
		}
		checked++
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || checked != n-1 {
		t.Fatalf("failed = %d, survivors checked = %d", res.Failed, checked)
	}
}

// TestReduceLengthMismatchReleasesMessage pins the error path of the
// folding take: a contribution of the wrong length is reported, and the
// pooled payload it arrived in goes back to the pool first. It used to
// stay checked out for the life of the partition.
func TestReduceLengthMismatchReleasesMessage(t *testing.T) {
	for _, opt := range []worldOpt{func(*core.Config, *WorldConfig) {}, withTree()} {
		checked := false
		runWorld(t, 2, 1, func(e *Env) {
			c := e.World()
			c.SetErrorHandler(ErrorsReturn)
			_, err := c.Reduce(0, make([]float64, 2+e.Rank()), OpSum)
			if e.Rank() != 0 {
				return
			}
			if err == nil || !strings.Contains(err.Error(), "reduce payload") {
				t.Errorf("reduce of 2 and 3 floats: err = %v, want a payload-length error", err)
			}
			if out := e.dp.bufOut; out != 0 {
				t.Errorf("%d pooled payload bytes still checked out after the failed reduce", out)
			}
			checked = true
		}, opt)
		if !checked {
			t.Error("rank 0 never returned from the reduce")
		}
	}
}
