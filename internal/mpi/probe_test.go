package mpi

import (
	"testing"

	"xsim/internal/vclock"
)

func TestIprobe(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			if err := c.Send(1, 7, []byte("probe me")); err != nil {
				t.Fatal(err)
			}
			return
		}
		// Nothing arrived yet at t=0.
		if _, ok, err := c.Iprobe(0, 7); err != nil || ok {
			t.Fatalf("early iprobe = %v, %v", ok, err)
		}
		e.Sleep(vclock.Millisecond) // let the envelope arrive
		m, ok, err := c.Iprobe(0, 7)
		if err != nil || !ok {
			t.Fatalf("iprobe = %v, %v", ok, err)
		}
		if m.Src != 0 || m.Tag != 7 || m.Size != 8 {
			t.Fatalf("probed envelope = %+v", m)
		}
		// Probing does not consume: the receive still sees the message.
		got, err := c.Recv(0, 7)
		if err != nil || string(got.Data) != "probe me" {
			t.Fatalf("recv after probe: %v %q", err, got.Data)
		}
		// Consumed now.
		if _, ok, _ := c.Iprobe(0, 7); ok {
			t.Fatal("iprobe after recv should find nothing")
		}
	})
}

func TestProbeBlocksUntilArrival(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			e.Elapse(5 * vclock.Millisecond)
			if err := c.SendN(1, 3, 64); err != nil {
				t.Fatal(err)
			}
			return
		}
		m, err := c.Probe(AnySource, AnyTag)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		if m.Src != 0 || m.Tag != 3 || m.Size != 64 {
			t.Fatalf("probe result = %+v", m)
		}
		// The probe returned at (or after) the envelope's arrival.
		if e.Now() < vclock.Time(5*vclock.Millisecond) {
			t.Fatalf("probe returned at %v, before the send", e.Now())
		}
		// And the message is still receivable.
		if _, err := c.Recv(m.Src, m.Tag); err != nil {
			t.Fatalf("recv after probe: %v", err)
		}
	})
}

func TestProbeFailedPeerTimesOut(t *testing.T) {
	res, err := runWorldErr(t, 2, 1, map[int]vclock.Time{0: vclock.TimeFromSeconds(1)}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if e.Rank() == 0 {
			e.Elapse(2 * vclock.Second)
			return
		}
		_, err := c.Probe(0, 0)
		if _, ok := err.(*ProcFailedError); !ok {
			t.Fatalf("probe err = %v, want ProcFailedError", err)
		}
		// Detection latency includes the configured timeout.
		if e.Now() < vclock.TimeFromSeconds(2) {
			t.Fatalf("probe failed too early: %v", e.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// Regression: a probe whose source was known to have failed (any peer, for
// AnySource) jumped the clock to the detection deadline and failed, never
// seeing the messages that arrived before it. It now waits for the deadline
// the way a receive does, so both take a message that arrives first: rank
// 2 fails at 2 ms, rank 0 sends at 10 ms, and rank 1's wildcard call at
// 5 ms returns that message at 10.001 ms, not ProcFailedError at 105 ms.
func TestProbeSeesArrivalBeforeDetectionDeadline(t *testing.T) {
	for _, op := range []string{"probe", "recv"} {
		t.Run(op, func(t *testing.T) {
			res, err := runWorldErr(t, 3, 1, map[int]vclock.Time{2: vclock.Time(2 * vclock.Millisecond)}, func(e *Env) {
				c := e.World()
				c.SetErrorHandler(ErrorsReturn)
				switch e.Rank() {
				case 0:
					e.Elapse(10 * vclock.Millisecond)
					if err := c.SendN(1, 7, 8); err != nil {
						t.Error(err)
					}
				case 1:
					e.Sleep(5 * vclock.Millisecond) // rank 2's failure is known by now
					var m *Message
					var err error
					if op == "probe" {
						m, err = c.Probe(AnySource, AnyTag)
					} else {
						m, err = c.Recv(AnySource, AnyTag)
					}
					if err != nil {
						t.Errorf("%s: %v at %v", op, err, e.Now())
						return
					}
					if m.Src != 0 || m.Tag != 7 {
						t.Errorf("%s returned %+v", op, m)
					}
					if now := e.Now(); now < vclock.Time(10*vclock.Millisecond) || now > vclock.Time(11*vclock.Millisecond) {
						t.Errorf("%s returned at %v, want the arrival at about 10.001ms", op, now)
					}
					if op == "probe" {
						if _, err := c.Recv(0, 7); err != nil {
							t.Error(err)
						}
					}
				case 2:
					e.Sleep(50 * vclock.Millisecond) // interruptible: fails at 2 ms
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 1 {
				t.Fatalf("%d ranks failed, want rank 2 alone", res.Failed)
			}
		})
	}
}

func TestProbeValidation(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if _, err := c.Probe(9, 0); err == nil {
			t.Error("out-of-range probe source should fail")
		}
		if _, _, err := c.Iprobe(-2, 0); err == nil {
			t.Error("out-of-range iprobe source should fail")
		}
	})
}

func TestCancelRecv(t *testing.T) {
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			e.Elapse(vclock.Millisecond)
			if err := c.Send(1, 0, []byte("late")); err != nil {
				t.Fatal(err)
			}
			return
		}
		req, err := c.Irecv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Cancel(req) {
			t.Fatal("cancel of pending recv should succeed")
		}
		if !req.Done() {
			t.Fatal("cancelled request should be done")
		}
		if _, ok := req.Err().(*CancelledError); !ok {
			t.Fatalf("err = %v, want CancelledError", req.Err())
		}
		if c.Cancel(req) {
			t.Fatal("double cancel should report false")
		}
		// The message was not consumed by the cancelled receive: a fresh
		// receive gets it.
		m, err := c.Recv(0, 0)
		if err != nil || string(m.Data) != "late" {
			t.Fatalf("recv after cancel: %v %q", err, m.Data)
		}
	})
}

func TestCancelRendezvousSend(t *testing.T) {
	// Cancelling a send fails and leaves the request as it was: an eager
	// send is already complete, and a rendezvous send's envelope has
	// already left, so it stays pending until its receiver matches it.
	runWorld(t, 2, 1, func(e *Env) {
		c := e.World()
		if e.Rank() == 0 {
			eager, _ := c.IsendN(1, 0, 8)
			req, err := c.IsendN(1, 1, 1<<20) // rendezvous: pends on the CTS
			if err != nil {
				t.Fatal(err)
			}
			if c.Cancel(eager) {
				t.Error("cancel of an eager send reported true")
			}
			if c.Cancel(req) {
				t.Error("cancel of a pending rendezvous send reported true")
			}
			if req.Done() || req.Err() != nil {
				t.Errorf("refused cancel touched the request: done %v, err %v", req.Done(), req.Err())
			}
			if _, err := c.Wait(req); err != nil {
				t.Errorf("wait: %v", err)
			}
			c.Free(eager)
			c.Free(req)
			return
		}
		// The receiver posts late; the rendezvous send waits for it.
		e.Elapse(vclock.Millisecond)
		for tag := range 2 {
			m, err := c.Recv(0, tag)
			if err != nil {
				t.Errorf("recv tag %d: %v", tag, err)
				continue
			}
			m.Release()
		}
	})
}

func TestTreeReduce(t *testing.T) {
	const n = 6
	runWorld(t, n, 1, func(e *Env) {
		c := e.World()
		for root := 0; root < n; root += 2 {
			sum, err := c.Reduce(root, []float64{float64(e.Rank()), 1}, OpSum)
			if err != nil {
				t.Fatalf("tree reduce root %d: %v", root, err)
			}
			if e.Rank() == root {
				if sum[0] != float64(n*(n-1)/2) || sum[1] != n {
					t.Fatalf("root %d sum = %v", root, sum)
				}
			} else if sum != nil {
				t.Fatalf("non-root got %v", sum)
			}
		}
	}, withTree())
}
