package mpi

import (
	"math/rand"
	"reflect"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// runWorldMetrics is runWorldErr returning the world, so tests can read
// its metrics after the run.
func runWorldMetrics(t *testing.T, n, workers int, failures map[int]vclock.Time, app func(*Env)) (*World, *core.Result, error) {
	t.Helper()
	eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: vclock.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: testNet(n), Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range failures {
		if err := eng.ScheduleFailure(r, at); err != nil {
			t.Fatal(err)
		}
	}
	res, err := w.Run(func(e *Env) {
		app(e)
		if !e.Finalized() {
			e.Finalize()
		}
	})
	return w, res, err
}

func TestMetricsTrafficCounters(t *testing.T) {
	w, _, err := runWorldMetrics(t, 2, 1, nil, func(e *Env) {
		c := e.World()
		switch e.Rank() {
		case 0:
			// Three eager messages before the receiver posts, then one
			// rendezvous (4096 > the 1024 eager threshold).
			for i := 0; i < 3; i++ {
				if err := c.SendN(1, i, 64); err != nil {
					t.Errorf("eager send: %v", err)
				}
			}
			if err := c.SendN(1, 3, 4096); err != nil {
				t.Errorf("rendezvous send: %v", err)
			}
		case 1:
			// Let the eager envelopes pile up unexpected first.
			e.Elapse(vclock.Millisecond)
			for i := 0; i < 4; i++ {
				if _, err := c.Recv(0, i); err != nil {
					t.Errorf("recv %d: %v", i, err)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Metrics()
	if m.EagerMsgs != 3 || m.EagerBytes != 3*64 {
		t.Errorf("eager = %d msgs %d bytes, want 3 msgs 192 bytes", m.EagerMsgs, m.EagerBytes)
	}
	if m.RendezvousMsgs != 1 || m.RendezvousBytes != 4096 {
		t.Errorf("rendezvous = %d msgs %d bytes, want 1 msg 4096 bytes", m.RendezvousMsgs, m.RendezvousBytes)
	}
	if m.CollectiveOps != 0 {
		t.Errorf("collectives = %d, want 0", m.CollectiveOps)
	}
	if m.UnexpectedMax != 3 {
		t.Errorf("unexpected high-water = %d, want 3", m.UnexpectedMax)
	}
	if len(m.Failures) != 0 {
		t.Errorf("failures = %v, want none", m.Failures)
	}
}

func TestMetricsCollectiveCount(t *testing.T) {
	const n = 4
	w, _, err := runWorldMetrics(t, n, 1, nil, func(e *Env) {
		c := e.World()
		if err := c.Barrier(); err != nil {
			t.Errorf("barrier: %v", err)
		}
		if _, err := c.Allreduce([]float64{1}, OpSum); err != nil {
			t.Errorf("allreduce: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each rank counts each public collective call once — composite
	// implementations (allreduce = reduce + bcast) must not double-count.
	if m := w.Metrics(); m.CollectiveOps != 2*n {
		t.Errorf("collectives = %d, want %d", m.CollectiveOps, 2*n)
	}
}

// detectionWorkload runs a randomized pairwise traffic pattern with one
// injected failure: rank failRank dies at tof while every surviving rank
// eventually posts a receive from it and detects the failure by timeout.
func detectionWorkload(t *testing.T, workers int) (*World, MetricsSnapshot) {
	t.Helper()
	const (
		n        = 8
		failRank = 3
	)
	tof := vclock.TimeFromSeconds(2)
	w, res, err := runWorldMetrics(t, n, workers, map[int]vclock.Time{failRank: tof}, func(e *Env) {
		c := e.World()
		c.SetErrorHandler(ErrorsReturn)
		if e.Rank() == failRank {
			// Dies at tof during this sleep, before any communication.
			e.Sleep(3 * vclock.Second)
			return
		}
		// Randomized (but rank-agreed) ping traffic between pair buddies;
		// the pair containing the failing rank skips it.
		rng := rand.New(rand.NewSource(1))
		counts := make([]int, n/2)
		for i := range counts {
			counts[i] = 1 + rng.Intn(4)
		}
		buddy := e.Rank() ^ 1
		if buddy != failRank {
			for i := 0; i < counts[e.Rank()/2]; i++ {
				if e.Rank() < buddy {
					if err := c.SendN(buddy, i, 64); err != nil {
						t.Errorf("rank %d send: %v", e.Rank(), err)
					}
				} else if _, err := c.Recv(buddy, i); err != nil {
					t.Errorf("rank %d recv: %v", e.Rank(), err)
				}
			}
		}
		// Every survivor now waits on the failing rank and must detect
		// the failure via the communication timeout.
		if _, err := c.Recv(failRank, 99); err == nil {
			t.Errorf("rank %d: recv from failed rank succeeded", e.Rank())
		} else if _, ok := err.(*ProcFailedError); !ok {
			t.Errorf("rank %d: unexpected error %v", e.Rank(), err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 {
		t.Fatalf("failed = %d, want 1", res.Failed)
	}
	return w, w.Metrics()
}

func TestDetectionLatencyMetric(t *testing.T) {
	w, m := detectionWorkload(t, 1)
	if len(m.Failures) != 1 {
		t.Fatalf("failures = %v, want one", m.Failures)
	}
	f := m.Failures[0]
	if f.Rank != 3 || f.FailedAt != vclock.TimeFromSeconds(2) {
		t.Fatalf("failure record = %+v", f)
	}
	nd := w.Config().Net.System.Latency
	if f.NotifiedAt != f.FailedAt.Add(nd) {
		t.Fatalf("notified at %v, want %v", f.NotifiedAt, f.FailedAt.Add(nd))
	}
	if f.Detections != 7 {
		t.Fatalf("detections = %d, want all 7 survivors", f.Detections)
	}
	// The paper's quantity: injection → last surviving rank detects. With
	// purely timeout-based detection the latency is the communication
	// timeout plus the notification delay, up to the engine lookahead.
	timeout := w.Config().Net.Timeout(0, 3)
	la := w.Engine().Lookahead()
	lat := f.DetectionLatency()
	tol := nd
	if la > tol {
		tol = la
	}
	if diff := lat - (timeout + nd); diff < -tol || diff > tol {
		t.Fatalf("detection latency %v, want %v + %v within %v", lat, timeout, nd, tol)
	}
}

func TestDetectionMetricsDeterministicAcrossWorkers(t *testing.T) {
	_, m1 := detectionWorkload(t, 1)
	_, m4 := detectionWorkload(t, 4)
	if !reflect.DeepEqual(m1, m4) {
		t.Fatalf("metrics differ across workers:\n  W1: %+v\n  W4: %+v", m1, m4)
	}
}
