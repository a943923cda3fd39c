package mpi

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// failAnswer is what one surviving rank knows of its failed peers: its
// failed-peer list, the failed ranks of the world communicator, the ranks
// PeerFailed reports, and the instant and peer of each receive's failure
// detection.
type failAnswer struct {
	failed map[int]vclock.Time
	inComm []int
	dead   []int
	detect []vclock.Time
	peers  []int
}

// failWatcher is a program whose rank sleeps past the failure
// notifications, reads its failed-peer list, then receives from each of
// srcs in turn (a failed rank, or AnySource) and records when and on whom
// the receive detected a failure. A victim rank fails in its sleep.
type failWatcher struct {
	sleep vclock.Duration
	srcs  []int
	out   *failAnswer
	phase int
	sl    SleepState
	req   [1]*Request
	ws    WaitState
}

func (p *failWatcher) Step(e *Env, _ any) (any, bool) {
	c := e.World()
	if p.phase == 0 {
		if done, park := e.SleepStep(&p.sl, p.sleep); !done {
			return park, false
		}
		c.SetErrorHandler(ErrorsReturn)
		p.out.failed, p.out.inComm = e.FailedPeers(), c.FailedInComm()
		for r := range e.Size() {
			if e.PeerFailed(r) {
				p.out.dead = append(p.out.dead, r)
			}
		}
		p.phase = 1
	}
	for ; p.phase <= len(p.srcs); p.phase++ {
		if p.req[0] == nil {
			req, err := c.Irecv(p.srcs[p.phase-1], 0)
			if err != nil {
				panic(err)
			}
			p.req[0] = req
			p.ws.Begin(p.req[:]...)
		}
		done, park, _, err := c.WaitStep(&p.ws)
		if !done {
			return park, false
		}
		var pf *ProcFailedError
		if !errors.As(err, &pf) {
			panic("receive from a failed peer completed without a process-failure error")
		}
		p.out.detect = append(p.out.detect, e.Now())
		p.out.peers = append(p.out.peers, pf.Rank)
		c.Free(p.req[0])
		p.req[0] = nil
	}
	e.Finalize()
	return nil, true
}

// runFailWatchers runs a failWatcher on every rank of an n-rank program
// world and returns the survivors' answers by rank (nil for a victim).
func runFailWatchers(t *testing.T, n, workers int, latency vclock.Duration, failures map[int]vclock.Time, sleep vclock.Duration, srcs []int) []*failAnswer {
	t.Helper()
	net := testNet(n)
	net.System.Latency, net.OnNode.Latency = latency, latency
	eng, err := core.New(core.Config{NumVPs: n, Workers: workers, Lookahead: latency, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: net, Proc: procmodel.Paper()})
	if err != nil {
		t.Fatal(err)
	}
	for r, at := range failures {
		if err := eng.ScheduleFailure(r, at); err != nil {
			t.Fatal(err)
		}
	}
	answers := make([]*failAnswer, n) // each partition writes its own ranks'
	res, err := w.RunProgs(func(rank int) Prog {
		p := &failWatcher{sleep: sleep, srcs: srcs, out: new(failAnswer)}
		if _, victim := failures[rank]; !victim {
			answers[rank] = p.out
		}
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := n - len(failures); res.Completed != want {
		t.Fatalf("%d ranks completed, want %d", res.Completed, want)
	}
	return answers
}

// TestFailedPeerListsAcrossPartitions: the failed-peer list is one table
// per partition, and every survivor still answers as if it kept its own.
// Two ranks fail; each survivor sees both with their times of failure,
// and its receive from one of them, then its wildcard receive, each
// detect the failure one timeout after the receive was posted, the tie
// of the wildcard's deadlines going to the lower rank. The answers are
// the same at Workers 1, 2 and 3, whose partitions split the survivors
// differently.
func TestFailedPeerListsAcrossPartitions(t *testing.T) {
	const (
		n       = 9
		sleep   = 5 * vclock.Millisecond
		timeout = 100 * vclock.Millisecond // testNet's detection timeout
	)
	failures := map[int]vclock.Time{4: vclock.Time(vclock.Millisecond), 7: vclock.Time(2 * vclock.Millisecond)}
	wantFailed := map[int]vclock.Time{4: failures[4], 7: failures[7]}
	for _, workers := range []int{1, 2, 3} {
		answers := runFailWatchers(t, n, workers, vclock.Microsecond, failures, sleep, []int{4, AnySource})
		for rank, a := range answers {
			if a == nil {
				continue
			}
			if !maps.Equal(a.failed, wantFailed) || !slices.Equal(a.inComm, []int{4, 7}) || !slices.Equal(a.dead, []int{4, 7}) {
				t.Errorf("workers %d rank %d: failed peers %v, in comm %v, PeerFailed of %v; want %v, [4 7], [4 7]",
					workers, rank, a.failed, a.inComm, a.dead, wantFailed)
			}
			first := vclock.Time(sleep).Add(timeout)
			if want := []vclock.Time{first, first.Add(timeout)}; !slices.Equal(a.detect, want) || !slices.Equal(a.peers, []int{4, 4}) {
				t.Errorf("workers %d rank %d: detected %v at %v, want [4 4] at %v", workers, rank, a.peers, a.detect, want)
			}
		}
	}
}

// TestFailureBeforeFirstStepStaysUnseen covers program VPs whose state does
// not exist yet when a failure notification arrives. With zero-latency
// links a rank that fails at its first step notifies the partition at the
// same instant, before the ranks after it have taken theirs: those ranks
// never received the notification, so they never count the rank as failed,
// while the ranks that started before it and parked do.
func TestFailureBeforeFirstStepStaysUnseen(t *testing.T) {
	const n = 6
	answers := runFailWatchers(t, n, 1, 0, map[int]vclock.Time{3: 0}, vclock.Millisecond, nil)
	for rank, a := range answers {
		if a == nil {
			continue
		}
		_, seen := a.failed[3]
		if seen != (rank < 3) || slices.Contains(a.dead, 3) != seen || len(a.inComm) != len(a.dead) {
			t.Errorf("rank %d: failed peers %v, in comm %v, PeerFailed of %v; want rank 3 in each = %v",
				rank, a.failed, a.inComm, a.dead, rank < 3)
		}
	}
}
