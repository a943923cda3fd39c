package mpi

import (
	"fmt"
	"strings"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/vclock"
)

// failWalkProg is one rank of the failure-walk scenario. Rank 0 posts,
// before rank 1 fails, receives from world ranks 1, 2 and 3 on the world
// and on a split communicator whose ranks are the world's reversed, a
// wildcard receive, a rendezvous send to rank 1 and a receive matched to
// rank 1's rendezvous send (which then waits for data that never comes),
// and waits on all of them; once it knows of the failure it posts three
// more receives that involve rank 1 and waits on them. Rank 1 fails
// between its rendezvous send and the clear-to-send; ranks 2 and 3 satisfy
// rank 0's world receives from them; rank 2 then revokes the split
// communicator, which completes rank 0's receives on it in error.
type failWalkProg struct {
	phase     int
	sub, sub2 *Comm
	reqs      []*Request
	ws        WaitState
	ss        SleepState
	log       *[]string
}

const failWalkRanks = 6

func (p *failWalkProg) Step(e *Env, _ any) (any, bool) {
	w := e.World()
	rev := func(r int) int { return failWalkRanks - 1 - r }
	if p.phase == 0 {
		perm := make([]int, failWalkRanks)
		for i := range perm {
			perm[i] = rev(i)
		}
		p.sub, p.sub2 = w.Sub(perm), w.Sub(perm)
		for _, c := range []*Comm{w, p.sub, p.sub2} {
			c.SetErrorHandler(ErrorsReturn)
		}
		p.phase = 1
	}
	switch e.Rank() {
	case 0:
		for {
			switch p.phase {
			case 1:
				post := func(r *Request, err error) {
					if err != nil {
						panic(err)
					}
					p.reqs = append(p.reqs, r)
				}
				post(w.Irecv(1, 5))
				post(w.Irecv(2, 1))
				post(p.sub.Irecv(rev(1), 2))
				post(w.IsendN(1, 3, 1<<20))
				post(w.Irecv(AnySource, 9))
				post(p.sub.Irecv(rev(2), 2))
				post(w.Irecv(3, 1))
				post(p.sub.Irecv(rev(3), 2))
				post(w.Irecv(1, 7))
				*p.log = append(*p.log, walkOrder(e))
				p.ws.Begin(p.reqs...)
				p.phase = 2
			case 2, 4:
				if done, park, _ := w.WaitallStep(&p.ws); !done {
					return park, false
				}
				p.phase++
			case 3:
				n := len(p.reqs)
				for _, f := range []func() (*Request, error){
					func() (*Request, error) { return p.sub2.Irecv(rev(1), 4) },
					func() (*Request, error) { return w.Irecv(1, 8) },
					func() (*Request, error) { return w.Irecv(AnySource, 11) },
				} {
					r, err := f()
					if err != nil {
						panic(err)
					}
					p.reqs = append(p.reqs, r)
				}
				*p.log = append(*p.log, walkOrder(e))
				p.ws.Begin(p.reqs[n:]...)
				p.phase = 4
			case 5:
				for _, r := range p.reqs {
					*p.log = append(*p.log, fmt.Sprintf("request %d: armed %v, done at %d ns, err %T",
						r.id, r.has(reqTimeoutScheduled), int64(r.completeAt), r.Err()))
				}
				e.Finalize()
				return nil, true
			}
		}
	case 1:
		if p.phase == 1 {
			if _, err := w.IsendN(0, 5, 4096); err != nil {
				panic(err)
			}
			p.phase = 2
		}
		done, park := e.SleepStep(&p.ss, vclock.Second)
		if !done {
			return park, false
		}
	case 2, 3:
		for p.phase < 4 {
			if done, park := e.SleepStep(&p.ss, 150*vclock.Millisecond); !done {
				return park, false
			}
			switch p.phase {
			case 1:
				if err := w.SendN(0, 1, 8); err != nil {
					panic(err)
				}
				p.phase = 2
			case 2:
				if e.Rank() == 2 {
					p.sub.Revoke()
				}
				p.phase = 4
			}
		}
	}
	e.Finalize()
	return nil, true
}

// walkOrder logs the ids of the process's incomplete requests in the
// order the failure, revocation and finalize walks take them
// (Env.incomplete).
func walkOrder(e *Env) string {
	var ids []uint64
	for _, r := range e.incomplete(nil, func(*Request) bool { return true }) {
		ids = append(ids, r.id)
	}
	return fmt.Sprintf("walk order %v", ids)
}

// TestFailureWalksActInRequestOrder pins what the failure notification's
// timeout arming, the timeout lookup and the revocation walk do to a rank
// whose incomplete requests sit in every queue the MPI layer has: exact
// posted lists in the inline and spill tiers of two communicators, the
// wildcard list, and the pending list (a rendezvous send, and a receive
// waiting for rendezvous data). Each request's id, whether a timeout was
// armed for it, its completion time and its error are recorded, with the
// engine's event count and every rank's final clock, and must read the
// same in both execution modes at every worker count, and as they did
// when every incomplete request sat on the pending list.
//
// Those records are listed by id, and the walks' order does not show in
// them: one rank's timeouts armed for one failure fire at one instant and
// all complete before the rank resumes, and a revocation completes its
// requests in one handler. So the order the walks take the requests in is
// logged as well, once after each batch of posts, from every queue at
// once: it is id order, which keeps the walks' event order independent of
// which queue or tier holds a request.
func TestFailureWalksActInRequestOrder(t *testing.T) {
	const want = `walk order [1 2 3 4 5 6 7 8 9]
walk order [10 11 12]
request 1: armed true, done at 100001500 ns, err *mpi.ProcFailedError
request 2: armed false, done at 150001008 ns, err <nil>
request 3: armed true, done at 100001500 ns, err *mpi.ProcFailedError
request 4: armed true, done at 100001500 ns, err *mpi.ProcFailedError
request 5: armed true, done at 100001500 ns, err *mpi.ProcFailedError
request 6: armed false, done at 300001008 ns, err *mpi.RevokedError
request 7: armed false, done at 150001008 ns, err <nil>
request 8: armed false, done at 300001008 ns, err *mpi.RevokedError
request 9: armed true, done at 100001500 ns, err *mpi.ProcFailedError
request 10: armed true, done at 400001008 ns, err *mpi.ProcFailedError
request 11: armed true, done at 400001008 ns, err *mpi.ProcFailedError
request 12: armed true, done at 400001008 ns, err *mpi.ProcFailedError`
	// A failure notification and a revocation are one event per partition.
	const clocks = "final clocks [400001008 1500 300000008 300000008 0 0]"
	wantRun := map[int]string{1: "21 events, " + clocks, 2: "23 events, " + clocks, 3: "25 events, " + clocks}
	for _, prog := range []bool{false, true} {
		for _, workers := range []int{1, 2, 3} {
			var log []string
			newProg := func(int) Prog { return &failWalkProg{log: &log} }
			ecfg := core.Config{NumVPs: failWalkRanks, Workers: workers, Lookahead: vclock.Microsecond, Validate: true}
			eng, err := core.New(ecfg)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(eng, WorldConfig{Net: testNet(failWalkRanks), Proc: procmodel.Paper()})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.ScheduleFailure(1, vclock.Time(1500)); err != nil {
				t.Fatal(err)
			}
			var res *core.Result
			if prog {
				res, err = w.RunProgs(newProg)
			} else {
				res, err = w.Run(func(e *Env) { e.RunProg(newProg(e.Rank())) })
			}
			if err != nil {
				t.Fatalf("prog=%v workers=%d: %v", prog, workers, err)
			}
			if res.Failed != 1 || res.Completed != failWalkRanks-1 {
				t.Fatalf("prog=%v workers=%d: result %+v, want rank 1 failed and the rest completed", prog, workers, res)
			}
			if got := strings.Join(log, "\n"); got != want {
				t.Errorf("prog=%v workers=%d: rank 0's requests read\n%s\nwant\n%s", prog, workers, got, want)
			}
			got := fmt.Sprintf("%d events, final clocks %d", eng.Metrics().EventsDispatched, res.FinalClocks)
			if got != wantRun[workers] {
				t.Errorf("prog=%v workers=%d: %s, want %s", prog, workers, got, wantRun[workers])
			}
		}
	}
}
