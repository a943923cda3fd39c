package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"xsim/internal/core"
	"xsim/internal/vclock"
)

// The tests in this file walk the point-to-point paths on which a message
// no longer has an object of its own: its header rides in the envelope
// event, becomes an *envelope only when it has to wait unexpected, and
// becomes a *Message only when somebody reads it. Each script is written
// once as a Prog and run in both execution modes with Validate on.

// stage is one step of a rank's script: it is called until it reports done,
// returning the value to park on while it is not.
type stage func(e *Env) (done bool, park any)

// stagedProg runs its stages in order and finalizes.
type stagedProg struct {
	stages []stage
	pc     int
}

func (p *stagedProg) Step(e *Env, wake any) (any, bool) {
	for p.pc < len(p.stages) {
		done, park := p.stages[p.pc](e)
		if !done {
			return park, false
		}
		p.pc++
	}
	e.Finalize()
	return nil, true
}

// do wraps straight-line code that never parks.
func do(f func(e *Env)) stage {
	return func(e *Env) (bool, any) { f(e); return true, nil }
}

func sleepFor(d vclock.Duration) stage {
	var ss SleepState
	return func(e *Env) (bool, any) { return e.SleepStep(&ss, d) }
}

// waitAll waits on whatever *reqs holds when the stage is first reached and
// hands the wait's error to check.
func waitAll(reqs *[]*Request, check func(err error)) stage {
	var ws WaitState
	begun := false
	return func(e *Env) (bool, any) {
		if !begun {
			begun = true
			ws.Begin(*reqs...)
		}
		done, park, err := e.World().WaitallStep(&ws)
		if done {
			check(err)
		}
		return done, park
	}
}

// runBothModes runs script(rank) on every rank of an n-rank, one-partition
// Validate world, once stepped by the scheduler and once driven by
// Env.RunProg on closure VPs, and hands each finished world to check.
func runBothModes(t *testing.T, n int, failures map[int]vclock.Time, script func(mode string, rank int) []stage, check func(mode string, w *World, res *core.Result)) {
	t.Helper()
	for _, mode := range []string{"prog", "closure"} {
		_, w := newWorldT(t, n, 1, failures)
		var res *core.Result
		var err error
		if mode == "prog" {
			res, err = w.RunProgs(func(rank int) Prog { return &stagedProg{stages: script(mode, rank)} })
		} else {
			res, err = w.Run(func(e *Env) { e.RunProg(&stagedProg{stages: script(mode, e.Rank())}) })
		}
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		check(mode, w, res)
	}
}

func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// TestUnexpectedThenPostedDeliversAllThreeForms sends a payload-free eager
// message, an eager message with a payload and a rendezvous message before
// any receive is posted. All three wait as envelope objects; Iprobe and
// Probe see the earliest without consuming it; the receives posted
// afterwards match them in order and deliver the bytes; and the Message a
// request hands out is built once, survives TakeMsg and the request's Free.
func TestUnexpectedThenPostedDeliversAllThreeForms(t *testing.T) {
	small, big := pattern(32, 1), pattern(4096, 2) // testNet's eager threshold is 1 KiB
	reached := map[string]bool{}
	runBothModes(t, 2, nil, func(mode string, rank int) []stage {
		var reqs []*Request
		noErr := func(err error) {
			if err != nil {
				t.Errorf("%s rank %d: wait: %v", mode, rank, err)
			}
		}
		if rank == 0 {
			return []stage{
				do(func(e *Env) {
					c := e.World()
					r1, _ := c.IsendN(1, 7, 100)
					r2, _ := c.Isend(1, 8, small)
					r3, _ := c.Isend(1, 9, big)
					reqs = []*Request{r1, r2, r3}
				}),
				waitAll(&reqs, noErr),
			}
		}
		var ps ProbeState
		return []stage{
			sleepFor(vclock.Millisecond),
			do(func(e *Env) {
				c := e.World()
				if got := e.w.Metrics().UnexpectedMax; got != 3 {
					t.Errorf("%s: %d envelopes waiting unexpected, want 3", mode, got)
				}
				if m, ok, err := c.Iprobe(0, 8); err != nil || !ok || m.Tag != 8 || m.Size != len(small) {
					t.Errorf("%s: Iprobe(0, 8) = %+v, %v, %v", mode, m, ok, err)
				}
				if _, ok, _ := c.Iprobe(0, 10); ok {
					t.Errorf("%s: Iprobe saw a message nobody sent", mode)
				}
			}),
			func(e *Env) (bool, any) {
				done, park, m, err := e.World().ProbeStep(&ps, AnySource, AnyTag)
				if done && (err != nil || m.Src != 0 || m.Tag != 7 || m.Size != 100) {
					t.Errorf("%s: Probe(any, any) = %+v, %v, want the first arrival (tag 7)", mode, m, err)
				}
				return done, park
			},
			do(func(e *Env) {
				c := e.World()
				for _, tag := range []int{7, 8, 9} {
					r, err := c.Irecv(0, tag)
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, r)
				}
				if reqs[2].Done() || reqs[2].Msg() != nil {
					t.Errorf("%s: rendezvous receive done=%v msg=%v before its payload arrived", mode, reqs[2].Done(), reqs[2].Msg())
				}
			}),
			waitAll(&reqs, noErr),
			do(func(e *Env) {
				c := e.World()
				for i, want := range [][]byte{nil, small, big} {
					m := reqs[i].Msg()
					if m == nil || m != reqs[i].Msg() {
						t.Fatalf("%s: request %d: Msg() = %p, then %p", mode, i, m, reqs[i].Msg())
					}
					if m.Src != 0 || m.Tag != 7+i || !bytes.Equal(m.Data, want) {
						t.Errorf("%s: request %d delivered src %d tag %d and %d bytes", mode, i, m.Src, m.Tag, len(m.Data))
					}
				}
				if m := reqs[0].Msg(); m.Size != 100 || m.Data != nil {
					t.Errorf("%s: payload-free message reads %+v", mode, m)
				}
				// A taken message is the caller's: freeing the request, and
				// the request's reuse by the next receive, leave it alone.
				taken := reqs[2].TakeMsg()
				if reqs[2].Msg() != nil || reqs[2].TakeMsg() != nil {
					t.Errorf("%s: message still attached after TakeMsg", mode)
				}
				for _, r := range reqs {
					c.Free(r)
				}
				if r, _ := c.Irecv(0, 99); r != reqs[2] {
					t.Errorf("%s: freed request was not the next one handed out", mode)
				} else {
					c.Cancel(r)
				}
				if taken.Tag != 9 || !bytes.Equal(taken.Data, big) {
					t.Errorf("%s: taken message damaged by Free: tag %d, %d bytes", mode, taken.Tag, len(taken.Data))
				}
				taken.Release()
				if out := e.ps.dp.bufOut; out != 0 {
					t.Errorf("%s: %d payload bytes still checked out after every message was released", mode, out)
				}
				reached[mode] = true
			}),
		}
	}, func(mode string, w *World, res *core.Result) {
		if res.Completed != 2 || !reached[mode] {
			t.Errorf("%s: %d ranks completed, receiver finished its script: %v", mode, res.Completed, reached[mode])
		}
		if m := w.Metrics(); m.EagerMsgs != 2 || m.RendezvousMsgs != 1 {
			t.Errorf("%s: %d eager and %d rendezvous sends, want 2 and 1", mode, m.EagerMsgs, m.RendezvousMsgs)
		}
	})
}

// TestWildcardReceivesKeepArrivalOrder has three senders feed one rank's
// ANY_SOURCE/ANY_TAG receives twice: into receives posted beforehand, which
// match headers on arrival in post order, and into the unexpected queue,
// which blocking receives then drain in arrival order.
func TestWildcardReceivesKeepArrivalOrder(t *testing.T) {
	runBothModes(t, 4, nil, func(mode string, rank int) []stage {
		if rank != 0 {
			send := func(tag int) stage {
				return do(func(e *Env) {
					if _, err := e.World().IsendN(0, tag, rank); err != nil {
						t.Error(err)
					}
				})
			}
			at := vclock.Duration(rank) * 10 * vclock.Microsecond
			return []stage{sleepFor(at), send(10 + rank), sleepFor(200 * vclock.Microsecond), send(20 + rank)}
		}
		var reqs []*Request
		var rs RecvState
		recvNext := func(want int) stage {
			return func(e *Env) (bool, any) {
				done, park, m, err := e.World().RecvStep(&rs, AnySource, AnyTag)
				if done {
					if err != nil || m.Src != want || m.Tag != 20+want || m.Size != want {
						t.Errorf("%s: unexpected-queue receive = %+v, %v, want sender %d", mode, m, err, want)
					}
					m.Release()
				}
				return done, park
			}
		}
		return []stage{
			do(func(e *Env) {
				for i := 0; i < 3; i++ {
					r, err := e.World().Irecv(AnySource, AnyTag)
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, r)
				}
			}),
			waitAll(&reqs, func(err error) {
				for i, r := range reqs {
					if m := r.Msg(); err != nil || m.Src != i+1 || m.Tag != 11+i || m.Size != i+1 {
						t.Errorf("%s: posted receive %d = %+v, %v, want sender %d", mode, i, m, err, i+1)
					}
				}
			}),
			sleepFor(vclock.Millisecond),
			do(func(e *Env) {
				if got := e.w.Metrics().UnexpectedMax; got != 3 {
					t.Errorf("%s: %d envelopes waiting unexpected, want 3", mode, got)
				}
			}),
			recvNext(1), recvNext(2), recvNext(3),
		}
	}, func(mode string, w *World, res *core.Result) {
		if res.Completed != 4 {
			t.Errorf("%s: %d ranks completed", mode, res.Completed)
		}
	})
}

// TestDroppedMessagesReturnTheirBuffers covers the messages nobody
// receives: eager payloads and a rendezvous ready-to-send addressed to a
// rank that is already dead are deleted on arrival, and a payload still
// unexpected at Finalize is drained — every pooled buffer ends up back in
// the pool, whether it travelled in a box or waited in an envelope.
func TestDroppedMessagesReturnTheirBuffers(t *testing.T) {
	small, big := pattern(64, 3), pattern(4096, 4)
	failures := map[int]vclock.Time{2: vclock.Time(500 * vclock.Microsecond)}
	runBothModes(t, 3, failures, func(mode string, rank int) []stage {
		var reqs []*Request
		switch rank {
		case 0:
			return []stage{
				sleepFor(vclock.Millisecond),
				do(func(e *Env) {
					c := e.World()
					c.SetErrorHandler(ErrorsReturn)
					toDead, _ := c.Isend(2, 1, small)
					unread, _ := c.Isend(1, 2, small)
					rts, _ := c.Isend(2, 3, big)
					if !toDead.Done() || !unread.Done() || rts.Done() {
						t.Errorf("%s: eager sends done %v %v, rendezvous send done %v", mode, toDead.Done(), unread.Done(), rts.Done())
					}
					reqs = []*Request{toDead, unread, rts}
				}),
				waitAll(&reqs, func(err error) {
					var pf *ProcFailedError
					if !errors.As(err, &pf) || pf.Rank != 2 {
						t.Errorf("%s: rendezvous send to a dead rank completed with %v", mode, err)
					}
				}),
			}
		case 1:
			return []stage{
				sleepFor(2 * vclock.Millisecond),
				do(func(e *Env) {
					if m, ok, _ := e.World().Iprobe(0, 2); !ok || m.Size != len(small) {
						t.Errorf("%s: the unread message never arrived", mode)
					}
					if e.ps.dp.bufOut == 0 {
						t.Errorf("%s: no payload checked out while one waits unexpected", mode)
					}
				}),
			}
		default:
			return []stage{sleepFor(vclock.Second)} // dies at 0.5 ms
		}
	}, func(mode string, w *World, res *core.Result) {
		if res.Completed != 2 || res.Failed != 1 {
			t.Errorf("%s: %d completed, %d failed", mode, res.Completed, res.Failed)
		}
		if out := w.pools[0].bufOut; out != 0 {
			t.Errorf("%s: %d payload bytes never came back to the pool", mode, out)
		}
	})
}

// TestUnreadReceiveCreatesNoMessage is the modelled halo exchange's unit
// cost: a receive that is posted, matched on arrival, waited for and freed
// without anybody reading it takes its request from the pool and nothing
// else — no envelope, no Message, no allocation — whether the message is
// eager or a payload-free rendezvous, whose clear-to-send and data delivery
// are queue entries too. The send takes a request of its own only when it
// is a rendezvous: an eager send returns the shared eagerSent.
func TestUnreadReceiveCreatesNoMessage(t *testing.T) {
	for _, size := range []int{64, 4096} { // testNet's eager threshold is 1 KiB
		_, w := newWorldT(t, 1, 1, nil)
		w.validate = false // the sweeps format their keys
		const runs = 200
		var allocs float64
		var gets uint64
		if _, err := w.Run(func(e *Env) {
			defer e.Finalize()
			c, dp := e.World(), e.ps.dp
			poolGets := func() uint64 {
				return dp.envs.hits + dp.envs.misses + dp.reqs.hits + dp.reqs.misses + dp.msgs.hits + dp.msgs.misses
			}
			reqs := make([]*Request, 2)
			exchange := func() {
				reqs[0], _ = c.Irecv(0, 5)
				reqs[1], _ = c.IsendN(0, 5, size)
				if err := c.Waitall(reqs); err != nil {
					t.Error(err)
				}
				c.Free(reqs[0])
				c.Free(reqs[1])
			}
			exchange()
			before := poolGets()
			allocs = testing.AllocsPerRun(runs, exchange)
			gets = poolGets() - before
			if len(dp.msgs.free) != 0 || len(dp.envs.free) != 0 {
				t.Errorf("size %d: pool holds %d message headers and %d envelopes after a run that should have made none", size, len(dp.msgs.free), len(dp.envs.free))
			}
		}); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("size %d: %.1f allocations per exchange, want 0", size, allocs)
		}
		perExchange := 2 // the receive's request and the rendezvous send's
		if w.cfg.Net.Eager(size) {
			perExchange = 1 // the receive's alone
		}
		if want := uint64(perExchange * (runs + 1)); gets != want { // AllocsPerRun warms up once
			t.Errorf("size %d: %d pool gets for %d exchanges, want %d: %d requests each and nothing else", size, gets, runs+1, want, perExchange)
		}
	}
}

// controlCase is one script whose control messages (clear-to-send, data
// delivery, timeout, failure/abort/revoke notification) travel as bare
// queue entries. The expected errors and clocks were recorded from a run in
// which each of them still was a record of its own.
type controlCase struct {
	name     string
	n        int
	failures map[int]vclock.Time
	script   func(t *testing.T, mode string, rank int, errs []error) []stage
	check    func(t *testing.T, mode string, errs []error, res *core.Result)
}

func recvAndWait(t *testing.T, errs []error, rank int, comm func(e *Env) *Comm, src, tag int) []stage {
	var reqs []*Request
	return []stage{
		do(func(e *Env) {
			c := comm(e)
			c.SetErrorHandler(ErrorsReturn)
			e.World().SetErrorHandler(ErrorsReturn) // waitAll waits through the world communicator
			r, err := c.Irecv(src, tag)
			if err != nil {
				t.Fatal(err)
			}
			reqs = []*Request{r}
		}),
		waitAll(&reqs, func(err error) { errs[rank] = err }),
	}
}

func sendAndWait(t *testing.T, errs []error, rank int, dst, tag int, data []byte) []stage {
	var reqs []*Request
	return []stage{
		do(func(e *Env) {
			r, err := e.World().Isend(dst, tag, data)
			if err != nil {
				t.Fatal(err)
			}
			reqs = []*Request{r}
		}),
		waitAll(&reqs, func(err error) { errs[rank] = err }),
	}
}

func world(e *Env) *Comm { return e.World() }

// envsOut is the number of envelopes checked out of a pool: every one it
// ever made is a miss, and the tests here stay far below the list's cap.
func envsOut(dp *dpPool) int { return int(dp.envs.misses) - len(dp.envs.free) }

func wantProcFailed(t *testing.T, mode string, err error, rank int, failedAt vclock.Time) {
	t.Helper()
	var pf *ProcFailedError
	if !errors.As(err, &pf) || pf.Rank != rank || pf.FailedAt != failedAt {
		t.Errorf("%s: error %v, want rank %d failed at %v", mode, err, rank, failedAt)
	}
}

func wantClocks(t *testing.T, mode string, res *core.Result, want ...vclock.Time) {
	t.Helper()
	for r, at := range want {
		if res.FinalClocks[r] != at {
			t.Errorf("%s: rank %d ended at %d, want %d", mode, r, res.FinalClocks[r], at)
		}
	}
}

var controlCases = []controlCase{
	{
		// Both rendezvous forms into receives posted first: the payload
		// arrives boxed, the payload-free delivery as a bare queue entry.
		name: "rendezvous", n: 2,
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			big := pattern(4096, 8)
			var reqs []*Request
			post := func(e *Env) {
				c := e.World()
				var r1, r2 *Request
				if rank == 0 {
					r1, _ = c.Isend(1, 1, big)
					r2, _ = c.IsendN(1, 2, 2048)
				} else {
					r1, _ = c.Irecv(0, 1)
					r2, _ = c.Irecv(0, 2)
				}
				reqs = []*Request{r1, r2}
			}
			read := func(e *Env) {
				if rank == 0 {
					return
				}
				m1, m2 := reqs[0].TakeMsg(), reqs[1].TakeMsg()
				if !bytes.Equal(m1.Data, big) || m2.Size != 2048 || m2.Data != nil {
					t.Errorf("%s: delivered %d bytes and a payload-free %+v", mode, len(m1.Data), m2)
				}
				m1.Release()
				m2.Release()
			}
			return []stage{do(post), waitAll(&reqs, func(err error) { errs[rank] = err }), do(read)}
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			if errs[0] != nil || errs[1] != nil || res.Completed != 2 {
				t.Errorf("%s: waits returned %v, %d ranks completed", mode, errs, res.Completed)
			}
		},
	},
	{
		// The sender dies blocked in its wait; the receive posted afterwards
		// matches the ready-to-send still queued and answers a dead rank.
		name: "cts-to-dead-sender", n: 2,
		failures: map[int]vclock.Time{0: vclock.Time(500 * vclock.Microsecond)},
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			if rank == 0 {
				return sendAndWait(t, errs, rank, 1, 1, pattern(4096, 5))
			}
			return append([]stage{sleepFor(vclock.Millisecond)}, recvAndWait(t, errs, rank, world, 0, 1)...)
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			wantProcFailed(t, mode, errs[1], 0, vclock.Time(500*vclock.Microsecond))
			wantClocks(t, mode, res, 500000, 101000000)
		},
	},
	{
		// The receiver dies between its clear-to-send and the payload.
		name: "data-to-dead-receiver", n: 2,
		failures: map[int]vclock.Time{1: vclock.Time(20 * vclock.Microsecond)},
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			if rank == 1 {
				return recvAndWait(t, errs, rank, world, 0, 1)
			}
			return append(sendAndWait(t, errs, rank, 1, 1, pattern(64<<10, 6)), sleepFor(vclock.Millisecond))
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			if errs[0] != nil {
				t.Errorf("%s: send completed at clear-to-send time with %v", mode, errs[0])
			}
			wantClocks(t, mode, res, 1067536, 20000)
		},
	},
	{
		// A wildcard receive armed against dead rank 2 matches rank 0's
		// ready-to-send just before its timeout; the timeout wins and the
		// payload arrives for a request that is gone.
		name: "data-after-timeout", n: 3,
		failures: map[int]vclock.Time{2: 0},
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			switch rank {
			case 0:
				return append([]stage{sleepFor(100900 * vclock.Microsecond)}, sendAndWait(t, errs, rank, 1, 1, pattern(1<<20, 7))...)
			case 1:
				s := append([]stage{sleepFor(vclock.Millisecond)}, recvAndWait(t, errs, rank, world, AnySource, 1)...)
				return append(s, sleepFor(5*vclock.Millisecond))
			}
			return []stage{sleepFor(vclock.Second)}
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			if errs[0] != nil {
				t.Errorf("%s: send completed with %v", mode, errs[0])
			}
			wantProcFailed(t, mode, errs[1], 2, 0)
			wantClocks(t, mode, res, 101950576, 106000000, 0)
		},
	},
	{
		name: "revoke", n: 3,
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			var d *Comm
			dup := do(func(e *Env) { d = e.World().Dup().Dup() })
			if rank == 0 {
				return []stage{dup, sleepFor(vclock.Millisecond), do(func(e *Env) { d.Revoke() })}
			}
			return append([]stage{dup}, recvAndWait(t, errs, rank, func(*Env) *Comm { return d }, 0, 1)...)
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			for r := 1; r < 3; r++ {
				var rv *RevokedError
				if !errors.As(errs[r], &rv) || rv.Comm != 2 {
					t.Errorf("%s: rank %d's receive completed with %v, want communicator 2 revoked", mode, r, errs[r])
				}
			}
			wantClocks(t, mode, res, 1000000, 1001000, 1001000)
		},
	},
	abortCase(3), abortCase(-3),
}

func abortCase(code int) controlCase {
	return controlCase{
		name: fmt.Sprintf("abort(%d)", code), n: 3,
		script: func(t *testing.T, mode string, rank int, errs []error) []stage {
			if rank == 0 {
				return []stage{sleepFor(vclock.Millisecond), do(func(e *Env) { e.World().Abort(code) })}
			}
			return recvAndWait(t, errs, rank, world, 0, 1)
		},
		check: func(t *testing.T, mode string, errs []error, res *core.Result) {
			if res.Aborted != 3 {
				t.Errorf("%s: %d ranks aborted, want 3", mode, res.Aborted)
			}
			wantClocks(t, mode, res, 1000000, 1001000, 1001000)
		},
	}
}

// TestControlMessagesAreQueueEntries runs every control case in both modes
// with Validate on and checks that nothing the dropped or late control
// messages carried stays checked out of the pool.
func TestControlMessagesAreQueueEntries(t *testing.T) {
	for _, tc := range controlCases {
		errs := make([]error, tc.n)
		runBothModes(t, tc.n, tc.failures, func(mode string, rank int) []stage {
			return tc.script(t, tc.name+"/"+mode, rank, errs)
		}, func(mode string, w *World, res *core.Result) {
			tc.check(t, tc.name+"/"+mode, errs, res)
			if dp := w.pools[0]; dp.bufOut != 0 || envsOut(dp) != 0 {
				t.Errorf("%s/%s: %d payload bytes and %d envelopes never came back to the pool", tc.name, mode, dp.bufOut, envsOut(dp))
			}
			clear(errs)
		})
	}
}
