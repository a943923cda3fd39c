package mpi

import (
	"fmt"

	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// This file holds the MPI layer's blocking operations, each written once
// as a step function over a small resumable state, and the program
// execution mode built on them (World.RunProgs over the core engine's
// Program VPs). A parked program owns no goroutine and no stack, so that
// is the mode that scales a world to millions of simulated MPI processes.
//
// One body, two drivers. A blocking point is a step state: WaitState for
// Wait/Waitall (rendezvous sends park on the clear-to-send), RecvState and
// SendState for blocking point-to-point, ProbeState for MPI_Probe,
// SleepState for interruptible sleeps (checkpoint I/O charging), and
// CollectiveState (prog_coll.go) for barrier/bcast/reduce/allreduce/
// gather/scatter/allgather/alltoall and ULFM's shrink/agree. Its *Step
// function either finishes the operation or returns a park value.
//
//   - A Prog's Step runs MPI calls that complete without blocking — Irecv,
//     Isend/IsendN (rendezvous sends included), Elapse/Compute — calls the
//     *Step functions, and returns their park values to the scheduler.
//   - The closure-style blocking entry points (Comm.Wait/Waitall/Recv,
//     rendezvous Comm.Send, Comm.Probe, the collective methods and
//     Shrink/Agree, Env.Sleep) call the same *Step functions and hand the
//     park values to Env.Block, which parks the VP's goroutine.
//     Env.RunProg does that for a whole Prog.
//
// Env.Block is the only place the two differ: a program VP has no
// goroutine to park, so it panics there with a typed *ClosureOnlyError
// naming the op and rank. Closure-style calls that finish without parking
// (an eager Send, a Wait on completed requests) work on a program VP too.
// Comm.Abort unwinds the VP via panic, which the scheduler classifies, so
// programs may call it directly; a program that finishes without
// Env.Finalize fails the same way (progVP.Step calls Ctx.FailNow).

// Prog is a resumable MPI program: one simulated process expressed as
// explicit steps between waits. Step is called once to start (wake == nil)
// and once per resume; it returns (park, false) to park — park must be the
// value handed back by a *Step function — or (_, true) when the process is
// finished, after calling Env.Finalize.
type Prog interface {
	Step(e *Env, wake any) (park any, done bool)
}

// RunProgs executes one Prog per simulated process and drives the
// simulation to completion — the program-mode analogue of World.Run.
// newProg is called once per rank, in VP context, at the rank's first
// execution (lazy, like everything else about program VPs). A program
// that reports done without having called Env.Finalize is treated as a
// process failure, exactly as in Run.
func (w *World) RunProgs(newProg func(rank int) Prog) (*core.Result, error) {
	return w.checkRun(w.eng.RunPrograms(func(c *core.Ctx) core.Program {
		b := &progBundle{}
		initProcEnv(&b.procBundle, w, c)
		b.env.prog = true
		b.pv = progVP{env: &b.env, user: newProg(c.Rank())}
		return &b.pv
	}))
}

// ClosureOnlyError is the panic value Env.Block raises when a program VP
// reaches it — through a blocking MPI entry point (Comm.Recv, a rendezvous
// Comm.Send, Comm.Probe, a collective method, Comm.Shrink/Agree,
// Env.Sleep, Env.RunProg) that had to park: a program has no goroutine to
// block, so the error names the op and rank and points at the step-based
// form. Every operation of this package has one, and so has the
// replicated messaging above it; ulfm.RunWithRecovery, still written on
// the blocking calls, surfaces here when a program reaches it.
type ClosureOnlyError struct {
	// Op describes the blocking operation (e.g. "MPI wait: recv from 3
	// tag 0 (comm 0)", "MPI probe: src 1 tag -1 (comm 0)", "sleep").
	Op string
	// Rank is the world rank of the offending process.
	Rank int
}

// Error implements error.
func (e *ClosureOnlyError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s would block, which a program VP cannot do (closure-mode-only; use the step-based state instead)", e.Rank, e.Op)
}

// progBundle extends the per-process allocation with the program adapter,
// keeping program mode at one allocation per rank too.
type progBundle struct {
	procBundle
	pv progVP
}

// progVP adapts a Prog to the core engine's Program interface and applies
// the MPI layer's finalize discipline at completion.
type progVP struct {
	env  *Env
	user Prog
}

func (pv *progVP) Step(c *core.Ctx, wake any) (park any, done bool) {
	park, done = pv.user.Step(pv.env, wake)
	if done {
		if !pv.env.finalized {
			c.Logf("exited without MPI_Finalize: simulated MPI process failure")
			c.FailNow()
		}
		// The rank is done: drop the user program (and everything its
		// state machine pins — request slices, grids, wait sets) while
		// the per-process bundle lives on for post-run accounting. At a
		// million ranks the finished programs would otherwise be the
		// largest block of dead memory in the residual footprint.
		pv.user = nil
	}
	return park, done
}

// WaitState carries one wait (a Wait or Waitall) across steps: the request
// set being waited on, whether the per-call overhead has been charged, and
// a pending count maintained by request completion (completeRequest
// decrements it through Request.waiter), so a wake that does not finish
// the wait re-parks in O(1) instead of re-scanning the request set. It is
// embedded in the user's program state (or the closure scratch) and reused
// wait after wait. It keeps no copy of the set: the caller's slice is the
// one list of the wait's requests, so Begin never allocates.
type WaitState struct {
	reqs    []*Request // the caller's, until the wait completes
	charged bool
	// pending counts the tracked not-yet-complete requests; valid once
	// the wait has parked (waitStep's first not-done pass fills it).
	pending int
}

// Begin arms the wait for a new request set. Call it once per wait, then
// call WaitStep/WaitallStep from every step until it reports done; the
// wait reads reqs in place, so the caller leaves the slice's elements as
// they are until then. A pending request must appear at most once in the
// set; a completed one, such as the shared request of an eager send, may
// appear any number of times, since a wait only reads it. A set abandoned
// mid-wait is unregistered first, through the previous slice, which must
// therefore still hold that set: a completion wakes the rank parked on the
// wait the request is registered with, and must not mistake this one for
// it.
func (ws *WaitState) Begin(reqs ...*Request) {
	for _, r := range ws.reqs {
		if r != nil && r.waiter == ws {
			r.waiter = nil
		}
	}
	ws.reqs = reqs
	ws.charged = false
	ws.pending = 0
}

// completeWait finishes a wait whose requests have all completed: it
// advances the clock to the latest completion, traces the completions, and
// returns done with the first request error in request order. With any
// request still pending it reports done == false and does nothing.
func (e *Env) completeWait(reqs []*Request) (done bool, err error) {
	var latest vclock.Time
	for _, r := range reqs {
		if !r.Done() {
			return false, nil
		}
		if r.completeAt > latest {
			latest = r.completeAt
		}
	}
	e.ctx.AdvanceTo(latest)
	if e.w.cfg.Tracer != nil {
		for _, r := range reqs {
			ev := trace.Event{At: r.completeAt, Kind: trace.KindComplete, Rank: int32(e.Rank()), Peer: int32(r.peer()), Size: int64(r.size)}
			if r.kind == sendReq {
				ev.Flags |= trace.FlagSendOp
			}
			if err := r.Err(); err != nil {
				ev.Flags |= trace.FlagError
				ev.Detail = r.opName() + " err=" + err.Error()
			}
			e.w.cfg.Tracer.Record(ev)
		}
	}
	for _, r := range reqs {
		if err := r.Err(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// waitStep is the one implementation of a wait, one scheduling quantum at
// a time: it either completes the wait (done == true: the clock has
// advanced to the latest completion and err is the first request error in
// request order) or arms failure-detection timeouts and returns the park
// value to park on — a Prog returns it from Step, Env.wait hands it to
// Block. Wake-ups deliver no value: a wake with requests still pending
// re-parks in O(1) off the pending count, and the final wake re-examines
// the request set.
func (e *Env) waitStep(ws *WaitState) (done bool, park any, err error) {
	if ws.charged && ws.pending > 0 {
		// O(1) re-park: a completion woke the VP but the wait is not
		// done. No re-scan and no timeout re-arm is needed — timeouts
		// for peers that failed while parked are armed by the
		// failure-notification handler.
		e.ps.waiting = ws
		return false, e.ps, nil
	}
	if !ws.charged {
		e.chargeCall()
		ws.charged = true
	}
	if done, err = e.completeWait(ws.reqs); !done {
		// Before parking, register each pending request with this wait
		// (completion decrements pending in O(1)) and arm
		// failure-detection timeouts for requests that involve
		// already-known-failed peers; requests whose peer fails later
		// are armed by the notification handler.
		for _, r := range ws.reqs {
			if !r.Done() {
				if r.waiter != ws {
					r.waiter = ws
					ws.pending++
				}
				e.ps.armTimeout(r, vpEmitter(e.ctx))
			}
		}
		e.ps.waiting = ws
		return false, e.ps, nil
	}
	e.ps.waiting = nil
	// Drop the caller's slice: what it holds is the caller's to recycle
	// or reuse from here on.
	ws.reqs = nil
	return true, nil, err
}

// WaitallStep advances a program's wait on the request set armed by
// ws.Begin. Returns done == false with the park value to return from Step
// (the wait is still in progress), or done == true with the first error
// among the requests after the communicator's error handler ran (with
// ErrorsAreFatal a process-failure error aborts and this call does not
// return). The completed requests are the caller's to recycle or reuse,
// exactly as after Waitall.
func (c *Comm) WaitallStep(ws *WaitState) (done bool, park any, err error) {
	done, park, err = c.env.waitStep(ws)
	if done && err != nil {
		err = c.handleError(err)
	}
	return done, park, err
}

// WaitStep advances a program's wait on the single request armed by
// ws.Begin — the step form of Comm.Wait. On done it returns the received
// message for receives (nil for sends); like Wait, the request stays the
// caller's to Free or reuse.
func (c *Comm) WaitStep(ws *WaitState) (done bool, park any, msg *Message, err error) {
	req := ws.reqs[0] // waitStep drops the references on completion
	done, park, err = c.env.waitStep(ws)
	if !done {
		return false, park, nil, nil
	}
	if err != nil {
		return true, nil, nil, c.handleError(err)
	}
	return true, nil, req.Msg(), nil
}

// SleepState carries one interruptible sleep across steps, used e.g. to
// charge checkpoint-restore gate delays. Zero value ready; reused sleep
// after sleep.
type SleepState struct {
	armed bool
}

// SleepStep advances the sleep. The first call arms the wake timer and
// returns the park value to park on (or done immediately for d <= 0); the
// resume call reports done. The clock advances to the wake time on resume,
// with events due before the deadline (failure activations, aborts,
// message arrivals) processed in order.
func (e *Env) SleepStep(ss *SleepState, d vclock.Duration) (done bool, park any) {
	if ss.armed {
		ss.armed = false
		return true, nil
	}
	park, ok := e.ctx.SleepPark(d)
	if !ok {
		return true, nil
	}
	ss.armed = true
	return false, park
}

// RecvState carries one blocking receive across program steps: the step
// form of Comm.Recv. Zero value ready; reused receive after receive.
type RecvState struct{ hop hopState }

// RecvStep advances a blocking receive from src (or AnySource) with tag
// (or AnyTag). The first call posts the receive; src and tag are ignored
// on resume calls. On done the caller owns msg (Release it once
// consumed); a failed-process receive completes in error after the
// detection timeout, through the communicator's error handler.
func (c *Comm) RecvStep(rs *RecvState, src, tag int) (done bool, park any, msg *Message, err error) {
	if !rs.hop.inFlight() {
		req, err := c.irecv(src, tag)
		if err != nil {
			return true, nil, nil, c.handleError(err)
		}
		rs.hop.post(req)
	}
	done, park, msg, err = c.hopStep(&rs.hop)
	return done, park, msg, c.handleError(err)
}

// SendState carries one blocking send across program steps: the step form
// of Comm.Send/SendN. Zero value ready; reused send after send.
type SendState struct{ hop hopState }

// SendStep advances a blocking send of data to dst with tag. Eager sends
// complete on the first call; larger-than-threshold sends post the
// rendezvous envelope and park until the receiver's clear-to-send — data
// must stay untouched until done (the MPI contract; the payload is read
// at clear-to-send time). dst, tag, and data are ignored on resume calls.
func (c *Comm) SendStep(ss *SendState, dst, tag int, data []byte) (done bool, park any, err error) {
	return c.sendStep(ss, dst, tag, len(data), data)
}

// SendNStep is SendStep for a payload-free message of the given size.
func (c *Comm) SendNStep(ss *SendState, dst, tag, size int) (done bool, park any, err error) {
	return c.sendStep(ss, dst, tag, size, nil)
}

func (c *Comm) sendStep(ss *SendState, dst, tag, size int, data []byte) (done bool, park any, err error) {
	if !ss.hop.inFlight() {
		req, err := c.isend(dst, tag, size, data)
		if err != nil {
			return true, nil, c.handleError(err)
		}
		ss.hop.post(req)
	}
	done, park, _, err = c.hopStep(&ss.hop)
	return done, park, c.handleError(err)
}

// ProbeState carries one blocking probe (MPI_Probe) across steps. Zero
// value ready; reused probe after probe. The embedded probe record is
// registered by address, so a ProbeState must not be copied while a probe
// is in flight.
type ProbeState struct {
	begun     bool
	worldSrc  int
	tag       int
	postClock vclock.Time
	pr        probeRec
}

// ProbeStep advances a blocking probe for a message from src (or
// AnySource) with tag (or AnyTag); src and tag are ignored on resume
// calls. On done msg carries the envelope information without consuming
// the message. Probing a failed process completes in error at the
// detection deadline, exactly as a receive does: until then the probe
// stays parked, and a matching message that arrives first is what it
// returns.
func (c *Comm) ProbeStep(st *ProbeState, src, tag int) (done bool, park any, msg *Message, err error) {
	e := c.env
	if !st.begun {
		worldSrc, err := c.probeBegin(src)
		if err != nil {
			return true, nil, nil, c.handleError(err)
		}
		st.begun = true
		st.worldSrc = worldSrc
		st.tag = tag
		st.postClock = e.ctx.NowQuiet()
	}
	e.ps.coldRec().probe = nil
	if env := e.ps.peekUnexpected(c.id, st.worldSrc, st.tag); env != nil {
		st.begun = false
		return true, nil, &Message{Src: env.srcCommRank, Tag: env.tag, Size: env.size}, nil
	}
	st.pr = probeRec{comm: c.id, src: st.worldSrc, tag: st.tag}
	park = e.ps
	if at, peer, tof, ok := e.ps.detection(st.postClock, st.worldSrc); ok {
		now := e.ctx.NowQuiet()
		if at <= now {
			e.ctx.AdvanceTo(now)
			e.w.trace(trace.Event{At: now, Kind: trace.KindDetect, Rank: int32(e.Rank()), Peer: int32(peer), Aux: int64(tof)})
			e.w.m.recordDetection(e.Rank(), peer, now)
			st.begun = false
			return true, nil, nil, c.handleError(&ProcFailedError{Rank: peer, FailedAt: tof, Op: "probe"})
		}
		// Wait for the deadline; a matching envelope or another failure
		// notification wakes the probe before it.
		park, _ = e.ctx.SleepPark(at.Sub(now))
	}
	e.ps.cold.probe = &st.pr
	return false, park, nil, nil
}
