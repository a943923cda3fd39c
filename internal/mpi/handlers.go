package mpi

import (
	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// Event handlers in this file receive a *core.Event that is valid for the
// call only: events are values owned by the engine's queue, and the engine
// hands each handler its own copy of the one being dispatched. Handlers
// read what they need (Time, Words) during the call and never store the
// event itself. Every kind's scalars are in Words (layout beside
// envHeader.put); an envelope or data event that carries bytes names the
// box they wait in by its handle, and its handler takes them out and frees
// the box (World.unbox) whatever becomes of the message.
//
// Two objects of the point-to-point path exist only on demand. An envelope
// object means "unexpected": a header that matches a posted receive on
// arrival is rebuilt on handleEnvelope's stack and never becomes one. A
// Message means "somebody asked": matching records the header in the
// Request, and Request.Msg builds the Message when it is read.

// localEnv returns the Env of a local, still-alive rank, or nil.
func localEnv(s *core.SchedCtx, rank int) *Env {
	if !s.Alive(rank) {
		return nil
	}
	e, _ := s.Data(rank).(*Env)
	return e
}

// wakeIfWaiting resumes the rank if it is parked in ws, the wait a request
// that just completed at time at was registered with (completeRequest's
// result; nil when nobody waits on the request).
func wakeIfWaiting(s *core.SchedCtx, e *Env, ws *WaitState, at vclock.Time) {
	if ws == nil || ws != e.waiting {
		return
	}
	if rank := e.Rank(); s.Blocked(rank) {
		s.Wake(rank, at, nil)
	}
}

// handleEnvelope delivers a message envelope at the receiver — eager,
// eager with a payload box, or rendezvous ready-to-send alike: match the
// first compatible posted receive, or queue it as unexpected, which is the
// only case that needs an envelope object. Envelopes to failed processes
// are deleted — once a simulated MPI process fails, all messages directed
// to it are dropped.
func (w *World) handleEnvelope(s *core.SchedCtx, ev *core.Event) {
	var h envHeader
	box := h.take(ev)
	dp := w.pools[s.Partition()]
	h.data = w.unbox(dp, box)
	e := localEnv(s, h.dst)
	if e == nil {
		dp.putBuf(h.data)
		return
	}
	// Endpoint contention: eager payloads serialise through the
	// receiver's NIC in arrival order (rendezvous payloads pay at the
	// data delivery instead — their envelope is control-sized).
	if !h.rendezvous {
		if occ := w.cfg.Net.EjectOccupancy(h.size); occ > 0 {
			start := vclock.Max(ev.Time, e.coldRec().ejectFreeAt)
			e.cold.ejectFreeAt = start.Add(occ)
			h.dataAt = vclock.Max(h.dataAt, e.cold.ejectFreeAt)
		}
	}
	if req := e.takePosted(&h); req != nil {
		ws := e.matchEnvelope(req, &h, schedEmitter(s, h.dst))
		if w.validate {
			k := keyOf(h.commID, h.srcCommRank)
			e.checkOp("envelope-match", &k, req, nil)
		}
		wakeIfWaiting(s, e, ws, req.completeAt)
		return
	}
	env := e.dp.envs.get()
	env.envHeader = h
	e.addUnexpected(env)
	if w.validate {
		k := keyOf(h.commID, h.srcCommRank)
		e.checkOp("envelope-unexpected", &k, nil, env)
	}
	// A blocked probe matching this envelope wakes to inspect it.
	if pr := e.cold.probe; pr != nil && pr.matchesEnvelope(&h) && s.Blocked(h.dst) {
		s.Wake(h.dst, ev.Time, nil)
	}
}

// handleCts completes the sender side of a rendezvous: the payload streams
// to the receiver, the send request completes once the payload has been
// injected. A clear-to-send reaching a failed sender is dropped; the
// receiver's request is released by the failure notification timeout.
func (w *World) handleCts(s *core.SchedCtx, ev *core.Event) {
	sendReqID, recvReqID, recvRank := ev.Words[0], ev.Words[1], int(ev.Words[2])
	sender := ev.Target
	e := localEnv(s, sender)
	if e == nil {
		return
	}
	req := e.findPending(sendReqID)
	if req == nil || req.Done() {
		return
	}
	net := w.cfg.Net
	src, dst := int(req.src), int(req.dst)
	// Endpoint contention: the payload queues behind the sender NIC's
	// earlier injections.
	start := ev.Time
	if occ := net.InjectOccupancy(req.size); occ > 0 {
		start = vclock.Max(start, e.coldRec().injectFreeAt)
		e.cold.injectFreeAt = start.Add(occ)
	}
	delivery := core.Event{
		Time:   start.Add(net.TransferTime(src, dst, req.size)),
		Kind:   kindData,
		Target: recvRank,
		Words:  [core.EventWords]uint64{recvReqID},
	}
	// The payload is read now, at clear-to-send time — the copy elided
	// at post. An owned buffer transfers outright; the caller's buffer
	// is copied into a pooled one (the sender is either blocked in Wait
	// or, for Isend, has promised not to touch it — MPI's contract).
	// Either way it travels boxed, like an eager payload.
	if c := req.cold; c != nil && c.data != nil {
		buf := c.data
		if !c.ownedData {
			buf = e.dp.getBuf(len(c.data))
			copy(buf, c.data)
		}
		delivery.Words[1] = uint64(w.box(e.dp, buf))
		c.data = nil
		c.ownedData = false
	}
	s.EmitFor(sender, delivery)
	ws := e.completeRequest(req, start.Add(net.SendOverhead(src, dst, req.size)), nil)
	if w.validate {
		e.checkOp("cts", nil, req, nil)
	}
	wakeIfWaiting(s, e, ws, req.completeAt)
}

// handleData delivers a rendezvous payload at the receiver.
func (w *World) handleData(s *core.SchedCtx, ev *core.Event) {
	dp := w.pools[s.Partition()]
	data := w.unbox(dp, uint32(ev.Words[1]))
	e := localEnv(s, ev.Target)
	if e == nil {
		dp.putBuf(data)
		return
	}
	req := e.findPending(ev.Words[0])
	if req == nil {
		// The request already completed in error (failure detection
		// timed out first); drop the late payload.
		dp.putBuf(data)
		return
	}
	at := ev.Time
	if occ := w.cfg.Net.EjectOccupancy(req.size); occ > 0 {
		start := vclock.Max(at, e.coldRec().ejectFreeAt)
		e.cold.ejectFreeAt = start.Add(occ)
		at = e.cold.ejectFreeAt
	}
	if data != nil {
		req.coldRec(e.dp).data = data
	}
	ws := e.completeRequest(req, at, nil)
	if w.validate {
		e.checkOp("data", nil, req, nil)
	}
	wakeIfWaiting(s, e, ws, req.completeAt)
}

// handleReqTimeout fires a failure-detection timeout: if the request is
// still incomplete, it completes in error after the simulated network
// communication timeout, which is how the simulated MPI layer detects
// process failures.
func (w *World) handleReqTimeout(s *core.SchedCtx, ev *core.Event) {
	reqID, peer, failedAt := ev.Words[0], int(ev.Words[1]), vclock.Time(ev.Words[2])
	e := localEnv(s, ev.Target)
	if e == nil {
		return
	}
	req := e.findRequest(reqID, ev.Words[3])
	if req == nil {
		return
	}
	ws := e.completeRequest(req, ev.Time, &ProcFailedError{Rank: peer, FailedAt: failedAt, Op: req.opName()})
	w.trace(trace.Event{At: ev.Time, Kind: trace.KindDetect, Rank: int32(ev.Target), Peer: int32(peer), Aux: int64(failedAt)})
	w.m.recordDetection(ev.Target, peer, ev.Time)
	if w.validate {
		e.checkIndexes("timeout")
	}
	wakeIfWaiting(s, e, ws, req.completeAt)
}

// handleFailNotify processes the simulator-internal failure notification
// at one partition: the failed rank and its time of failure go into the
// partition's failed-peer list, which every local process reads as its
// own, and failure-detection timeouts are armed for incomplete requests
// that involve the failed rank — releasing (and failing) unmatched
// receives, MPI_ANY_SOURCE receives, and waited-on sends, per the paper's
// detection design. Each rank arms them in request-id order.
func (w *World) handleFailNotify(s *core.SchedCtx, ev *core.Event) {
	failed, tof := int(ev.Words[0]), vclock.Time(ev.Words[1])
	dp := w.pools[s.Partition()]
	dp.failed = append(dp.failed, peerFailure{rank: failed, tof: tof}) // a rank dies, and is announced, once
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		e := localEnv(s, rank)
		if e == nil {
			continue
		}
		dp.walk = e.incomplete(dp.walk, func(r *Request) bool { return r.involves(failed) })
		for _, req := range dp.walk {
			e.armTimeout(req, schedEmitter(s, rank))
		}
		clear(dp.walk)
		// A blocked probe on the failed rank (or a wildcard probe) wakes
		// to observe the failure.
		if pr := e.cold.probe; pr != nil && (pr.src == failed || pr.src == AnySource) && s.Blocked(rank) {
			s.Wake(rank, ev.Time, nil)
		}
	}
}

// peerFailure is one entry of a partition's failed-peer list.
type peerFailure struct {
	rank int
	tof  vclock.Time
}

// failures returns the process's failed-peer list, in notification order.
// A process built after a notification arrived (a program VP's state is
// built at its first step) never received it, so the entries before its
// failBase are not its own.
func (e *Env) failures() []peerFailure { return e.dp.failed[e.failBase:] }

// failedAt returns the time of failure of a world rank this process has
// been notified of. The list grows by one entry per failure in the world,
// so a scan is enough while failures are few.
func (e *Env) failedAt(rank int) (tof vclock.Time, ok bool) {
	for _, f := range e.failures() {
		if f.rank == rank {
			return f.tof, true
		}
	}
	return 0, false
}

// handleAbortNotify processes the simulator-internal abort notification at
// one partition: every local process unwinds at its first clock update at
// or past the abort time; blocked processes are released immediately.
func (w *World) handleAbortNotify(s *core.SchedCtx, ev *core.Event) {
	at := vclock.Time(ev.Words[0])
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		if !s.Alive(rank) {
			continue
		}
		s.SetAbortAt(rank, at)
		if s.Blocked(rank) {
			s.Wake(rank, vclock.Max(at, ev.Time), nil)
		}
	}
}
