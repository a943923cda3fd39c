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

// localState returns the procState of a local, still-alive rank, or nil.
func localState(s *core.SchedCtx, rank int) *procState {
	if !s.Alive(rank) {
		return nil
	}
	ps, _ := s.Data(rank).(*procState)
	return ps
}

// wakeIfWaiting resumes the rank if it is parked in ws, the wait a request
// that just completed at time at was registered with (completeRequest's
// result; nil when nobody waits on the request).
func wakeIfWaiting(s *core.SchedCtx, ps *procState, ws *WaitState, at vclock.Time) {
	if ws == nil || ws != ps.waiting {
		return
	}
	if rank := ps.env.Rank(); s.Blocked(rank) {
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
	ps := localState(s, h.dst)
	if ps == nil {
		dp.putBuf(h.data)
		return
	}
	// Endpoint contention: eager payloads serialise through the
	// receiver's NIC in arrival order (rendezvous payloads pay at the
	// data delivery instead — their envelope is control-sized).
	if !h.rendezvous {
		if occ := w.cfg.Net.EjectOccupancy(h.size); occ > 0 {
			start := vclock.Max(ev.Time, ps.coldRec().ejectFreeAt)
			ps.cold.ejectFreeAt = start.Add(occ)
			h.dataAt = vclock.Max(h.dataAt, ps.cold.ejectFreeAt)
		}
	}
	if req := ps.takePosted(&h); req != nil {
		ws := matchEnvelope(w, ps, req, &h, schedEmitter(s, h.dst))
		if w.validate {
			ps.checkIndexes("envelope-match")
		}
		wakeIfWaiting(s, ps, ws, req.completeAt)
		return
	}
	env := ps.dp.envs.get()
	env.envHeader = h
	ps.addUnexpected(env)
	if w.validate {
		ps.checkIndexes("envelope-unexpected")
	}
	// A blocked probe matching this envelope wakes to inspect it.
	if pr := ps.cold.probe; pr != nil && pr.matchesEnvelope(&h) && s.Blocked(h.dst) {
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
	ps := localState(s, sender)
	if ps == nil {
		return
	}
	req := ps.findPending(sendReqID)
	if req == nil || req.Done() {
		return
	}
	net := w.cfg.Net
	src, dst := int(req.src), int(req.dst)
	// Endpoint contention: the payload queues behind the sender NIC's
	// earlier injections.
	start := ev.Time
	if occ := net.InjectOccupancy(req.size); occ > 0 {
		start = vclock.Max(start, ps.coldRec().injectFreeAt)
		ps.cold.injectFreeAt = start.Add(occ)
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
			buf = ps.dp.getBuf(len(c.data))
			copy(buf, c.data)
		}
		delivery.Words[1] = uint64(w.box(ps.dp, buf))
		c.data = nil
		c.ownedData = false
	}
	s.EmitFor(sender, delivery)
	ws := completeRequest(ps, req, start.Add(net.SendOverhead(src, dst, req.size)), nil)
	if w.validate {
		ps.checkIndexes("cts")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleData delivers a rendezvous payload at the receiver.
func (w *World) handleData(s *core.SchedCtx, ev *core.Event) {
	dp := w.pools[s.Partition()]
	data := w.unbox(dp, uint32(ev.Words[1]))
	ps := localState(s, ev.Target)
	if ps == nil {
		dp.putBuf(data)
		return
	}
	req := ps.findPending(ev.Words[0])
	if req == nil || req.Done() || !req.has(reqAwaitingData) {
		// The request already completed in error (failure detection
		// timed out first); drop the late payload.
		dp.putBuf(data)
		return
	}
	at := ev.Time
	if occ := w.cfg.Net.EjectOccupancy(req.size); occ > 0 {
		start := vclock.Max(at, ps.coldRec().ejectFreeAt)
		ps.cold.ejectFreeAt = start.Add(occ)
		at = ps.cold.ejectFreeAt
	}
	if data != nil {
		req.coldRec(ps.dp).data = data
	}
	ws := completeRequest(ps, req, at, nil)
	if w.validate {
		ps.checkIndexes("data")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleReqTimeout fires a failure-detection timeout: if the request is
// still pending, it completes in error after the simulated network
// communication timeout, which is how the simulated MPI layer detects
// process failures.
func (w *World) handleReqTimeout(s *core.SchedCtx, ev *core.Event) {
	reqID, peer, failedAt := ev.Words[0], int(ev.Words[1]), vclock.Time(ev.Words[2])
	ps := localState(s, ev.Target)
	if ps == nil {
		return
	}
	req := ps.findPending(reqID)
	if req == nil || req.Done() {
		return
	}
	ws := completeRequest(ps, req, ev.Time, &ProcFailedError{Rank: peer, FailedAt: failedAt, Op: req.opName()})
	w.trace(trace.Event{At: ev.Time, Kind: trace.KindDetect, Rank: int32(ev.Target), Peer: int32(peer), Aux: int64(failedAt)})
	w.m.recordDetection(ev.Target, peer, ev.Time)
	if w.validate {
		ps.checkIndexes("timeout")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleFailNotify processes the simulator-internal failure notification
// at one partition: the failed rank and its time of failure go into the
// partition's failed-peer list, which every local process reads as its
// own, and failure-detection timeouts are armed for pending requests that
// involve the failed rank — releasing (and failing) unmatched receives,
// MPI_ANY_SOURCE receives, and waited-on sends, per the paper's detection
// design.
func (w *World) handleFailNotify(s *core.SchedCtx, ev *core.Event) {
	failed, tof := int(ev.Words[0]), vclock.Time(ev.Words[1])
	dp := w.pools[s.Partition()]
	dp.failed = append(dp.failed, peerFailure{rank: failed, tof: tof}) // a rank dies, and is announced, once
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		ps := localState(s, rank)
		if ps == nil {
			continue
		}
		// The pending list is id-ordered and armTimeout never unlinks,
		// so walking it directly is deterministic and allocation-free.
		for req := ps.pending.head; req != nil; req = req.pending.next {
			if req.involves(failed) {
				ps.armTimeout(req, schedEmitter(s, rank))
			}
		}
		// A blocked probe on the failed rank (or a wildcard probe) wakes
		// to observe the failure.
		if pr := ps.cold.probe; pr != nil && (pr.src == failed || pr.src == AnySource) && s.Blocked(rank) {
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
func (ps *procState) failures() []peerFailure { return ps.dp.failed[ps.failBase:] }

// failedAt returns the time of failure of a world rank this process has
// been notified of. The list grows by one entry per failure in the world,
// so a scan is enough while failures are few.
func (ps *procState) failedAt(rank int) (tof vclock.Time, ok bool) {
	for _, f := range ps.failures() {
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
