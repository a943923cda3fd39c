package mpi

import (
	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// Event handlers in this file receive a *core.Event that is valid for the
// call only: events are values owned by the engine's queue, and the engine
// hands each handler its own copy of the one being dispatched. Handlers
// read what they need (Time, Words, Payload) during the call and never
// store the event itself. Payload values (payload boxes, CTS and data
// records, notifications) are independent objects and may be retained.
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
	ps := localState(s, h.dst)
	if ps == nil {
		dp := w.pools[s.Partition()]
		dp.putBuf(h.data)
		if box != nil {
			dp.putEnv(box)
		}
		return
	}
	// Endpoint contention: eager payloads serialise through the
	// receiver's NIC in arrival order (rendezvous payloads pay at the
	// data delivery instead — their envelope is control-sized).
	if !h.rendezvous {
		if occ := w.cfg.Net.EjectOccupancy(h.size); occ > 0 {
			start := vclock.Max(ev.Time, ps.ejectFreeAt)
			ps.ejectFreeAt = start.Add(occ)
			h.dataAt = vclock.Max(h.dataAt, ps.ejectFreeAt)
		}
	}
	if req := ps.takePosted(&h); req != nil {
		ws := matchEnvelope(w, ps, req, &h, schedEmitter(s, h.dst))
		if box != nil {
			ps.dp.putEnv(box)
		}
		if w.cfg.Validate {
			ps.checkIndexes("envelope-match")
		}
		wakeIfWaiting(s, ps, ws, req.completeAt)
		return
	}
	env := box
	if env == nil {
		env = ps.dp.getEnv()
	}
	env.envHeader = h
	ps.addUnexpected(env)
	if w.cfg.Validate {
		ps.checkIndexes("envelope-unexpected")
	}
	// A blocked probe matching this envelope wakes to inspect it.
	for _, pr := range ps.probes {
		if pr.matchesEnvelope(&h) && s.Blocked(h.dst) {
			s.Wake(h.dst, ev.Time, nil)
			break
		}
	}
}

// handleCts completes the sender side of a rendezvous: the payload streams
// to the receiver, the send request completes once the payload has been
// injected. A clear-to-send reaching a failed sender is dropped; the
// receiver's request is released by the failure notification timeout.
func (w *World) handleCts(s *core.SchedCtx, ev *core.Event) {
	cts := ev.Payload.(*ctsMsg)
	sender := ev.Target
	ps := localState(s, sender)
	if ps == nil {
		w.pools[s.Partition()].putCts(cts)
		return
	}
	req := ps.findPending(cts.sendReqID)
	if req == nil || req.done {
		ps.dp.putCts(cts)
		return
	}
	net := w.cfg.Net
	// Endpoint contention: the payload queues behind the sender NIC's
	// earlier injections.
	start := ev.Time
	if occ := net.InjectOccupancy(req.size); occ > 0 {
		start = vclock.Max(start, ps.injectFreeAt)
		ps.injectFreeAt = start.Add(occ)
	}
	// The payload is read now, at clear-to-send time — the copy elided
	// at post. An owned buffer transfers outright; the caller's buffer
	// is copied into a pooled one (the sender is either blocked in Wait
	// or, for Isend, has promised not to touch it — MPI's contract).
	dm := ps.dp.getDm()
	dm.recvReqID = cts.recvReqID
	if req.data != nil {
		if req.ownedData {
			dm.data = req.data
		} else {
			buf := ps.dp.getBuf(len(req.data))
			copy(buf, req.data)
			dm.data = buf
		}
		req.data = nil
		req.ownedData = false
	}
	s.EmitFor(sender, core.Event{
		Time:    start.Add(net.TransferTime(req.src, req.dst, req.size)),
		Kind:    kindData,
		Target:  cts.recvRank,
		Payload: dm,
	})
	ps.dp.putCts(cts)
	ws := completeRequest(ps, req, start.Add(net.SendOverhead(req.src, req.dst, req.size)), nil)
	if w.cfg.Validate {
		ps.checkIndexes("cts")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleData delivers a rendezvous payload at the receiver.
func (w *World) handleData(s *core.SchedCtx, ev *core.Event) {
	dm := ev.Payload.(*dataMsg)
	ps := localState(s, ev.Target)
	if ps == nil {
		dp := w.pools[s.Partition()]
		dp.putBuf(dm.data)
		dm.data = nil
		dp.putDm(dm)
		return
	}
	req := ps.findPending(dm.recvReqID)
	if req == nil || req.done || !req.awaitingData {
		// The request already completed in error (failure detection
		// timed out first); drop the late payload.
		ps.dp.putBuf(dm.data)
		dm.data = nil
		ps.dp.putDm(dm)
		return
	}
	at := ev.Time
	if occ := w.cfg.Net.EjectOccupancy(req.size); occ > 0 {
		start := vclock.Max(at, ps.ejectFreeAt)
		ps.ejectFreeAt = start.Add(occ)
		at = ps.ejectFreeAt
	}
	req.data = dm.data
	dm.data = nil
	ps.dp.putDm(dm)
	ws := completeRequest(ps, req, at, nil)
	if w.cfg.Validate {
		ps.checkIndexes("data")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleReqTimeout fires a failure-detection timeout: if the request is
// still pending, it completes in error after the simulated network
// communication timeout, which is how the simulated MPI layer detects
// process failures.
func (w *World) handleReqTimeout(s *core.SchedCtx, ev *core.Event) {
	to := ev.Payload.(reqTimeout)
	ps := localState(s, ev.Target)
	if ps == nil {
		return
	}
	req := ps.findPending(to.reqID)
	if req == nil || req.done {
		return
	}
	ws := completeRequest(ps, req, ev.Time, &ProcFailedError{Rank: to.peer, FailedAt: to.failedAt, Op: req.opName()})
	w.trace(trace.Event{At: ev.Time, Kind: trace.KindDetect, Rank: int32(ev.Target), Peer: int32(to.peer), Aux: int64(to.failedAt)})
	w.m.recordDetection(ev.Target, to.peer, ev.Time)
	if w.cfg.Validate {
		ps.checkIndexes("timeout")
	}
	wakeIfWaiting(s, ps, ws, req.completeAt)
}

// handleFailNotify processes the simulator-internal failure notification
// at one partition: every local process records the failed rank and its
// time of failure in its own failed-peer list, and failure-detection
// timeouts are armed for pending requests that involve the failed rank —
// releasing (and failing) unmatched receives, MPI_ANY_SOURCE receives, and
// waited-on sends, per the paper's detection design.
func (w *World) handleFailNotify(s *core.SchedCtx, ev *core.Event) {
	fn := ev.Payload.(failNotify)
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		ps := localState(s, rank)
		if ps == nil {
			continue
		}
		if old, ok := ps.failedPeers[fn.rank]; !ok || fn.at < old {
			if ps.failedPeers == nil {
				ps.failedPeers = make(map[int]vclock.Time)
			}
			ps.failedPeers[fn.rank] = fn.at
		}
		// The pending list is id-ordered and armTimeout never unlinks,
		// so walking it directly is deterministic and allocation-free.
		for req := ps.pendHead; req != nil; req = req.nNext {
			if req.involves(fn.rank) {
				ps.armTimeout(w, req, schedEmitter(s, rank))
			}
		}
		// A blocked probe on the failed rank (or a wildcard probe) wakes
		// to observe the failure.
		for _, pr := range ps.probes {
			if (pr.src == fn.rank || pr.src == AnySource) && s.Blocked(rank) {
				s.Wake(rank, ev.Time, nil)
				break
			}
		}
	}
}

// handleAbortNotify processes the simulator-internal abort notification at
// one partition: every local process unwinds at its first clock update at
// or past the abort time; blocked processes are released immediately.
func (w *World) handleAbortNotify(s *core.SchedCtx, ev *core.Event) {
	an := ev.Payload.(abortNotify)
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		if !s.Alive(rank) {
			continue
		}
		s.SetAbortAt(rank, an.at)
		if s.Blocked(rank) {
			s.Wake(rank, vclock.Max(an.at, ev.Time), nil)
		}
	}
}
