package mpi

import (
	"fmt"
	"math"

	"xsim/internal/core"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// envHeader is the matching unit travelling between processes. Both eager
// messages and rendezvous ready-to-send envelopes are control-sized, so
// envelopes from one sender arrive in send order and MPI's non-overtaking
// matching rule holds; an eager payload becomes available at dataAt, while
// a rendezvous payload is transferred only after the receiver matches.
//
// In flight a header is not an object: its scalars ride in the envelope
// event's Words (put) and handleEnvelope rebuilds it on its stack (take).
// Matching a posted receive reads it there and the message never owns
// anything but its queue slot.
type envHeader struct {
	commID      int
	src, dst    int // world ranks
	srcCommRank int // sender's rank within the communicator
	tag         int
	size        int

	// Eager fields. data is a pooled buffer owned by the header until
	// matching transfers it to the receiving request.
	data   []byte
	dataAt vclock.Time

	// Rendezvous fields.
	rendezvous bool
	sendReqID  uint64
}

// envelope is a header as a pooled object (dpPool), which means the
// message is unexpected: no receive was posted when it arrived, so it
// waits in two intrusive lists at once — its (comm, src) FIFO (bySrc) and
// its communicator's arrival-order list (byComm), so wildcard matching
// walks arrivals directly instead of scanning every source — until a
// receive takes it, its rank dies, or finalize drains it. An eager
// payload that arrived with it is in data, taken out of its box on
// arrival.
type envelope struct {
	envHeader

	// arriveSeq orders unexpected envelopes at the receiver.
	arriveSeq uint64

	// Unexpected-queue links: per-(comm, src) FIFO and per-communicator
	// arrival list.
	bySrc, byComm links[envelope]
}

// Everything the MPI layer has in flight is an event, its scalars in the
// event's four Words; a payload buffer travels as the handle of its box
// (World.box), 0 for none. The word layout of the seven kinds:
//
//	kindEnvelope     the envWord constants below
//	kindCts          send request id, receive request id, receiver's world rank
//	kindData         receive request id, box handle
//	kindReqTimeout   request id, failed peer, its time of failure
//	kindFailNotify   failed rank, its time of failure
//	kindAbortNotify  abort time
//	kindRevoke       communicator id
//
// An envelope's source and destination world ranks are the event's own Src
// (the sending VP emitted it) and Target. The other six are few enough
// scalars to be written and read by position.
const (
	envWordComm = iota // commID<<32 | sender's rank within the communicator
	envWordTag         // tag<<32 | box handle
	envWordSize        // size<<1 | rendezvous bit
	envWordData        // eager: dataAt; rendezvous: sendReqID
)

// put writes the header into the envelope event that carries it to its
// destination. box is the handle of the box holding h.data, 0 for
// payload-free messages. Each half-word field fits: a communicator id
// counts the communicators a rank created, a rank is below core's int32
// bound, and a tag is an int32 (isend). (Header and event are filled in
// place through pointers: both are large enough that returning them by
// value shows up as copying in the per-message profile.)
func (h *envHeader) put(ev *core.Event, at vclock.Time, box uint32) {
	ev.Time, ev.Kind, ev.Target = at, kindEnvelope, h.dst
	ev.Words[envWordComm] = uint64(h.commID)<<32 | uint64(uint32(h.srcCommRank))
	ev.Words[envWordTag] = uint64(uint32(h.tag))<<32 | uint64(box)
	ev.Words[envWordSize] = uint64(h.size) << 1
	if h.rendezvous {
		ev.Words[envWordSize] |= 1
		ev.Words[envWordData] = h.sendReqID
	} else {
		ev.Words[envWordData] = uint64(h.dataAt)
	}
}

// take rebuilds the header an envelope event carries, and returns the
// handle of its payload box, 0 if it has none.
func (h *envHeader) take(ev *core.Event) (box uint32) {
	h.commID = int(ev.Words[envWordComm] >> 32)
	h.src, h.dst = int(ev.Src), ev.Target
	h.srcCommRank = int(uint32(ev.Words[envWordComm]))
	h.tag = int(int32(ev.Words[envWordTag] >> 32))
	h.size = int(ev.Words[envWordSize] >> 1)
	if ev.Words[envWordSize]&1 != 0 {
		h.rendezvous = true
		h.sendReqID = ev.Words[envWordData]
	} else {
		h.dataAt = vclock.Time(ev.Words[envWordData])
	}
	return uint32(ev.Words[envWordTag])
}

// matchKey indexes posted receives and unexpected envelopes by
// communicator and source world rank, 32 bits each (as a Request keeps
// its source): the posted index holds eight of them per rank.
type matchKey struct{ comm, src int32 }

// keyOf returns the match key of a communicator id and source world rank.
func keyOf(comm, src int) matchKey { return matchKey{int32(comm), int32(src)} }

// postedInline is the number of (comm, src) posted-receive queues kept
// inline in procState. A 1-D halo exchange uses exactly 2 distinct sources,
// so that shape pays no allocation and no hashing — and at a million ranks
// every inline slot is ~32 bytes/rank of resident footprint, so the array
// stays minimal.
const postedInline = 2

// postedLinear is the number of further queues kept in one linearly scanned
// block before the index falls back on a map. The paper's application is a
// 3-D stencil with six sources: two inline and four in the block, one
// allocation and no hashing. Only fan-in roots (a linear barrier's root
// receives from every rank) ever reach the map.
const postedLinear = 6

// postedSpill holds the queues beyond the inline ones: a fixed block
// scanned linearly, then a map.
type postedSpill struct {
	n    int
	keys [postedLinear]matchKey
	qs   [postedLinear]list[Request]
	more map[matchKey]*list[Request]
}

// postedIdx indexes the per-(comm, src) posted-receive queues: an inline
// array of queue values, then a spill block, then a map, in the order the
// keys first appeared. Queue addresses are stable wherever a queue lives
// (the inline array is part of procState, which never moves; the block is
// allocated once; map queues are allocated one by one), so Request.postQ
// may point at them.
type postedIdx struct {
	n     int
	keys  [postedInline]matchKey
	qs    [postedInline]list[Request]
	spill *postedSpill
}

// get returns the queue for k, or nil if none was ever created.
func (ix *postedIdx) get(k matchKey) *list[Request] {
	for i := 0; i < ix.n; i++ {
		if ix.keys[i] == k {
			return &ix.qs[i]
		}
	}
	if sp := ix.spill; sp != nil {
		for i := 0; i < sp.n; i++ {
			if sp.keys[i] == k {
				return &sp.qs[i]
			}
		}
		return sp.more[k]
	}
	return nil
}

// getOrAdd returns the queue for k, creating it on first use in the first
// tier with room. Queues are retained once created.
func (ix *postedIdx) getOrAdd(k matchKey) *list[Request] {
	if q := ix.get(k); q != nil {
		return q
	}
	if ix.n < postedInline {
		ix.keys[ix.n] = k
		ix.n++
		return &ix.qs[ix.n-1]
	}
	if ix.spill == nil {
		ix.spill = new(postedSpill)
	}
	sp := ix.spill
	if sp.n < postedLinear {
		sp.keys[sp.n] = k
		sp.n++
		return &sp.qs[sp.n-1]
	}
	if sp.more == nil {
		sp.more = make(map[matchKey]*list[Request])
	}
	q := new(list[Request])
	sp.more[k] = q
	return q
}

// each visits every queue ever created (validation and finalize sweeps).
func (ix *postedIdx) each(f func(matchKey, *list[Request])) {
	for i := 0; i < ix.n; i++ {
		f(ix.keys[i], &ix.qs[i])
	}
	if sp := ix.spill; sp != nil {
		for i := 0; i < sp.n; i++ {
			f(sp.keys[i], &sp.qs[i])
		}
		for k, q := range sp.more {
			f(k, q)
		}
	}
}

// tagMatches reports whether a receive or probe for tag want accepts a
// message tagged got. AnyTag only spans the application tag space: internal
// messages (negative tags — barriers, collectives, ULFM) must never be
// intercepted by user wildcards, mirroring MPI's separate collective
// context.
func tagMatches(want, got int) bool {
	if want == AnyTag {
		return got >= 0
	}
	return want == got
}

// addPosted files a receive request into the posted index. It is called
// on the request whose id was issued last, so post order is id order.
func (ps *procState) addPosted(r *Request) {
	r.set(reqPosted)
	q := &ps.postedWild
	if r.src == AnySource {
		r.set(reqWild)
	} else {
		q = ps.posted.getOrAdd(matchKey{int32(r.comm.id), r.src})
	}
	q.push(r, postedAt)
	r.postQ = q
}

// removePosted unfiles a receive request in O(1) via its intrusive links
// (both the exact-source and wildcard lists unlink the same way); it is a
// no-op for requests that already matched.
func (ps *procState) removePosted(r *Request) {
	if !r.has(reqPosted) {
		return
	}
	r.clear(reqPosted)
	r.postQ.unlink(r, postedAt)
	r.postQ = nil
}

// takePosted finds and unfiles the posted receive an arriving header
// matches: the earliest-posted compatible request, considering both the
// exact-source list and wildcard receives (MPI's matching rule). Each list
// is in post order, so the first compatible entry of each is its
// candidate; the lower id (the earlier post) of the two wins.
func (ps *procState) takePosted(h *envHeader) *Request {
	var best *Request
	if q := ps.posted.get(keyOf(h.commID, h.src)); q != nil {
		for r := q.head; r != nil; r = r.posted.next {
			if tagMatches(int(r.tag), h.tag) {
				best = r
				break
			}
		}
	}
	for r := ps.postedWild.head; r != nil; r = r.posted.next {
		if r.comm.id == h.commID && tagMatches(int(r.tag), h.tag) {
			if best == nil || r.id < best.id {
				best = r
			}
			break
		}
	}
	if best != nil {
		ps.removePosted(best)
	}
	return best
}

// addUnexpected queues an envelope that matched no posted receive: into
// its (comm, src) FIFO and its communicator's arrival list.
func (ps *procState) addUnexpected(env *envelope) {
	c := ps.coldRec()
	c.arriveSeq++
	env.arriveSeq = c.arriveSeq
	k := keyOf(env.commID, env.src)
	sq := c.unexpBySrc[k]
	if sq == nil {
		if c.unexpBySrc == nil {
			c.unexpBySrc = make(map[matchKey]*list[envelope])
		}
		sq = new(list[envelope])
		c.unexpBySrc[k] = sq
	}
	sq.push(env, bySrcAt)
	aq := c.unexpByComm[env.commID]
	if aq == nil {
		if c.unexpByComm == nil {
			c.unexpByComm = make(map[int]*list[envelope])
		}
		aq = new(list[envelope])
		c.unexpByComm[env.commID] = aq
	}
	aq.push(env, byCommAt)
	ps.unexpectedDelta(1)
}

// removeUnexpected unlinks an envelope from both unexpected lists.
func (ps *procState) removeUnexpected(env *envelope) {
	ps.cold.unexpBySrc[keyOf(env.commID, env.src)].unlink(env, bySrcAt)
	ps.cold.unexpByComm[env.commID].unlink(env, byCommAt)
	ps.unexpectedDelta(-1)
}

// peekUnexpected finds (without consuming) the earliest-arrived unexpected
// envelope matching (comm, src, tag); src is a world rank or AnySource.
// Both branches are head hits in the common case: each list is in arrival
// order, so the first compatible entry is the earliest arrival — the
// exact-source branch walks the (comm, src) FIFO, and the wildcard branch
// walks the communicator's arrival list directly, making MPI_ANY_SOURCE
// matching O(compatible-head) instead of a scan over every source.
func (ps *procState) peekUnexpected(comm, src, tag int) *envelope {
	if src != AnySource {
		if q := ps.cold.unexpBySrc[keyOf(comm, src)]; q != nil {
			for env := q.head; env != nil; env = env.bySrc.next {
				if tagMatches(tag, env.tag) {
					return env
				}
			}
		}
		return nil
	}
	if q := ps.cold.unexpByComm[comm]; q != nil {
		for env := q.head; env != nil; env = env.byComm.next {
			if tagMatches(tag, env.tag) {
				return env
			}
		}
	}
	return nil
}

// takeUnexpected finds and removes the earliest-arrived envelope a freshly
// posted receive matches.
func (ps *procState) takeUnexpected(req *Request) *envelope {
	env := ps.peekUnexpected(req.comm.id, int(req.src), int(req.tag))
	if env != nil {
		ps.removeUnexpected(env)
	}
	return env
}

// drainUnexpected releases every queued unexpected envelope and its
// buffer — the unmatched-message release path, run at a clean Finalize
// and at process death.
func (ps *procState) drainUnexpected() {
	for _, q := range ps.cold.unexpByComm {
		for env := q.head; env != nil; {
			next := env.byComm.next
			ps.unexpectedDelta(-1)
			ps.dp.putBuf(env.data)
			ps.dp.envs.put(env)
			env = next
		}
		*q = list[envelope]{}
	}
	for _, q := range ps.cold.unexpBySrc {
		*q = list[envelope]{}
	}
}

// releaseIndexes drops the per-rank matching structures a dead rank no
// longer needs: the posted-receive index, the closure-mode step states,
// and the cold record with its unexpected-message map shells (their
// queues were just emptied by drainUnexpected), collective scratch and
// pending-lookup spill map. Every one of them is recreated on demand by
// its writer, so releasing an empty structure is behavior-neutral — and
// only empty ones are released: a failed rank that still has receives
// posted (or requests pending) keeps those structures, and with them the
// matching semantics for whatever is still in flight. At a million ranks the released maps are the dominant
// retained cost of a finished rank that ever received from more than
// postedInline distinct peers (the spill block and map go with the index).
func (ps *procState) releaseIndexes() {
	ps.env.scratch = nil
	if ps.postedWild.head == nil {
		empty := true
		ps.posted.each(func(_ matchKey, q *list[Request]) {
			if q.head != nil {
				empty = false
			}
		})
		if empty {
			ps.posted = postedIdx{}
		}
	}
	if ps.pending.head == nil {
		ps.cold = &noCold
	}
}

// pendSpillThreshold is the pending-set size past which id lookups switch
// from walking the intrusive list to the cold record's pendSpill map.
// Point-to-point shapes keep a handful of requests pending; fan-in
// collectives at the root can hold thousands at once.
const pendSpillThreshold = 32

// addPending files an incomplete request into the id-ordered pending list
// (ids are monotonic, so tail-append preserves the order the
// failure-notification scan depends on) and, once the set has ever grown
// past the spill threshold, into the lookup map.
func (ps *procState) addPending(r *Request) {
	r.set(reqPending)
	ps.pending.push(r, pendingAt)
	ps.pendLen++
	if sp := ps.cold.pendSpill; sp != nil {
		sp[r.id] = r
	} else if ps.pendLen > pendSpillThreshold {
		sp = make(map[uint64]*Request, 2*pendSpillThreshold)
		for q := ps.pending.head; q != nil; q = q.pending.next {
			sp[q.id] = q
		}
		ps.coldRec().pendSpill = sp
	}
}

// findPending returns the pending request with the given id, or nil. The
// common case walks the short list; ranks that ever spilled use the map.
func (ps *procState) findPending(id uint64) *Request {
	if sp := ps.cold.pendSpill; sp != nil {
		return sp[id]
	}
	for r := ps.pending.head; r != nil; r = r.pending.next {
		if r.id == id {
			return r
		}
	}
	return nil
}

// unlinkPending removes a request from the pending list (and spill map);
// it is a no-op for requests that are not pending (eager sends never are).
func (ps *procState) unlinkPending(r *Request) {
	if !r.has(reqPending) {
		return
	}
	r.clear(reqPending)
	delete(ps.cold.pendSpill, r.id) // a no-op on noCold's nil map
	ps.pendLen--
	ps.pending.unlink(r, pendingAt)
}

// emitter is whichever of the two contexts message matching runs in, each
// of which can emit events and read the current virtual time: a running VP
// (ctx), or an event handler (s) acting for the local rank the engine
// derives the emitted event's deterministic ordering key from (see
// core.SchedCtx.EmitFor), which keeps same-virtual-time tie-breaks
// independent of the partition layout. It is a plain struct passed by
// value: as an interface it cost one boxed adapter per matched message.
//
// Events are values: emit takes the core.Event by value and the engine
// copies it into the destination's event queue, so the MPI layer never
// holds a *core.Event of its own. What an event says travels in its scalar
// words (layout beside envHeader.put); the one object it may carry is a
// payload box, recycled by whoever consumes the event.
type emitter struct {
	ctx  *core.Ctx
	s    *core.SchedCtx
	rank int
}

func vpEmitter(ctx *core.Ctx) emitter { return emitter{ctx: ctx} }

func schedEmitter(s *core.SchedCtx, rank int) emitter { return emitter{s: s, rank: rank} }

func (em emitter) emit(ev core.Event) {
	if em.s != nil {
		em.s.EmitFor(em.rank, ev)
	} else {
		em.ctx.Emit(ev)
	}
}

func (em emitter) now() vclock.Time {
	if em.s != nil {
		return em.s.Now()
	}
	return em.ctx.NowQuiet()
}

// isend posts a nonblocking send and returns its request. Internal: the
// public wrappers apply the communicator's error handler.
func (c *Comm) isend(dstCommRank, tag, size int, data []byte) (*Request, error) {
	e := c.env
	e.chargeCall()
	if err := c.checkRevoked("send"); err != nil {
		return nil, err
	}
	if dstCommRank < 0 || dstCommRank >= c.n {
		return nil, fmt.Errorf("mpi: send destination rank %d out of range [0,%d)", dstCommRank, c.n)
	}
	if tag < 0 || tag > math.MaxInt32 {
		return nil, fmt.Errorf("mpi: send tag %d out of range [0,%d]", tag, math.MaxInt32)
	}
	return c.isendDP(dstCommRank, tag, size, data, false), nil
}

// eagerSent is the request every eager send in an untraced world returns:
// such a send is complete when Isend returns and nobody reads its request
// but Done, Wait and Free, so they all share this one, born done. Nothing
// writes to it — putReq and Free skip it, and Cancel and a wait only read
// a done request (its zero completeAt is behind every sender's clock). A
// traced world gives each eager send a request of its own: completeWait
// records the send's peer, size and completion time where a wait observes
// it.
var eagerSent = Request{kind: sendReq, flags: reqDone}

// isendDP posts a send with any tag value (internal tags are negative).
// Unless owned, data stays the caller's: the eager path copies it into a
// pooled buffer at post time, the rendezvous path reads it when the
// clear-to-send arrives (the MPI contract: the buffer is untouched until
// the send completes). Owned data is a pooled buffer the caller transfers
// to the MPI layer, with no copy at post or transfer time; the collective
// send hop uses it for encoded reductions.
func (c *Comm) isendDP(dstCommRank, tag, size int, data []byte, owned bool) *Request {
	e := c.env
	dp := e.ps.dp
	net := e.w.cfg.Net
	src := e.Rank()
	dst := c.WorldRank(dstCommRank)
	t0 := e.ctx.NowQuiet()
	eager := net.Eager(size)
	// An untraced eager send takes no request from the pool (eagerSent) but
	// still issues an id, so ids do not depend on which sends took one.
	req := &eagerSent
	if !eager || e.w.cfg.Tracer != nil {
		req = dp.reqs.get()
		req.id = e.ps.newReqID()
		req.kind = sendReq
		req.comm = c
		req.src, req.dst, req.tag = int32(src), int32(dst), int32(tag)
		req.size = size
		req.postClock = t0
	} else {
		e.ps.newReqID()
	}
	h := envHeader{commID: c.id, src: src, dst: dst, srcCommRank: c.rank, tag: tag, size: size}
	var ev core.Event
	dp.countSend(size, !eager)
	if e.w.cfg.Tracer != nil {
		ev := trace.Event{At: t0, Kind: trace.KindSend, Rank: int32(src), Peer: int32(dst), Tag: int32(tag), Size: int64(size)}
		if !eager {
			ev.Flags = trace.FlagRendezvous
		}
		e.w.cfg.Tracer.Record(ev)
	}
	if eager {
		// The payload travels with the envelope: transfer an owned
		// buffer outright, or copy the caller's bytes into a pooled one
		// (the caller may reuse its buffer immediately — a broadcast
		// root does exactly that), and park it in a box for the trip.
		var box uint32
		if data != nil {
			buf := data
			if !owned {
				buf = dp.getBuf(len(data))
				copy(buf, data)
			}
			if buf != nil {
				box = e.w.box(dp, buf)
			}
		}
		// Endpoint contention: the payload queues behind earlier
		// injections at this node's NIC.
		inject := t0
		if occ := net.InjectOccupancy(size); occ > 0 {
			inject = vclock.Max(t0, e.ps.coldRec().injectFreeAt)
			e.ps.cold.injectFreeAt = inject.Add(occ)
		}
		// One route for both times: the transfer time is the control
		// time plus serialisation (netmodel.TransferTime).
		ctl := net.ControlTime(src, dst)
		h.dataAt = inject.Add(ctl + net.SerializationTime(src, dst, size))
		h.put(&ev, t0.Add(ctl), box)
		e.ctx.Emit(ev)
		e.ctx.Elapse(net.SendOverhead(src, dst, size))
		// An eager send completes locally once the message is injected;
		// it never waits on the receiver (fire-and-forget buffering).
		if req != &eagerSent {
			req.set(reqDone)
			req.completeAt = e.ctx.NowQuiet()
		}
	} else {
		// Rendezvous: send the ready-to-send envelope and wait for the
		// receiver's clear-to-send before transferring the payload. No
		// snapshot is taken here — the payload is read at CTS time.
		h.rendezvous = true
		h.sendReqID = req.id
		if data != nil {
			c := req.coldRec(dp)
			c.data, c.ownedData = data, owned
		}
		e.ps.addPending(req)
		h.put(&ev, t0.Add(net.ControlTime(src, dst)), 0)
		e.ctx.Emit(ev)
		e.ctx.Elapse(net.SendOverhead(src, dst, 0))
	}
	return req
}

// irecv posts a nonblocking receive. Internal: the public wrappers apply
// the communicator's error handler.
func (c *Comm) irecv(srcCommRank, tag int) (*Request, error) {
	e := c.env
	e.chargeCall()
	if err := c.checkRevoked("recv"); err != nil {
		return nil, err
	}
	if srcCommRank != AnySource && (srcCommRank < 0 || srcCommRank >= c.n) {
		return nil, fmt.Errorf("mpi: receive source rank %d out of range [0,%d)", srcCommRank, c.n)
	}
	if (tag < 0 && tag != AnyTag) || tag > math.MaxInt32 {
		return nil, fmt.Errorf("mpi: receive tag %d must be in [0,%d] or AnyTag", tag, math.MaxInt32)
	}
	return c.irecvTag(srcCommRank, tag), nil
}

// irecvTag posts a receive with any tag value (internal tags are negative).
func (c *Comm) irecvTag(srcCommRank, tag int) *Request {
	e := c.env
	src := AnySource
	if srcCommRank != AnySource {
		src = c.WorldRank(srcCommRank)
	}
	req := e.ps.dp.reqs.get()
	req.id = e.ps.newReqID()
	req.kind = recvReq
	req.comm = c
	req.src, req.dst, req.tag = int32(src), int32(e.Rank()), int32(tag)
	req.postClock = e.ctx.NowQuiet()
	e.ps.addPending(req)
	e.w.trace(trace.Event{At: req.postClock, Kind: trace.KindRecvPost, Rank: int32(e.Rank()), Peer: int32(src), Tag: int32(tag)})
	// Match the earliest compatible unexpected envelope first (arrival
	// order preserves MPI's non-overtaking rule).
	if env := e.ps.takeUnexpected(req); env != nil {
		matchEnvelope(e.w, e.ps, req, &env.envHeader, vpEmitter(e.ctx))
		e.ps.dp.envs.put(env)
		if e.w.validate {
			e.ps.checkIndexes("irecv-match")
		}
		return req
	}
	e.ps.addPosted(req)
	if e.w.validate {
		e.ps.checkIndexes("irecv-post")
	}
	return req
}

// matchEnvelope binds a receive request to a message header, which the
// request now describes: the sender's rank, the tag and the size are
// recorded in the request (and, for an eager message, the pooled payload
// buffer moves there too), so whoever wants a *Message gets it built from
// the request (Request.Msg) and a receive nobody reads never has one.
// An eager request completes when the payload has arrived; for a
// rendezvous header a clear-to-send goes back to the sender and the request
// completes when the payload delivery event fires. It returns the wait the
// request was registered with if this completed it (see completeRequest).
func matchEnvelope(w *World, ps *procState, req *Request, h *envHeader, em emitter) *WaitState {
	req.src = int32(h.src)
	req.set(reqMatched)
	if h.srcCommRank != h.src || h.tag != int(req.tag) {
		c := req.coldRec(ps.dp)
		c.hdr, c.msgSrc, c.msgTag = true, int32(h.srcCommRank), int32(h.tag)
	}
	req.size = h.size
	if h.rendezvous {
		req.set(reqAwaitingData)
		net := w.cfg.Net
		// The clear-to-send leaves once both the envelope has arrived
		// (em.now() when matching on arrival) and the receive is posted
		// (postClock when the envelope waited in the unexpected queue).
		em.emit(core.Event{
			Time:   vclock.Max(em.now(), req.postClock).Add(net.ControlTime(h.dst, h.src)),
			Kind:   kindCts,
			Target: h.src,
			Words:  [core.EventWords]uint64{h.sendReqID, req.id, uint64(h.dst)},
		})
		return nil
	}
	if h.data != nil {
		req.coldRec(ps.dp).data = h.data
		h.data = nil
	}
	return completeRequest(ps, req, vclock.Max(req.postClock, h.dataAt), nil)
}

// completeRequest finalises a request at virtual time at. A send still
// owning a pooled buffer (an owned rendezvous send dying before its
// clear-to-send) releases it here. It returns the WaitState the request
// was registered with, nil for a request nobody is parked on: a handler
// wakes the rank exactly when that is the wait the rank is parked in
// (wakeIfWaiting).
func completeRequest(ps *procState, req *Request, at vclock.Time, err error) *WaitState {
	req.set(reqDone)
	req.clear(reqAwaitingData)
	req.completeAt = at
	if err != nil {
		req.coldRec(ps.dp).err = err
	}
	ws := req.waiter
	if ws != nil {
		ws.pending--
		req.waiter = nil
	}
	if c := req.cold; c != nil && req.kind == sendReq && c.data != nil {
		if c.ownedData {
			ps.dp.putBuf(c.data)
		}
		c.data, c.ownedData = nil, false
	}
	ps.unlinkPending(req)
	ps.removePosted(req)
	return ws
}

// waitReason describes a wait for deadlock reports: a single request in
// full, a wait on several as their count and the first listed of those
// still pending (the rest counted), so a report says whom each rank waits
// on. It is only called if a report is actually printed (see
// procState.BlockReason).
func waitReason(reqs []*Request) string {
	if len(reqs) == 1 {
		return "MPI wait: " + reqs[0].peerString()
	}
	const listed = 4
	s := fmt.Sprintf("MPI waitall: %d requests", len(reqs))
	sep, pending := ": ", 0
	for _, r := range reqs {
		if r.Done() {
			continue
		}
		if pending++; pending <= listed {
			s += sep + r.peerString()
			sep = ", "
		}
	}
	if pending > listed {
		s += fmt.Sprintf(" and %d more", pending-listed)
	}
	return s
}

// peerString names the peer, tag and communicator a request waits on.
func (r *Request) peerString() string {
	if r.kind == recvReq {
		return fmt.Sprintf("recv from %d tag %d (comm %d)", r.src, r.tag, r.comm.id)
	}
	return fmt.Sprintf("send to %d tag %d (comm %d)", r.dst, r.tag, r.comm.id)
}

// BlockReason renders the process's block reason lazily for deadlock
// reports: the wait fast path parks with the procState itself instead of
// formatting a string per block.
func (ps *procState) BlockReason() string {
	if ps.waiting != nil && len(ps.waiting.reqs) > 0 {
		return waitReason(ps.waiting.reqs)
	}
	if pr := ps.cold.probe; pr != nil {
		return fmt.Sprintf("MPI probe: src %d tag %d (comm %d)", pr.src, pr.tag, pr.comm)
	}
	return "MPI: blocked"
}

// wait blocks until every request completes, advancing the clock to the
// latest completion time. It returns the first error among the requests in
// request order. Internal: public wrappers apply the error handler. It is
// waitStep driven on the calling closure VP — except that a wait whose
// requests have all completed already (every eager Send, any Wait after a
// Waitall) finishes without touching the closure scratch, which is also
// what lets a program VP make such calls.
func (e *Env) wait(reqs ...*Request) error {
	e.chargeCall()
	if done, err := e.completeWait(reqs); done {
		return err
	}
	// The wait reads its set in place; reqs, the variadic, must not escape.
	cs := e.closure()
	cs.reqs = append(cs.reqs[:0], reqs...)
	ws := &cs.wait
	ws.Begin(cs.reqs...)
	ws.charged = true // the call overhead was charged above
	for {
		done, park, err := e.waitStep(ws)
		if done {
			clear(cs.reqs) // an idle scratch must not pin completed requests
			return err
		}
		e.Block(park)
	}
}

// detection is the failure-detection rule every blocking operation shares:
// an operation posted at postClock on src (a world rank, or AnySource for
// any peer) whose peer is known to have failed completes in error at
// max(post time, time of failure) + the network tier's timeout — the
// paper's purely timeout-based detection. Of several failed peers the
// earliest deadline wins, ties going to the lower rank, so the choice is
// deterministic whatever the map order; ok is false while no relevant peer
// is known to have failed. tof is the winner's time of failure.
func (ps *procState) detection(postClock vclock.Time, src int) (at vclock.Time, peer int, tof vclock.Time, ok bool) {
	self := ps.env.Rank()
	net := ps.env.w.cfg.Net
	at, peer = vclock.Never, -1
	consider := func(p int, t vclock.Time) {
		d := vclock.Max(postClock, t).Add(net.Timeout(self, p))
		if d < at || (d == at && p < peer) {
			at, peer, tof = d, p, t
		}
	}
	if src == AnySource {
		for _, f := range ps.failures() {
			consider(f.rank, f.tof)
		}
	} else if t, dead := ps.failedAt(src); dead {
		consider(src, t)
	}
	return at, peer, tof, peer >= 0
}

// armTimeout schedules the failure-detection timeout of a pending request
// whose peer is known to have failed, at the detection deadline but never
// before the failure is knowable at this process.
func (ps *procState) armTimeout(req *Request, em emitter) {
	if req.Done() || req.has(reqTimeoutScheduled) {
		return
	}
	at, peer, tof, ok := ps.detection(req.postClock, req.peer())
	if !ok {
		return
	}
	req.set(reqTimeoutScheduled)
	em.emit(core.Event{
		Time:   vclock.Max(at, em.now()),
		Kind:   kindReqTimeout,
		Target: ps.env.Rank(),
		Words:  [core.EventWords]uint64{req.id, uint64(peer), uint64(tof)},
	})
}
