package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"unsafe"

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
//	kindReqTimeout   request id, failed peer, its time of failure, Request.postedWord
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
// communicator and the source's rank in it, 32 bits each (as a Request
// keeps its source): the posted index holds eight of them per rank.
type matchKey struct{ comm, src int32 }

// keyOf returns the match key of a communicator id and source rank in
// that communicator.
func keyOf(comm, src int) matchKey { return matchKey{int32(comm), int32(src)} }

// srcInline is the number of (comm, src) queues a srcIndex keeps inline.
// A 1-D halo exchange uses exactly 2 distinct sources, so that shape pays
// no allocation and no hashing — and at a million ranks every inline slot
// of the posted index is ~32 bytes/rank of resident footprint, so the
// array stays minimal.
const srcInline = 2

// srcLinear is the number of further queues kept in one linearly scanned
// block before the index moves to its per-communicator tier. The paper's
// application is a 3-D stencil with six sources: two inline and four in
// the block, one allocation and no hashing. Only fan-in roots (a linear
// barrier's root receives from every rank) ever reach the next tier.
const srcLinear = 6

// mapQueueBytes is what one queue costs in a communicator's map: its
// separately allocated 16-byte list plus its map slot, a 4-byte key and an
// 8-byte pointer padded to 16, with the table's control bytes and
// load-factor slack (~40 B in all). A dense table costs one list value
// (16 B) per member, so a communicator's queues go dense once the map
// holds this many bytes' worth of the table: about 0.4 of its members.
const mapQueueBytes = 40

// srcIndex indexes per-(comm, src) FIFO queues of *T, for the posted
// receives (T = Request) and the unexpected envelopes (T = envelope):
// an inline array of queues, then a spill block, then per communicator a
// map by source rank that becomes a dense table indexed by source rank
// once it holds a large share of the communicator's members. A key lives
// in exactly one tier, the first that had room when it first appeared,
// and its queue is retained once created. Queue addresses are stable
// except at a communicator's move from map to dense table, which tells its
// caller where each moved queue now is (a posted receive records the list
// it sits in, Request.postQ). Every lookup is a scan of at most eight
// keys and the communicator list, then an index or a hash.
type srcIndex[T any] struct {
	n     int
	keys  [srcInline]matchKey
	qs    [srcInline]list[T]
	spill *srcSpill[T]
}

// srcSpill holds the queues beyond the inline ones: a fixed block scanned
// linearly, then the per-communicator tier behind one pointer, which keeps
// the block in the 160-byte size class every rank of the paper's halo
// exchange pays for.
type srcSpill[T any] struct {
	n     int
	keys  [srcLinear]matchKey
	qs    [srcLinear]list[T]
	comms *[]commQueues[T]
}

// commQueues holds one communicator's queues past the block: a map by
// source rank until it holds mapQueueBytes' worth of a dense table, then
// the table, indexed by source rank. A key's source is always below the n
// its getOrAdd caller passes (a posted receive's is a validated rank of its
// communicator, an unexpected envelope's its sender's rank in one no larger
// than the world, whose size file is given), so the table has a slot for
// every queue the map held.
type commQueues[T any] struct {
	comm  int32
	byMap map[int32]*list[T]
	dense []list[T]
}

// far returns comm's entry in the per-communicator tier, nil if it has none.
func (sp *srcSpill[T]) far(comm int32) *commQueues[T] {
	if sp.comms == nil {
		return nil
	}
	cs := *sp.comms
	for i := range cs {
		if cs[i].comm == comm {
			return &cs[i]
		}
	}
	return nil
}

// get returns the queue for k, or nil if none was ever created. In a
// communicator with a dense table every member's slot is a queue. The
// inline and block scans stay small enough to inline into every matching
// call; only a fan-in root calls on into the per-communicator tier.
func (ix *srcIndex[T]) get(k matchKey) *list[T] {
	for i := 0; i < ix.n; i++ {
		if ix.keys[i] == k {
			return &ix.qs[i]
		}
	}
	sp := ix.spill
	if sp == nil {
		return nil
	}
	for i := 0; i < sp.n; i++ {
		if sp.keys[i] == k {
			return &sp.qs[i]
		}
	}
	if sp.comms == nil {
		return nil
	}
	return sp.farGet(k)
}

// farGet returns the queue for k from the per-communicator tier, or nil.
// It is kept out of line so that get stays inlinable.
//
//go:noinline
func (sp *srcSpill[T]) farGet(k matchKey) *list[T] {
	cq := sp.far(k.comm)
	if cq == nil {
		return nil
	}
	if uint32(k.src) < uint32(len(cq.dense)) {
		return &cq.dense[k.src]
	}
	return cq.byMap[k.src]
}

// getOrAdd returns the queue for k, creating it on first use in the first
// tier with room. n bounds the sources of k's communicator: a table for
// it has n slots. moved, if not nil, is called on every queue a move to a
// dense table relocates, at its new address.
func (ix *srcIndex[T]) getOrAdd(k matchKey, n int, moved func(*list[T])) *list[T] {
	if q := ix.get(k); q != nil {
		return q
	}
	if ix.n < srcInline {
		ix.keys[ix.n] = k
		ix.n++
		return &ix.qs[ix.n-1]
	}
	if ix.spill == nil {
		ix.spill = new(srcSpill[T])
	}
	sp := ix.spill
	if sp.n < srcLinear {
		sp.keys[sp.n] = k
		sp.n++
		return &sp.qs[sp.n-1]
	}
	cq := sp.far(k.comm)
	if cq == nil {
		if sp.comms == nil {
			sp.comms = new([]commQueues[T])
		}
		*sp.comms = append(*sp.comms, commQueues[T]{comm: k.comm})
		cs := *sp.comms
		cq = &cs[len(cs)-1]
	}
	if cq.byMap == nil {
		cq.byMap = make(map[int32]*list[T])
	}
	q := new(list[T])
	cq.byMap[k.src] = q
	if cq.dense == nil && len(cq.byMap)*mapQueueBytes >= n*int(unsafe.Sizeof(list[T]{})) {
		cq.toDense(n, moved)
		return ix.get(k)
	}
	return q
}

// toDense moves a communicator's map queues into a table of n slots,
// indexed by source rank. A list value relocates as it is (nothing in it
// points at the list itself); moved re-points whatever records a queue's
// address.
func (cq *commQueues[T]) toDense(n int, moved func(*list[T])) {
	cq.dense = make([]list[T], n)
	for src, q := range cq.byMap {
		cq.dense[src] = *q
		if moved != nil {
			moved(&cq.dense[src])
		}
	}
	cq.byMap = nil
}

// each visits every queue: those ever created, and every slot of a dense
// table (validation, finalize and release sweeps).
func (ix *srcIndex[T]) each(f func(matchKey, *list[T])) {
	for i := 0; i < ix.n; i++ {
		f(ix.keys[i], &ix.qs[i])
	}
	sp := ix.spill
	if sp == nil {
		return
	}
	for i := 0; i < sp.n; i++ {
		f(sp.keys[i], &sp.qs[i])
	}
	if sp.comms == nil {
		return
	}
	for _, cq := range *sp.comms {
		for src := range cq.dense {
			f(matchKey{cq.comm, int32(src)}, &cq.dense[src])
		}
		for src, q := range cq.byMap {
			f(matchKey{cq.comm, src}, q)
		}
	}
}

// empty reports whether every queue of the index is empty.
func (ix *srcIndex[T]) empty() bool {
	empty := true
	ix.each(func(_ matchKey, q *list[T]) {
		if q.head != nil {
			empty = false
		}
	})
	return empty
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

// addPosted files a receive request into the posted index; srcCommRank is
// its source's rank in its communicator, or AnySource. It is called on the
// request whose id was issued last, so post order is id order.
func (e *Env) addPosted(r *Request, srcCommRank int) {
	q := &e.postedWild
	if r.src == AnySource {
		r.set(reqWild)
	} else {
		q = e.posted.getOrAdd(keyOf(r.comm.id, srcCommRank), r.comm.n, repointPosted)
	}
	q.push(r, reqAt)
	r.postQ = q
}

// repointPosted records a relocated posted-receive queue in each of its
// requests.
func repointPosted(q *list[Request]) {
	for r := q.head; r != nil; r = r.link.next {
		r.postQ = q
	}
}

// removePosted unfiles a receive request in O(1) via its intrusive links
// (both the exact-source and wildcard lists unlink the same way); it is a
// no-op for requests that already matched.
func (e *Env) removePosted(r *Request) {
	if r.postQ == nil {
		return
	}
	r.postQ.unlink(r, reqAt)
	r.postQ = nil
}

// takePosted finds and unfiles the posted receive an arriving header
// matches: the earliest-posted compatible request, considering both the
// exact-source list and wildcard receives (MPI's matching rule). Each list
// is in post order, so the first compatible entry of each is its
// candidate; the lower id (the earlier post) of the two wins.
func (e *Env) takePosted(h *envHeader) *Request {
	var best *Request
	if q := e.posted.get(keyOf(h.commID, h.srcCommRank)); q != nil {
		for r := q.head; r != nil; r = r.link.next {
			if tagMatches(int(r.tag), h.tag) {
				best = r
				break
			}
		}
	}
	for r := e.postedWild.head; r != nil; r = r.link.next {
		if r.comm.id == h.commID && tagMatches(int(r.tag), h.tag) {
			if best == nil || r.id < best.id {
				best = r
			}
			break
		}
	}
	if best != nil {
		e.removePosted(best)
	}
	return best
}

// arrivalList is one communicator's unexpected envelopes in arrival order.
type arrivalList struct {
	comm int
	q    list[envelope]
}

// arrivals returns comm's arrival list, nil if it has none.
func (c *procCold) arrivals(comm int) *list[envelope] {
	for i := range c.byComm {
		if c.byComm[i].comm == comm {
			return &c.byComm[i].q
		}
	}
	return nil
}

// file stamps an envelope's arrival and queues it into its (comm, src)
// FIFO and its communicator's arrival list. n bounds the source ranks of
// its communicator.
func (c *procCold) file(env *envelope, n int) {
	c.arriveSeq++
	env.arriveSeq = c.arriveSeq
	c.unexp.getOrAdd(keyOf(env.commID, env.srcCommRank), n, nil).push(env, bySrcAt)
	aq := c.arrivals(env.commID)
	if aq == nil {
		c.byComm = append(c.byComm, arrivalList{comm: env.commID})
		aq = &c.byComm[len(c.byComm)-1].q
	}
	aq.push(env, byCommAt)
}

// unfile unlinks a queued envelope from both of its lists.
func (c *procCold) unfile(env *envelope) {
	c.unexp.get(keyOf(env.commID, env.srcCommRank)).unlink(env, bySrcAt)
	c.arrivals(env.commID).unlink(env, byCommAt)
}

// peek finds (without consuming) the earliest-arrived queued envelope
// matching (comm, src, tag); src is a rank in the communicator or
// AnySource. Both branches are head hits in the common case: each list is
// in arrival order, so the first compatible entry is the earliest arrival
// — the exact-source branch walks the (comm, src) FIFO, and the wildcard
// branch walks the communicator's arrival list directly, making
// MPI_ANY_SOURCE matching O(compatible-head) instead of a scan over every
// source.
func (c *procCold) peek(comm, src, tag int) *envelope {
	if src != AnySource {
		if q := c.unexp.get(keyOf(comm, src)); q != nil {
			for env := q.head; env != nil; env = env.bySrc.next {
				if tagMatches(tag, env.tag) {
					return env
				}
			}
		}
		return nil
	}
	if q := c.arrivals(comm); q != nil {
		for env := q.head; env != nil; env = env.byComm.next {
			if tagMatches(tag, env.tag) {
				return env
			}
		}
	}
	return nil
}

// addUnexpected queues an envelope that matched no posted receive. An
// envelope names its communicator by id only, so its source index is
// bounded by the world's size, which bounds every communicator's ranks.
func (e *Env) addUnexpected(env *envelope) {
	e.coldRec().file(env, e.Size())
	e.unexpectedDelta(1)
}

// removeUnexpected unlinks an envelope from both unexpected lists.
func (e *Env) removeUnexpected(env *envelope) {
	e.cold.unfile(env)
	e.unexpectedDelta(-1)
}

// takeUnexpected finds and removes the earliest-arrived envelope a freshly
// posted receive from srcCommRank (or AnySource) matches.
func (e *Env) takeUnexpected(req *Request, srcCommRank int) *envelope {
	env := e.cold.peek(req.comm.id, srcCommRank, int(req.tag))
	if env != nil {
		e.removeUnexpected(env)
	}
	return env
}

// drainUnexpected releases every queued unexpected envelope and its
// buffer — the unmatched-message release path, run at a clean Finalize
// and at process death — and drops the emptied index.
func (e *Env) drainUnexpected() {
	c := e.cold
	if c == &noCold {
		return
	}
	for i := range c.byComm {
		for env := c.byComm[i].q.head; env != nil; {
			next := env.byComm.next
			e.unexpectedDelta(-1)
			e.dp.putBuf(env.data)
			e.dp.envs.put(env)
			env = next
		}
	}
	c.unexp, c.byComm = srcIndex[envelope]{}, nil
}

// releaseIndexes drops the per-rank matching structures a dead rank no
// longer needs: the posted-receive index, the closure-mode step states,
// and the cold record with its unexpected-message index (just emptied by
// drainUnexpected) and collective scratch.
// Every one of them is recreated on demand by its writer, so releasing an
// empty structure is behavior-neutral — and only empty ones are released:
// a failed rank that still has receives posted (or requests pending)
// keeps those structures, and with them the matching semantics for
// whatever is still in flight. At a million ranks the released tiers are
// the dominant retained cost of a finished rank that ever received from
// more than srcInline distinct peers.
func (e *Env) releaseIndexes() {
	e.scratch = nil
	posted := e.postedWild.head != nil || !e.posted.empty()
	if !posted {
		e.posted = srcIndex[Request]{}
	}
	if !posted && e.pending.head == nil {
		e.cold = &noCold
	}
}

// addPending files a request that has more to wait for — a rendezvous
// send until its clear-to-send, a receive matched to a rendezvous
// envelope until its data — into the pending list, in filing order. A
// receive waiting for a match is in its posted list instead. Only
// rendezvous transfers in flight are pending, and every message of the
// paper's workloads is eager, so the list is walked, never indexed.
func (e *Env) addPending(r *Request) {
	r.set(reqPending)
	e.pending.push(r, reqAt)
}

// findPending returns the pending request with the given id, or nil.
func (e *Env) findPending(id uint64) *Request {
	for r := e.pending.head; r != nil; r = r.link.next {
		if r.id == id {
			return r
		}
	}
	return nil
}

// unlinkPending removes a request from the pending list; it is a no-op
// for requests that are not pending (eager sends and receives that never
// matched a rendezvous envelope).
func (e *Env) unlinkPending(r *Request) {
	if !r.has(reqPending) {
		return
	}
	r.clear(reqPending)
	e.pending.unlink(r, reqAt)
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
	dp := e.dp
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
		req.id = e.newReqID()
		req.kind = sendReq
		req.comm = c
		req.src, req.dst, req.tag = int32(src), int32(dst), int32(tag)
		req.size = size
		req.postClock = t0
	} else {
		e.newReqID()
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
			inject = vclock.Max(t0, e.coldRec().injectFreeAt)
			e.cold.injectFreeAt = inject.Add(occ)
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
		e.addPending(req)
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
	req := e.dp.reqs.get()
	req.id = e.newReqID()
	req.kind = recvReq
	req.comm = c
	req.src, req.dst, req.tag = int32(src), int32(e.Rank()), int32(tag)
	req.postClock = e.ctx.NowQuiet()
	e.w.trace(trace.Event{At: req.postClock, Kind: trace.KindRecvPost, Rank: int32(e.Rank()), Peer: int32(src), Tag: int32(tag)})
	// Match the earliest compatible unexpected envelope first (arrival
	// order preserves MPI's non-overtaking rule).
	if env := e.takeUnexpected(req, srcCommRank); env != nil {
		e.matchEnvelope(req, &env.envHeader, vpEmitter(e.ctx))
		if e.w.validate {
			k := keyOf(env.commID, env.srcCommRank)
			e.checkOp("irecv-match", &k, req, nil)
		}
		e.dp.envs.put(env)
		return req
	}
	e.addPosted(req, srcCommRank)
	if e.w.validate {
		k := keyOf(c.id, srcCommRank)
		e.checkOp("irecv-post", &k, req, nil)
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
func (e *Env) matchEnvelope(req *Request, h *envHeader, em emitter) *WaitState {
	req.src = int32(h.src)
	req.set(reqMatched)
	if h.srcCommRank != h.src || h.tag != int(req.tag) {
		c := req.coldRec(e.dp)
		c.hdr, c.msgSrc, c.msgTag = true, int32(h.srcCommRank), int32(h.tag)
	}
	req.size = h.size
	if h.rendezvous {
		e.addPending(req)
		net := e.w.cfg.Net
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
		req.coldRec(e.dp).data = h.data
		h.data = nil
	}
	return e.completeRequest(req, vclock.Max(req.postClock, h.dataAt), nil)
}

// completeRequest finalises a request at virtual time at. A send still
// owning a pooled buffer (an owned rendezvous send dying before its
// clear-to-send) releases it here. It returns the WaitState the request
// was registered with, nil for a request nobody is parked on: a handler
// wakes the rank exactly when that is the wait the rank is parked in
// (wakeIfWaiting).
func (e *Env) completeRequest(req *Request, at vclock.Time, err error) *WaitState {
	req.set(reqDone)
	req.completeAt = at
	if err != nil {
		req.coldRec(e.dp).err = err
	}
	ws := req.waiter
	if ws != nil {
		ws.pending--
		req.waiter = nil
	}
	if c := req.cold; c != nil && req.kind == sendReq && c.data != nil {
		if c.ownedData {
			e.dp.putBuf(c.data)
		}
		c.data, c.ownedData = nil, false
	}
	e.unlinkPending(req)
	e.removePosted(req)
	return ws
}

// waitReason describes a wait for deadlock reports: a single request in
// full, a wait on several as their count and the first listed of those
// still pending (the rest counted), so a report says whom each rank waits
// on. It is only called if a report is actually printed (see
// Env.BlockReason).
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
// reports: the wait fast path parks with the Env itself instead of
// formatting a string per block.
func (e *Env) BlockReason() string {
	if e.waiting != nil && len(e.waiting.reqs) > 0 {
		return waitReason(e.waiting.reqs)
	}
	if pr := e.cold.probe; pr != nil {
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
func (e *Env) detection(postClock vclock.Time, src int) (at vclock.Time, peer int, tof vclock.Time, ok bool) {
	self := e.Rank()
	net := e.w.cfg.Net
	at, peer = vclock.Never, -1
	consider := func(p int, t vclock.Time) {
		d := vclock.Max(postClock, t).Add(net.Timeout(self, p))
		if d < at || (d == at && p < peer) {
			at, peer, tof = d, p, t
		}
	}
	if src == AnySource {
		for _, f := range e.failures() {
			consider(f.rank, f.tof)
		}
	} else if t, dead := e.failedAt(src); dead {
		consider(src, t)
	}
	return at, peer, tof, peer >= 0
}

// armTimeout schedules the failure-detection timeout of an incomplete
// request whose peer is known to have failed, at the detection deadline
// but never before the failure is knowable at this process.
func (e *Env) armTimeout(req *Request, em emitter) {
	if req.Done() || req.has(reqTimeoutScheduled) {
		return
	}
	at, peer, tof, ok := e.detection(req.postClock, req.peer())
	if !ok {
		return
	}
	req.set(reqTimeoutScheduled)
	em.emit(core.Event{
		Time:   vclock.Max(at, em.now()),
		Kind:   kindReqTimeout,
		Target: e.Rank(),
		Words:  [core.EventWords]uint64{req.id, uint64(peer), uint64(tof), req.postedWord()},
	})
}

// postedBit marks a timeout's fourth word as naming a posted list.
const postedBit = 1 << 63

// postedWord is what a timeout event carries for its request to be found
// again: for a receive waiting for a match, postedBit and its posted
// list's key (the communicator id above, the source's rank in it, or
// AnySource, below), and 0 for a request on the pending list. A receive
// that matches before the timeout fires moves to the pending list or
// completes, and findRequest looks there too.
func (r *Request) postedWord() uint64 {
	if r.postQ == nil {
		return 0
	}
	src := AnySource
	if !r.has(reqWild) {
		src = int(r.src)
		if g := r.comm.group; g != nil {
			src = slices.Index(g, src)
		}
	}
	return postedBit | uint64(r.comm.id)<<32 | uint64(uint32(src))
}

// findRequest returns the incomplete request with the given id, or nil:
// from the pending list, or, where word (postedWord) names one, from that
// posted list.
func (e *Env) findRequest(id, word uint64) *Request {
	if r := e.findPending(id); r != nil || word&postedBit == 0 {
		return r
	}
	q := &e.postedWild
	if k := keyOf(int(word>>32&math.MaxInt32), int(int32(word))); k.src != AnySource {
		if q = e.posted.get(k); q == nil {
			return nil
		}
	}
	for r := q.head; r != nil; r = r.link.next {
		if r.id == id {
			return r
		}
	}
	return nil
}

// incomplete collects into buf (emptied first) the process's incomplete
// requests that keep reports true, from the pending list, the posted index
// and the wildcard list, sorted by id: the order in which the failure,
// revocation and finalize walks act on them.
func (e *Env) incomplete(buf []*Request, keep func(*Request) bool) []*Request {
	buf = buf[:0]
	collect := func(q *list[Request]) {
		for r := q.head; r != nil; r = r.link.next {
			if keep(r) {
				buf = append(buf, r)
			}
		}
	}
	collect(&e.pending)
	collect(&e.postedWild)
	e.posted.each(func(_ matchKey, q *list[Request]) { collect(q) })
	slices.SortFunc(buf, func(a, b *Request) int { return cmp.Compare(a.id, b.id) })
	return buf
}
