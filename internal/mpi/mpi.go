// Package mpi implements the simulated MPI layer: point-to-point messaging
// with tags, wildcards and nonblocking requests, linear (and, for ablation,
// tree-based) collectives, communicators, error handlers, and the paper's
// resilience semantics — simulated MPI process failure injection, purely
// timeout-based failure detection, simulator-internal failure/abort
// notification, and MPI abort.
//
// Simulated applications are Go functions of the form func(*Env); each runs
// inside a virtual process of the core engine with its own virtual clock.
// Communication time is charged by the network model, compute time by the
// processor model (Env.Compute / Env.Elapse).
package mpi

import (
	"fmt"

	"xsim/internal/vclock"
)

// Wildcards for Recv/Irecv source and tag matching.
const (
	// AnySource matches a message from any rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches a message with any tag (MPI_ANY_TAG).
	AnyTag = -1
)

// Message is a received message.
type Message struct {
	// Src is the sender's rank in the receiving communicator.
	Src int
	// Tag is the message tag.
	Tag int
	// Size is the payload size in bytes. Payload-free sends (SendN)
	// carry a Size but nil Data, which lets large-scale experiments
	// model traffic without allocating it.
	Size int
	// Data is the payload, or nil for payload-free messages. The
	// receiving process owns it; see Release.
	Data []byte

	// pool points back to the receiving partition's data-plane pool so
	// Release can recycle the header and payload; nil for messages that
	// did not come from a pool (probe results).
	pool *dpPool
}

// Release hands the message and its payload buffer back to the simulated
// MPI layer's buffer pool. It is optional — an unreleased message simply
// falls to the garbage collector — but releasing keeps oversubscribed
// runs allocation-free. After Release the message and its Data must not
// be used: the buffer will back a future message. Call it only from the
// process (simulated rank) that received the message.
func (m *Message) Release() {
	if m == nil {
		return
	}
	p := m.pool
	if p == nil {
		return
	}
	m.pool = nil
	data := m.Data
	m.Data = nil
	p.putBuf(data)
	p.msgs.put(m)
}

// ProcFailedError reports that an operation involved a failed simulated MPI
// process. Detection is purely timeout-based: the operation completes in
// error only after the configured network communication timeout (plus
// notification latency) has passed in virtual time.
type ProcFailedError struct {
	// Rank is the failed process's world rank.
	Rank int
	// FailedAt is the virtual time the process failed.
	FailedAt vclock.Time
	// Op names the operation that detected the failure.
	Op string
}

// Error implements error.
func (e *ProcFailedError) Error() string {
	return fmt.Sprintf("mpi: %s detected failure of rank %d (failed at %v)", e.Op, e.Rank, e.FailedAt)
}

// RevokedError reports that a communicator was revoked (ULFM extension).
type RevokedError struct {
	// Comm is the revoked communicator's id.
	Comm int
}

// Error implements error.
func (e *RevokedError) Error() string {
	return fmt.Sprintf("mpi: communicator %d revoked", e.Comm)
}

// reqKind distinguishes request flavours.
type reqKind uint8

const (
	recvReq reqKind = iota
	sendReq
)

// reqFlags is a request's state, one bit per flag.
type reqFlags uint8

const (
	// reqDone: the request has completed (successfully or not).
	reqDone reqFlags = 1 << iota
	// reqMatched marks a receive bound to a message header
	// (matchEnvelope) whose message has not been taken from the request.
	reqMatched
	// reqPending mirrors membership of the process's pending list: a
	// rendezvous send waiting for its clear-to-send, or a receive matched
	// to a rendezvous envelope and waiting for its data. (A one-element
	// list's links cannot say whether the request is on it.)
	reqPending
	// reqTimeoutScheduled dedupes failure-detection timeout events.
	reqTimeoutScheduled
	// reqWild marks a wildcard-source receive, filed in the wildcard list
	// while it waits for a match (Request.postQ).
	reqWild
)

// Request is a nonblocking operation handle (MPI_Request).
//
// Every rank holds six of these at every halo exchange (one per receive;
// its eager sends share eagerSent), all live at the same virtual instant,
// so the struct is kept to what every request uses: 96 bytes, one
// allocator size class. What only some requests need (a payload, a built
// Message, an error, a message header that differs from the posted one)
// lives in a reqCold record taken from the partition's pool on first use
// and returned at Free; a modelled, exact-source, payload-free exchange
// never takes one.
type Request struct {
	id   uint64
	comm *Comm

	// Matching fields in world ranks; src may be AnySource, tag AnyTag.
	// Both fit 32 bits: ranks are VP indices, and the tag space (internal
	// tags are small negatives, application and digest tags non-negative
	// ints checked at post) tops out below 2^31.
	src, dst, tag int32

	kind  reqKind
	flags reqFlags

	// size is the payload size: of a send as posted, of a receive as
	// matched.
	size int

	postClock  vclock.Time
	completeAt vclock.Time

	// cold is the record of the fields only some requests use; nil until
	// one of them is first set.
	cold *reqCold

	// An incomplete request sits in exactly one queue, through link: a
	// receive in its posted list until it matches, and after that only a
	// request with more to wait for in the process's pending list (see
	// reqPending). postQ is the posted list of a receive waiting for a
	// match — its (comm, src) key's or the wildcard list, each in post
	// order — and nil otherwise. Post order is id order: a receive is
	// filed the moment its id is issued.
	postQ *list[Request]
	link  links[Request]

	// waiter points at the WaitState tracking this request, so completion
	// can decrement its pending count, and tell whether to wake the rank,
	// in O(1) instead of a scan of the request set; nil for requests not
	// under a parked wait. Cleared at completion and by the free list's zeroing.
	waiter *WaitState
}

// reqCold holds a request's fields that only some requests use. A request
// takes one from its partition's dpPool (Request.coldRec) the first time
// it sets one of them and gives it back when the request is recycled.
type reqCold struct {
	// data is the payload: of a send as posted (until the transfer takes
	// it), of a receive as matched (from the payload's arrival until
	// somebody reads the message or frees the request). ownedData marks a
	// send whose buffer the MPI layer owns (a pooled buffer transferred by
	// an internal sender): it travels without copying and is released if
	// the send dies early.
	data      []byte
	ownedData bool

	// hdr marks msgSrc and msgTag valid: the received-message header of a
	// matched receive (the sender's rank in the communicator and the tag
	// it sent) where it differs from the request's own src and tag — a
	// wildcard tag, or a communicator whose ranks are not world ranks.
	hdr            bool
	msgSrc, msgTag int32

	// err is the completion error.
	err error
	// msg is the received message once somebody asked for it (Msg);
	// until then the header lives in the request and no Message exists.
	msg *Message
}

func (r *Request) has(f reqFlags) bool { return r.flags&f != 0 }
func (r *Request) set(f reqFlags)      { r.flags |= f }
func (r *Request) clear(f reqFlags)    { r.flags &^= f }

// coldRec returns the request's cold record, taking one from dp on first
// use.
func (r *Request) coldRec(dp *dpPool) *reqCold {
	if r.cold == nil {
		r.cold = dp.colds.get()
	}
	return r.cold
}

// msgSrc and msgTag return the received-message header of a matched
// receive.
func (r *Request) msgSrc() int {
	if c := r.cold; c != nil && c.hdr {
		return int(c.msgSrc)
	}
	return int(r.src)
}

func (r *Request) msgTag() int {
	if c := r.cold; c != nil && c.hdr {
		return int(c.msgTag)
	}
	return int(r.tag)
}

// Done reports whether the request has completed (successfully or not).
func (r *Request) Done() bool { return r.has(reqDone) }

// buildMsg builds the pooled Message of a completed, matched receive from
// the request (the payload buffer moves to it).
func (r *Request) buildMsg(dp *dpPool) *Message {
	m := dp.msgs.get()
	m.Src, m.Tag, m.Size, m.pool = r.msgSrc(), r.msgTag(), r.size, dp
	if c := r.cold; c != nil {
		m.Data, c.data = c.data, nil
	}
	return m
}

// Msg returns the received message of a completed receive request,
// building the pooled header from the request on first use (the payload
// buffer moves to it). It is nil for sends, for receives that completed
// without a match, while the request is in flight, and after TakeMsg. The
// message follows the usual ownership rules: the caller may keep it until
// Message.Release or until the request is handed to Comm.Free.
func (r *Request) Msg() *Message {
	if !r.has(reqMatched) || !r.Done() {
		return nil
	}
	dp := r.comm.env.dp
	c := r.coldRec(dp)
	if c.msg == nil {
		c.msg = r.buildMsg(dp)
	}
	return c.msg
}

// Err returns the request's error after completion, nil on success.
func (r *Request) Err() error {
	if r.cold == nil {
		return nil
	}
	return r.cold.err
}

// TakeMsg detaches and returns the received message of a completed
// receive request: the caller assumes ownership (and the eventual
// Message.Release), and a subsequent Comm.Free recycles only the request.
// It returns nil for sends, for requests still in flight, and when the
// message was already taken. A message nobody read before is built
// straight for the caller, without a cold record.
func (r *Request) TakeMsg() *Message {
	if !r.has(reqMatched) || !r.Done() {
		return nil
	}
	r.clear(reqMatched)
	if c := r.cold; c != nil && c.msg != nil {
		m := c.msg
		c.msg = nil
		return m
	}
	return r.buildMsg(r.comm.env.dp)
}

// releaseMsg drops whatever the request still holds of a received message:
// the materialised Message if somebody read it, else just the payload
// buffer, without ever building a header.
func (r *Request) releaseMsg(dp *dpPool) {
	r.clear(reqMatched)
	c := r.cold
	if c == nil {
		return
	}
	if c.msg != nil {
		c.msg.Release()
		c.msg = nil
	} else if r.kind == recvReq && c.data != nil {
		dp.putBuf(c.data)
		c.data = nil
	}
}

// opName names the request's operation for error messages.
func (r *Request) opName() string {
	if r.kind == recvReq {
		return "recv"
	}
	return "send"
}

// peer returns the world rank of the remote process the request involves
// (AnySource for wildcard receives that have not matched).
func (r *Request) peer() int {
	if r.kind == recvReq {
		return int(r.src)
	}
	return int(r.dst)
}

// involves reports whether the failure of world rank affects this pending
// request: a receive from that rank (or a wildcard receive, which the
// paper also releases, since the failed process can no longer send), or a
// send to that rank.
func (r *Request) involves(rank int) bool {
	if r.Done() {
		return false
	}
	if r.kind == recvReq {
		return int(r.src) == rank || r.src == AnySource
	}
	return int(r.dst) == rank
}
