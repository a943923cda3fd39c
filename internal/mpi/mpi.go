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

// Request is a nonblocking operation handle (MPI_Request).
type Request struct {
	id   uint64
	comm *Comm

	// Matching fields in world ranks; src may be AnySource, tag AnyTag.
	src, dst int
	tag      int

	postClock vclock.Time
	// size and data are the payload: of a send as posted (data until the
	// transfer takes it), of a receive as matched (data from the payload's
	// arrival until somebody reads the message or frees the request).
	size int
	data []byte

	// msgSrc and msgTag complete the received-message header of a matched
	// receive: the sender's rank in the communicator and the tag it sent.
	msgSrc, msgTag int

	// Completion state.
	completeAt vclock.Time
	err        error
	// msg is the received message once somebody asked for it (Msg);
	// until then the header lives in the fields above and no Message
	// exists.
	msg *Message

	kind reqKind
	done bool
	// matched marks a receive bound to a message header (matchEnvelope)
	// whose message has not been taken from the request.
	matched bool
	// pending mirrors membership of the process's pending list.
	pending bool
	// awaitingData marks a recv matched to a rendezvous envelope whose
	// data transfer is still in flight.
	awaitingData bool
	// timeoutScheduled dedupes failure-detection timeout events.
	timeoutScheduled bool
	// ownedData marks a send whose data buffer the MPI layer owns (a
	// pooled buffer transferred by an internal sender): it travels
	// without copying and is released if the send dies early.
	ownedData bool

	// Posted-receive index bookkeeping: an intrusive doubly-linked list
	// per (comm, src) key (or the wildcard list), in post order.
	posted       bool
	wild         bool
	postSeq      uint64
	postQ        *reqQ
	pNext, pPrev *Request

	// Pending-table links: every incomplete request sits in the
	// id-ordered pending list (ids are monotonic, so appending keeps the
	// order) alongside the id-keyed map.
	nNext, nPrev *Request

	// waiter points at the WaitState tracking this request, so completion
	// can decrement its pending count, and tell whether to wake the rank,
	// in O(1) instead of a scan of the request set; nil for requests not
	// under a parked wait. Cleared at completion and by the free list's zeroing.
	waiter *WaitState
}

// Done reports whether the request has completed (successfully or not).
func (r *Request) Done() bool { return r.done }

// Msg returns the received message of a completed receive request,
// building the pooled header from the request on first use (the payload
// buffer moves to it). It is nil for sends, for receives that completed
// without a match, while the request is in flight, and after TakeMsg. The
// message follows the usual ownership rules: the caller may keep it until
// Message.Release or until the request is handed to Comm.Free.
func (r *Request) Msg() *Message {
	if r.msg == nil && r.matched && r.done {
		dp := r.comm.env.ps.dp
		m := dp.msgs.get()
		m.Src, m.Tag, m.Size, m.Data, m.pool = r.msgSrc, r.msgTag, r.size, r.data, dp
		r.data = nil
		r.msg = m
	}
	return r.msg
}

// Err returns the request's error after completion, nil on success.
func (r *Request) Err() error { return r.err }

// TakeMsg detaches and returns the received message of a completed
// receive request: the caller assumes ownership (and the eventual
// Message.Release), and a subsequent Comm.Free recycles only the request.
// It returns nil for sends, for requests still in flight, and when the
// message was already taken.
func (r *Request) TakeMsg() *Message {
	m := r.Msg()
	if m != nil {
		r.msg = nil
		r.matched = false
	}
	return m
}

// releaseMsg drops whatever the request still holds of a received message:
// the materialised Message if somebody read it, else just the payload
// buffer, without ever building a header.
func (r *Request) releaseMsg(dp *dpPool) {
	if r.msg != nil {
		r.msg.Release()
		r.msg = nil
	} else if r.kind == recvReq && r.data != nil {
		dp.putBuf(r.data)
		r.data = nil
	}
	r.matched = false
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
		return r.src
	}
	return r.dst
}

// involves reports whether the failure of world rank affects this pending
// request: a receive from that rank (or a wildcard receive, which the
// paper also releases, since the failed process can no longer send), or a
// send to that rank.
func (r *Request) involves(rank int) bool {
	if r.done {
		return false
	}
	if r.kind == recvReq {
		return r.src == rank || r.src == AnySource
	}
	return r.dst == rank
}
