package mpi

import (
	"fmt"
	"slices"
	"sort"

	"xsim/internal/core"
	"xsim/internal/trace"
)

// ErrorHandler selects how a communicator reacts to operation errors,
// mirroring MPI's error handlers.
type ErrorHandler int

const (
	// ErrorsAreFatal (the MPI default): a detected process failure
	// invokes MPI_Abort on the communicator, terminating the simulated
	// application.
	ErrorsAreFatal ErrorHandler = iota
	// ErrorsReturn: errors are returned to the caller.
	ErrorsReturn
	// ErrorsUser: the user handler runs, then the error is returned.
	ErrorsUser
)

// Comm is a simulated MPI communicator.
type Comm struct {
	env *Env
	id  int
	// n is the communicator size; group maps communicator ranks to
	// world ranks, with nil meaning the identity mapping (the world
	// communicator) — kept implicit so a million-rank world does not
	// materialise a million-entry table per process.
	n     int
	group []int
	// rank is this process's rank within the communicator.
	rank int

	errMode ErrorHandler
	errFn   func(*Comm, error)
}

// newComm builds a derived communicator. All members must derive
// communicators in the same order so ids agree (the usual MPI collective
// requirement).
func (e *Env) newComm(group []int, myWorldRank int) *Comm {
	e.nextCommID++
	rank := -1
	for i, wr := range group {
		if wr == myWorldRank {
			rank = i
			break
		}
	}
	return &Comm{env: e, id: e.nextCommID, n: len(group), group: append([]int(nil), group...), rank: rank}
}

// Rank returns this process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.n }

// ID returns the communicator id (0 for the world communicator).
func (c *Comm) ID() int { return c.id }

// WorldRank translates a communicator rank to a world rank.
func (c *Comm) WorldRank(commRank int) int {
	if c.group == nil {
		return commRank
	}
	return c.group[commRank]
}

// Group returns a copy of the communicator's world-rank membership.
func (c *Comm) Group() []int {
	out := make([]int, c.n)
	for i := range out {
		out[i] = c.WorldRank(i)
	}
	return out
}

// SetErrorHandler selects ErrorsAreFatal or ErrorsReturn.
func (c *Comm) SetErrorHandler(h ErrorHandler) {
	if h == ErrorsUser {
		panic("mpi: use SetUserErrorHandler for user handlers")
	}
	c.errMode = h
	c.errFn = nil
}

// SetUserErrorHandler installs a user-defined error handler; it runs on
// every operation error, which is then returned to the caller.
func (c *Comm) SetUserErrorHandler(fn func(*Comm, error)) {
	c.errMode = ErrorsUser
	c.errFn = fn
}

// Dup returns a communicator with the same membership and a fresh id.
// Collective: every member must call it in the same order.
func (c *Comm) Dup() *Comm { return c.env.newComm(c.Group(), c.env.Rank()) }

// Sub returns a communicator restricted to the given communicator ranks
// (in the given order). Collective among the listed members; processes not
// listed receive a communicator with rank -1 and must not use it.
func (c *Comm) Sub(commRanks []int) *Comm {
	group := make([]int, len(commRanks))
	for i, cr := range commRanks {
		group[i] = c.WorldRank(cr)
	}
	return c.env.newComm(group, c.env.Rank())
}

// handleError applies the communicator's error handler to an operation
// error: with ErrorsAreFatal a process-failure error aborts the simulated
// application (this call then never returns); otherwise the error is
// returned (after a user handler, if installed).
func (c *Comm) handleError(err error) error {
	if err == nil {
		return nil
	}
	switch c.errMode {
	case ErrorsAreFatal:
		c.env.Logf("fatal MPI error: %v", err)
		c.Abort(1)
		panic("unreachable")
	case ErrorsUser:
		if c.errFn != nil {
			c.errFn(c, err)
		}
	}
	return err
}

// Abort aborts the simulated MPI application (MPI_Abort): an informational
// message reports the aborting rank and time, a simulator-internal
// notification broadcasts the abort and its time to every simulated
// process, and this process unwinds immediately. It does not return.
func (c *Comm) Abort(code int) {
	e := c.env
	at := e.ctx.NowQuiet()
	e.Logf("MPI_Abort invoked (rank %d, time %v, code %d)", e.Rank(), at, code)
	e.w.trace(trace.Event{At: at, Kind: trace.KindAbort, Rank: int32(e.Rank()), Peer: -1, Aux: int64(code)})
	e.ctx.EmitBroadcast(core.Event{
		Time:  at.Add(e.w.notifyDelay()),
		Kind:  kindAbortNotify,
		Words: [core.EventWords]uint64{uint64(at)},
	})
	e.ctx.AbortNow()
}

// Revoked reports whether the communicator was revoked (ULFM extension).
func (c *Comm) Revoked() bool {
	return c.env.ps.cold.revoked[c.id]
}

// checkRevoked fails operations on revoked communicators.
func (c *Comm) checkRevoked(op string) error {
	if c.Revoked() {
		return &RevokedError{Comm: c.id}
	}
	return nil
}

// revoke records a revocation of commID at the process and reports whether
// it is news.
func (ps *procState) revoke(commID int) bool {
	c := ps.coldRec()
	if c.revoked[commID] {
		return false
	}
	if c.revoked == nil {
		c.revoked = make(map[int]bool)
	}
	c.revoked[commID] = true
	return true
}

// FailedInComm returns the communicator ranks this process knows to have
// failed, in ascending order (ULFM's failure acknowledgement reads this).
// It walks the (small) failed-peer list, not the membership.
func (c *Comm) FailedInComm() []int {
	var out []int
	for _, f := range c.env.ps.failures() {
		cr := f.rank
		if c.group != nil {
			cr = slices.Index(c.group, f.rank)
		}
		if cr >= 0 && cr < c.n {
			out = append(out, cr)
		}
	}
	sort.Ints(out)
	return out
}

// --- Public point-to-point operations -----------------------------------

// Send sends data to dst with tag and blocks until the send completes
// (eager sends complete locally; larger-than-threshold sends use the
// rendezvous protocol and wait for the receiver). The request never
// escapes, so it is recycled on return.
func (c *Comm) Send(dst, tag int, data []byte) error { return c.send(dst, tag, len(data), data) }

// SendN is Send with a payload-free message of the given size in bytes;
// the network model charges the same time without allocating the payload.
func (c *Comm) SendN(dst, tag, size int) error { return c.send(dst, tag, size, nil) }

// send is Send and SendN: post, wait, recycle the request.
func (c *Comm) send(dst, tag, size int, data []byte) error {
	req, err := c.isend(dst, tag, size, data)
	if err == nil {
		err = c.env.wait(req)
		c.env.ps.dp.putReq(req)
	}
	return c.handleError(err)
}

// Isend posts a nonblocking send; complete it with Wait or Waitall.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	req, err := c.isend(dst, tag, len(data), data)
	return req, c.handleError(err)
}

// IsendN posts a nonblocking payload-free send of the given size.
func (c *Comm) IsendN(dst, tag, size int) (*Request, error) {
	req, err := c.isend(dst, tag, size, nil)
	return req, c.handleError(err)
}

// Recv blocks until a message from src (or AnySource) with tag (or AnyTag)
// arrives. Receiving from a failed process completes in error after the
// simulated network communication timeout.
func (c *Comm) Recv(src, tag int) (*Message, error) {
	req, err := c.irecv(src, tag)
	if err != nil {
		return nil, c.handleError(err)
	}
	// The request never escapes; the message does (the caller owns it and
	// may hand its buffer back with Message.Release).
	msg, err := c.env.ps.finishReq(req, c.env.wait(req))
	return msg, c.handleError(err)
}

// Irecv posts a nonblocking receive; complete it with Wait or Waitall.
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	req, err := c.irecv(src, tag)
	return req, c.handleError(err)
}

// Wait blocks until the request completes, returning the received message
// for receives (nil for sends).
func (c *Comm) Wait(r *Request) (*Message, error) {
	if err := c.env.wait(r); err != nil {
		return nil, c.handleError(err)
	}
	return r.Msg(), nil
}

// Waitall blocks until every request completes; it returns the first error
// among them in request order.
func (c *Comm) Waitall(reqs []*Request) error {
	return c.handleError(c.env.wait(reqs...))
}

// Free recycles a completed request back to the process's data-plane
// pool, releasing any still-attached received message — or, for a receive
// nobody read, just its payload buffer: no Message ever exists for it. The
// caller must not touch the request afterwards. Freeing is optional — dropped
// requests fall to the garbage collector — but long-running programs at
// oversubscription scale free their requests to keep steady-state
// allocation flat. Requests still in flight, and the shared request an
// eager send returns, are ignored.
func (c *Comm) Free(r *Request) {
	if r == nil || r == &eagerSent || !r.Done() {
		return
	}
	dp := c.env.ps.dp
	r.releaseMsg(dp)
	dp.putReq(r)
}

// String describes the communicator.
func (c *Comm) String() string {
	return fmt.Sprintf("comm %d (rank %d of %d)", c.id, c.rank, c.n)
}
