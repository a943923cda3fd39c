package mpi

import "fmt"

// ErrCancelled is the error a cancelled request completes with.
type CancelledError struct {
	// Op names the cancelled operation.
	Op string
}

// Error implements error.
func (e *CancelledError) Error() string { return fmt.Sprintf("mpi: %s cancelled", e.Op) }

// probeRec is one outstanding blocking probe.
type probeRec struct {
	comm, src, tag int // src is a world rank or AnySource
}

// matchesEnvelope reports whether the probe accepts an envelope.
func (p *probeRec) matchesEnvelope(env *envHeader) bool {
	if p.comm != env.commID {
		return false
	}
	if p.src != AnySource && p.src != env.src {
		return false
	}
	return tagMatches(p.tag, env.tag)
}

// Iprobe checks without blocking whether a matching message has arrived
// (MPI_Iprobe): it returns the envelope information of the earliest match
// without consuming it, or ok=false. Only messages whose envelope has
// reached this process are visible — exactly MPI's semantics.
func (c *Comm) Iprobe(src, tag int) (*Message, bool, error) {
	if _, err := c.probeBegin(src); err != nil {
		return nil, false, c.handleError(err)
	}
	env := c.env.cold.peek(c.id, src, tag)
	if env == nil {
		return nil, false, nil
	}
	return &Message{Src: env.srcCommRank, Tag: env.tag, Size: env.size}, true, nil
}

// Probe blocks until a matching message has arrived and returns its
// envelope information without consuming it (MPI_Probe). Probing a failed
// process completes in error at the detection deadline, like a receive.
// It is ProbeStep driven on the calling closure VP.
func (c *Comm) Probe(src, tag int) (*Message, error) {
	st := &c.env.closure().probe
	for {
		done, park, msg, err := c.ProbeStep(st, src, tag)
		if done {
			return msg, err
		}
		c.env.Block(park)
	}
}

// probeBegin charges a probe's call, checks the communicator, and
// validates and translates the source rank.
func (c *Comm) probeBegin(src int) (int, error) {
	c.env.chargeCall()
	if err := c.checkRevoked("probe"); err != nil {
		return 0, err
	}
	if src == AnySource {
		return AnySource, nil
	}
	if src < 0 || src >= c.n {
		return 0, fmt.Errorf("mpi: probe source rank %d out of range [0,%d)", src, c.n)
	}
	return c.WorldRank(src), nil
}

// Cancel cancels a pending receive (MPI_Cancel): the request completes
// with CancelledError at the current virtual time, leaving later-arriving
// messages in the unexpected queue for other receives. Cancelling a
// completed request or a send reports false and changes nothing: a send's
// envelope left when it was posted, so the send completes as usual (MPI
// lets a send's cancel fail, and MPI-4.0 deprecates cancelling sends).
func (c *Comm) Cancel(r *Request) bool {
	e := c.env
	e.chargeCall()
	if r.Done() || r.kind == sendReq {
		return false
	}
	_ = e.completeRequest(r, e.ctx.NowQuiet(), &CancelledError{Op: r.opName()}) // the caller is running, not parked
	return true
}
