// Package redundancy implements redMPI-style modular redundancy on top of
// the simulated MPI layer — the paper's related-work system for online
// detection of soft errors (§II-C) — generalised to r-way replication with
// failover. Each logical rank is backed by r physical replicas (replica k
// of logical rank L is world rank L + k·n for logical size n).
//
// Every live sender replica sends a copy of each message to every live
// receiver replica (r² copies per logical message), and each receiver
// compares the copies it got byte for byte and votes. A single bit flip in any replica's
// data is detected the first time it crosses the network; at r ≥ 3 a
// strict majority also attributes the corruption to the outvoted replica
// and hands the caller a majority copy — detection with correction. A
// logical rank stays alive as long as one of its replicas lives, because
// every surviving receiver still gets a copy from some surviving sender.
//
// Send and Recv block a closure VP; a program VP steps the same bodies
// through SendStep and RecvStep.
package redundancy

import (
	"bytes"
	"errors"
	"fmt"

	"xsim/internal/mpi"
)

// SDCError reports a detected silent data corruption: the replicas of a
// sender disagreed on a message's contents.
type SDCError struct {
	// LogicalSrc and Tag identify the corrupted message.
	LogicalSrc, Tag int
	// Replica is the receiving replica that detected the mismatch.
	Replica int
	// Corrupt lists the replica indices outvoted by a strict majority
	// (r ≥ 3 voting); nil when no strict majority exists — dual
	// redundancy detects but cannot attribute.
	Corrupt []int
}

// Error implements error.
func (e *SDCError) Error() string {
	return fmt.Sprintf("redundancy: silent data corruption detected in message from logical rank %d tag %d (replica %d)",
		e.LogicalSrc, e.Tag, e.Replica)
}

// TagRangeError reports a negative tag, AnyTag included. The vote compares
// copies of one message, so a receive must name the tag it votes on.
type TagRangeError struct {
	// Tag is the rejected tag.
	Tag int
}

// Error implements error.
func (e *TagRangeError) Error() string {
	return fmt.Sprintf("redundancy: tag %d is negative; replicated messages need a concrete tag", e.Tag)
}

// ReplicaFailedError reports that every replica of a logical rank has
// failed — the point past which failover cannot keep the rank alive.
type ReplicaFailedError struct {
	// Logical is the exhausted logical rank.
	Logical int
	// Op names the operation that hit the exhaustion ("send" or "recv").
	Op string
}

// Error implements error.
func (e *ReplicaFailedError) Error() string {
	return fmt.Sprintf("redundancy: %s: every replica of logical rank %d has failed", e.Op, e.Logical)
}

// Comm is an r-way redundant communicator: a logical communicator of size
// Size() whose every rank is r physical replicas.
type Comm struct {
	world   *mpi.Comm
	env     *mpi.Env
	n       int       // logical size
	logical int       // this process's logical rank
	replica int       // replica index in [0, r)
	r       int       // replication degree
	send    SendState // Send's state, reused call after call
	recv    RecvState // Recv's state, reused call after call
}

// WrapN builds an r-way redundant communicator: the world splits into r
// replica groups of n = Size()/r processes each. Degree 1 is the
// degenerate unreplicated communicator (useful as an experiment
// baseline). WrapN switches the world communicator to ErrorsReturn: the
// layer handles peer-failure errors itself (failover, degraded
// detection), so failures must reach it instead of aborting the job.
func WrapN(env *mpi.Env, r int) (*Comm, error) {
	n := env.Size()
	if r < 1 {
		return nil, fmt.Errorf("redundancy: replication degree %d must be at least 1", r)
	}
	if n%r != 0 {
		return nil, fmt.Errorf("redundancy: world size %d must be divisible by replication degree %d", n, r)
	}
	logical := n / r
	c := &Comm{
		world:   env.World(),
		env:     env,
		n:       logical,
		logical: env.Rank() % logical,
		replica: env.Rank() / logical,
		r:       r,
	}
	c.world.SetErrorHandler(mpi.ErrorsReturn)
	return c, nil
}

// Size returns the logical communicator size.
func (c *Comm) Size() int { return c.n }

// Logical returns this process's logical rank.
func (c *Comm) Logical() int { return c.logical }

// Replica returns this process's replica index in [0, Degree()).
func (c *Comm) Replica() int { return c.replica }

// Degree returns the replication degree r.
func (c *Comm) Degree() int { return c.r }

// Alive returns the number of replicas of logical rank l not known to
// this process to have failed. It is local knowledge: a replica that died
// but whose failure notification has not yet arrived still counts.
func (c *Comm) Alive(l int) int {
	alive := 0
	for k := 0; k < c.r; k++ {
		if !c.env.PeerFailed(c.worldRankOf(l, k)) {
			alive++
		}
	}
	return alive
}

// worldRankOf translates a logical rank and replica index to a world rank.
func (c *Comm) worldRankOf(logical, replica int) int {
	return logical + replica*c.n
}

// Covered reports whether each of n logical ranks has one of its r
// replicas for which ok holds; replica k of logical rank l is world rank
// l + k·n. A dead replica's logical rank is covered by any other replica.
func Covered(n, r int, ok func(rank int) bool) bool {
next:
	for l := range n {
		for k := range r {
			if ok(l + k*n) {
				continue next
			}
		}
		return false
	}
	return true
}

// check validates the logical rank operand of a send or receive, then
// refuses a negative tag, the wildcard among them.
func (c *Comm) check(kind string, l, tag int) error {
	if l < 0 || l >= c.n {
		return fmt.Errorf("redundancy: %s %d out of range [0,%d)", kind, l, c.n)
	}
	if tag < 0 {
		return &TagRangeError{Tag: tag}
	}
	return nil
}

// Send delivers one copy of data to every live replica of the logical
// destination. Every replica of the logical sender sends its own (ideally
// identical) data; divergence is what the receiver's vote catches. A
// replica that is known dead is skipped; one that dies in transit is
// treated the same (its copy is covered by the copies the other sender
// replicas deliver). A destination whose replicas have all failed yields
// *ReplicaFailedError. It is SendStep driven on the calling closure VP.
func (c *Comm) Send(dst, tag int, data []byte) error {
	for {
		done, park, err := c.SendStep(&c.send, dst, tag, data)
		if done {
			return err
		}
		c.env.Block(park)
	}
}

// Recv collects one copy from every live replica of the logical source
// and votes on their contents. A mismatch means some replica of the sender
// produced corrupted data, reported as *SDCError; when a strict majority
// exists (r ≥ 3) the error names the outvoted replicas and the returned
// message is a majority copy. Like redMPI, a returned *SDCError still
// carries the received message: corruption is reported while execution
// continues. A source whose replicas have all failed yields
// *ReplicaFailedError. It is RecvStep driven on the calling closure VP.
func (c *Comm) Recv(src, tag int) (*mpi.Message, error) {
	for {
		done, park, msg, err := c.RecvStep(&c.recv, src, tag)
		if done {
			return msg, err
		}
		c.env.Block(park)
	}
}

// SendState carries one replicated send across program steps: the step
// form of Send. Zero value ready; reused send after send.
type SendState struct {
	k         int  // the destination replica being served
	posted    bool // its copy is in flight
	delivered int
	send      mpi.SendState
}

// SendStep advances a replicated send: one blocking send of the world
// communicator per live destination replica, in replica order, each
// posted once the previous one completed. It returns done == false with
// the park value to return from Prog.Step; pass the same arguments on
// every call until it reports done.
func (c *Comm) SendStep(st *SendState, dst, tag int, data []byte) (done bool, park any, err error) {
	if err := c.check("destination", dst, tag); err != nil {
		return true, nil, err
	}
	for ; st.k < c.r; st.k++ {
		w := c.worldRankOf(dst, st.k)
		if !st.posted && c.env.PeerFailed(w) {
			continue
		}
		st.posted = true
		if done, park, err = c.world.SendStep(&st.send, w, tag, data); !done {
			return false, park, nil
		}
		st.posted = false
		if err == nil {
			st.delivered++
		} else if pf := (*mpi.ProcFailedError)(nil); !errors.As(err, &pf) {
			break
		}
		err = nil // a replica that died in transit is covered by the others
	}
	if err == nil && st.delivered == 0 {
		err = &ReplicaFailedError{Logical: dst, Op: "send"}
	}
	*st = SendState{send: st.send}
	return true, nil, err
}

// RecvState carries one replicated receive across program steps: the step
// form of Recv. Zero value ready; reused receive after receive, and a
// receive past the first at the same degree allocates nothing of its own.
type RecvState struct {
	reqs     []*mpi.Request // posted, in replica order; the delivered ones move to the front
	replicas []int          // replicas[i] is the source replica of reqs[i]
	next     int            // reqs[next] is the one waited on
	got      int            // reqs[:got] delivered
	armed    bool           // ws waits on reqs[next]
	hard     error          // the first error that is no process failure
	ws       mpi.WaitState
	data     [][]byte // the delivered copies' bytes, for the vote
	votes    []int    // the vote's scratch
}

// RecvStep advances a replicated receive. The first call posts a receive
// to every source replica not already known dead; each copy is then waited
// on in posting order and, once all have completed, the copies are voted
// on. A replica that died unnotified completes its receive with a
// process-failure error after the detection timeout, so the wait never
// deadlocks — and a copy the replica sent before dying still matches and
// delivers. It returns done == false with the park value to return from
// Prog.Step; pass the same arguments on every call until it reports done
// with what Recv returns.
func (c *Comm) RecvStep(st *RecvState, src, tag int) (done bool, park any, msg *mpi.Message, err error) {
	if err := c.check("source", src, tag); err != nil {
		return true, nil, nil, err
	}
	if len(st.reqs) == 0 { // a receive that parked holds a copy
		for k := 0; k < c.r; k++ {
			w := c.worldRankOf(src, k)
			if c.env.PeerFailed(w) {
				continue
			}
			req, err := c.world.Irecv(w, tag)
			if err != nil {
				// Wait out what was already posted (copies arrive or
				// failure timeouts fire), then surface the posting error.
				st.hard = err
				break
			}
			st.reqs = append(st.reqs, req)
			st.replicas = append(st.replicas, k)
		}
	}
	for ; st.next < len(st.reqs); st.next++ {
		if !st.armed {
			st.ws.Begin(st.reqs[st.next : st.next+1]...)
			st.armed = true
		}
		if done, park, err = c.world.WaitallStep(&st.ws); !done {
			return false, park, nil, nil
		}
		st.armed = false
		if err == nil {
			st.reqs[st.got], st.replicas[st.got] = st.reqs[st.next], st.replicas[st.next]
			st.got++
			continue
		}
		if pf := (*mpi.ProcFailedError)(nil); !errors.As(err, &pf) && st.hard == nil {
			st.hard = err
		}
		c.world.Free(st.reqs[st.next])
	}
	// Vote on the delivered copies and take the chosen one's message;
	// freeing the requests releases every other copy.
	got := st.reqs[:st.got]
	if err = st.hard; err == nil && len(got) == 0 {
		err = &ReplicaFailedError{Logical: src, Op: "recv"}
	} else if err == nil {
		for _, req := range got {
			st.data = append(st.data, req.Msg().Data)
		}
		if cap(st.votes) < 2*len(got) {
			st.votes = make([]int, 2*len(got))
		}
		chosen, outvoted, mismatch := vote(st.data, st.votes[:2*len(got)])
		msg = got[chosen].TakeMsg()
		if mismatch {
			for i, j := range outvoted {
				outvoted[i] = st.replicas[j]
			}
			err = &SDCError{LogicalSrc: src, Tag: tag, Replica: c.replica, Corrupt: outvoted}
		}
	}
	for _, req := range got {
		c.world.Free(req)
	}
	clear(st.reqs)
	clear(st.data)
	st.reqs, st.replicas, st.data = st.reqs[:0], st.replicas[:0], st.data[:0]
	st.next, st.got, st.hard = 0, 0, nil
	return true, nil, msg, err
}

// vote groups copies, at least one, by their bytes in one pass. mismatch
// reports that two copies differ. With a strict majority, chosen is the
// majority's first copy and outvoted lists the other copies in ascending
// order; without one (r = 2, or an even split) chosen is copy 0 and
// outvoted is nil. scratch holds 2·len(copies) ints of the caller's.
func vote(copies [][]byte, scratch []int) (chosen int, outvoted []int, mismatch bool) {
	// group[i] is the first copy with copy i's bytes; size[g] counts group g.
	group, size := scratch[:len(copies)], scratch[len(copies):2*len(copies)]
	clear(size)
	for i, c := range copies {
		g := i
		for j := range i {
			if group[j] == j && bytes.Equal(copies[j], c) {
				g = j
				break
			}
		}
		group[i] = g
		size[g]++
		if size[g] > size[chosen] {
			chosen = g
		}
	}
	mismatch = size[0] < len(copies)
	if 2*size[chosen] <= len(copies) {
		return 0, nil, mismatch
	}
	for i, g := range group {
		if g != chosen {
			outvoted = append(outvoted, i)
		}
	}
	return chosen, outvoted, mismatch
}
