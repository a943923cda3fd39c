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
	// Corrupt lists the replica indices outvoted by a strict digest
	// majority (r ≥ 3 voting); nil when no strict majority exists — dual
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

// checkTag refuses negative tags, the wildcard among them.
func checkTag(tag int) error {
	if tag < 0 {
		return &TagRangeError{Tag: tag}
	}
	return nil
}

// Comm is an r-way redundant communicator: a logical communicator of size
// Size() whose every rank is r physical replicas.
type Comm struct {
	world   *mpi.Comm
	env     *mpi.Env
	n       int // logical size
	logical int // this process's logical rank
	replica int // replica index in [0, r)
	r       int // replication degree
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

// checkRank validates a logical rank operand.
func (c *Comm) checkRank(kind string, l int) error {
	if l < 0 || l >= c.n {
		return fmt.Errorf("redundancy: %s %d out of range [0,%d)", kind, l, c.n)
	}
	return nil
}

// Send delivers one copy of data to every live replica of the logical
// destination. Every replica of the logical sender sends its own (ideally
// identical) data; divergence is what the receiver's vote catches. A
// replica that is known dead is skipped; one that dies in transit is
// treated the same (its copy is covered by the copies the other sender
// replicas deliver). A destination whose replicas have all failed yields
// *ReplicaFailedError.
func (c *Comm) Send(dst, tag int, data []byte) error {
	if err := c.checkRank("destination", dst); err != nil {
		return err
	}
	if err := checkTag(tag); err != nil {
		return err
	}
	delivered := 0
	for k := 0; k < c.r; k++ {
		w := c.worldRankOf(dst, k)
		if c.env.PeerFailed(w) {
			continue
		}
		err := c.world.Send(w, tag, data)
		if err != nil {
			var pf *mpi.ProcFailedError
			if errors.As(err, &pf) {
				continue
			}
			return err
		}
		delivered++
	}
	if delivered == 0 {
		return &ReplicaFailedError{Logical: dst, Op: "send"}
	}
	return nil
}

// Recv collects one copy from every live replica of the logical source
// and votes on their contents. A mismatch means some replica of the sender
// produced corrupted data, reported as *SDCError; when a strict majority
// exists (r ≥ 3) the error names the outvoted replicas and the returned
// message is a majority copy. Like redMPI, a returned *SDCError still
// carries the received message: corruption is reported while execution
// continues. A source whose replicas have all failed yields
// *ReplicaFailedError.
func (c *Comm) Recv(src, tag int) (*mpi.Message, error) {
	if err := c.checkRank("source", src); err != nil {
		return nil, err
	}
	if err := checkTag(tag); err != nil {
		return nil, err
	}
	// Post receives to every source replica not already known dead. A
	// replica that died unnotified completes its receive with a
	// process-failure error after the detection timeout, so the wait
	// below never deadlocks — and a copy the replica sent before dying
	// still matches and delivers.
	reqs := make([]*mpi.Request, 0, c.r)
	idxs := make([]int, 0, c.r)
	for k := 0; k < c.r; k++ {
		w := c.worldRankOf(src, k)
		if c.env.PeerFailed(w) {
			continue
		}
		req, err := c.world.Irecv(w, tag)
		if err != nil {
			// Drain what was already posted (copies arrive or failure
			// timeouts fire), then surface the posting error.
			for _, r := range reqs {
				_, _ = c.world.Wait(r)
				c.world.Free(r)
			}
			return nil, err
		}
		reqs = append(reqs, req)
		idxs = append(idxs, k)
	}
	msgs := make([]*mpi.Message, 0, len(reqs))
	from := make([]int, 0, len(reqs))
	var hard error
	for i, req := range reqs {
		_, err := c.world.Wait(req)
		if err != nil {
			var pf *mpi.ProcFailedError
			if !errors.As(err, &pf) && hard == nil {
				hard = err
			}
			c.world.Free(req)
			continue
		}
		m := req.TakeMsg()
		c.world.Free(req)
		msgs = append(msgs, m)
		from = append(from, idxs[i])
	}
	if hard != nil {
		for _, m := range msgs {
			m.Release()
		}
		return nil, hard
	}
	if len(msgs) == 0 {
		return nil, &ReplicaFailedError{Logical: src, Op: "recv"}
	}
	chosen := 0
	var sdc *SDCError
	if len(msgs) > 1 {
		digests := make([]uint64, c.r)
		present := make([]bool, c.r)
		// Each copy's digest is its class: the index of the first copy
		// with the same bytes. With r ≤ 3 copies that is at most three
		// comparisons, and unlike a hash no corrupt copy can collide into
		// the majority.
		for i, m := range msgs {
			class := i
			for j := range i {
				if bytes.Equal(msgs[j].Data, m.Data) {
					class = j
					break
				}
			}
			digests[from[i]] = uint64(class)
			present[from[i]] = true
		}
		if corrupt, mismatch := voteDigests(digests, present); mismatch {
			sdc = &SDCError{LogicalSrc: src, Tag: tag, Replica: c.replica, Corrupt: corrupt}
			if len(corrupt) > 0 {
				// A strict majority exists: return a majority copy, so
				// the vote corrects the corruption for the application.
				for i, k := range from {
					if !intsContain(corrupt, k) {
						chosen = i
						break
					}
				}
			}
		}
	}
	out := msgs[chosen]
	for i, m := range msgs {
		if i != chosen {
			m.Release()
		}
	}
	if sdc != nil {
		return out, sdc
	}
	return out, nil
}

// voteDigests compares the present digests. mismatch reports any
// disagreement; corrupt lists the replica indices outvoted by a strict
// majority, nil when none exists (r = 2, or an even split).
func voteDigests(digests []uint64, present []bool) (corrupt []int, mismatch bool) {
	total := 0
	var ref uint64
	seen := false
	for i, ok := range present {
		if !ok {
			continue
		}
		total++
		if !seen {
			ref, seen = digests[i], true
		} else if digests[i] != ref {
			mismatch = true
		}
	}
	if !mismatch {
		return nil, false
	}
	var best uint64
	bestN := 0
	for i, ok := range present {
		if !ok {
			continue
		}
		n := 0
		for j, ok2 := range present {
			if ok2 && digests[j] == digests[i] {
				n++
			}
		}
		if n > bestN {
			best, bestN = digests[i], n
		}
	}
	if 2*bestN <= total {
		return nil, true
	}
	for i, ok := range present {
		if ok && digests[i] != best {
			corrupt = append(corrupt, i)
		}
	}
	return corrupt, true
}

// intsContain reports whether s contains v.
func intsContain(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
