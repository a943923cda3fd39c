package mpi

// Validate-mode invariant checks for the MPI matching state, compiled in
// behind the engine's Validate switch. Each match or post is followed by a
// check of what it changed (checkOp) and, within a bounded number of
// operations, by a full consistency sweep (checkIndexes), which also runs
// at every death, so a clean run ends with every rank swept. A clean
// Finalize additionally runs the conservation sweep (no pending requests,
// no posted receives, no outstanding probes), and a clean run ends with
// the box-conservation sweep (World.checkBoxes). Violations panic with a
// *check.Violation, which the engine makes the run's error.

import (
	"fmt"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// fail raises a violation attributed to this process at its current
// virtual clock.
func (e *Env) fail(invariant, where, format string, args ...any) {
	check.Failf(invariant, e.Rank(), e.ctx.NowQuiet(), where, format, args...)
}

// sweepBudget is one rank's count of operations since its last full sweep
// and of the queues and elements that sweep walked (World.sweeps).
type sweepBudget struct{ ops, walked int }

// checkOp is the check after one match or post (where names it): the
// posted and unexpected queues under *k (k nil: none), the wildcard list
// if r is a wildcard receive, r's place in the one queue it may sit in
// (checkQueued) and env's in its arrival list (either may be nil). Once
// the rank's operations since its last full sweep reach what that sweep
// walked, it runs the full sweep instead, so every invariant is checked
// within a bounded number of operations at a cost linear in them: an
// n-rank fan-in no longer sweeps the root's n queues after each of its n
// arrivals.
func (e *Env) checkOp(where string, k *matchKey, r *Request, env *envelope) {
	b := &e.w.sweeps[e.Rank()]
	if b.ops++; b.ops >= b.walked {
		e.checkIndexes(where)
		return
	}
	if k != nil {
		if q := e.posted.get(*k); q != nil {
			e.checkPostedList(where, k, q)
		}
		if q := e.cold.unexp.get(*k); q != nil {
			e.checkUnexpList(where, *k, q)
		}
	}
	if r != nil {
		if r.has(reqWild) {
			e.checkPostedList(where, nil, &e.postedWild)
		}
		e.checkQueued(where, r)
	}
	if env != nil {
		q, next := e.cold.arrivals(env.commID), env.byComm.next
		if q == nil || !q.linked(env, byCommAt) || next != nil && next.arriveSeq <= env.arriveSeq {
			e.fail("unexpected-queue", where, "envelope (comm %d, seq %d) is not linked in place in its arrival list", env.commID, env.arriveSeq)
		}
	}
}

// checkQueued checks the one-queue rule on a request an operation just
// touched: a receive waiting for a match (postQ set) is linked in place in
// its posted list and is not pending; every other incomplete request is
// linked in place in the pending list, found by its id there; a completed
// request is in no list at all.
func (e *Env) checkQueued(where string, r *Request) {
	posted, pending := r.postQ != nil, r.has(reqPending)
	switch {
	case posted && pending:
		e.fail("pending-index", where, "request %d is both a posted receive and pending", r.id)
	case posted && (r.Done() || !r.postQ.linked(r, reqAt) || e.findPending(r.id) == r):
		e.fail("posted-index", where, "posted receive %d (done %v) is not linked in place in its posted list alone", r.id, r.Done())
	case pending && (r.Done() || !e.pending.linked(r, reqAt) || e.findPending(r.id) != r):
		e.fail("pending-index", where, "pending request %d (done %v) is not linked in place in the pending list or its lookup", r.id, r.Done())
	case !posted && !pending && !r.Done():
		e.fail("pending-index", where, "incomplete %s %d is neither a posted receive nor pending", r.opName(), r.id)
	case !posted && !pending && (r.link != (links[Request]{}) || e.findPending(r.id) == r):
		e.fail("pending-index", where, "completed request %d is still linked in a queue", r.id)
	}
}

// checkIndexes is the full sweep of the posted-receive index,
// unexpected-queue and pending-list invariants:
//
//   - every request linked under (comm, src) — src the source's rank in
//     the communicator — is an incomplete exact-source receive for that
//     key, not pending, with its postQ backpointer set to that list (a
//     move to a dense table re-points it);
//   - every wildcard entry is an incomplete AnySource receive, not
//     pending, with its postQ set to the wildcard list;
//   - both structures are ordered by post sequence (MPI's
//     first-match-in-post-order rule depends on it);
//   - every unexpected envelope is linked under its own (comm, src) key,
//     addressed to this rank, in arrival order; the per-communicator
//     arrival lists (one per communicator) are in arrival order and hold
//     exactly the same envelopes; and the total count matches the metrics
//     layer's queue-depth gauge;
//   - in both indexes a non-empty queue is the one its key's lookup
//     finds, whichever tier (inline, block, map or dense table) holds it;
//     with the key check this covers every slot of a dense table;
//   - the pending list holds only incomplete requests with the pending
//     bit unlinkPending trusts instead of searching the list, none of them
//     posted: rendezvous sends, and receives matched to a rendezvous
//     envelope and waiting for its data.
//
// Every list is walked once (list.walk), which checks its links and tail;
// the sweeps below add only their own ordering and membership checks.
// Emptied queues are deliberately retained in their tiers (they are
// reused by later traffic), so an empty list is not a violation. The
// number of queues and elements walked becomes the rank's budget of
// operations until the next full sweep (checkOp).
//
// where names the operation just performed, for the violation dump.
func (e *Env) checkIndexes(where string) {
	walked := 1 + e.checkPostedList(where, nil, &e.postedWild)
	e.posted.each(func(k matchKey, q *list[Request]) {
		walked += 1 + e.checkPostedList(where, &k, q)
		if q.head != nil && e.posted.get(k) != q {
			e.fail("posted-index", where, "posted list %+v is filed in a tier its lookup does not reach", k)
		}
	})

	total := 0
	e.cold.unexp.each(func(k matchKey, q *list[envelope]) {
		n := e.checkUnexpList(where, k, q)
		walked += 1 + n
		total += n
		if q.head != nil && e.cold.unexp.get(k) != q {
			e.fail("unexpected-queue", where, "unexpected list %+v is filed in a tier its lookup does not reach", k)
		}
	})
	arrTotal := 0
	for i := range e.cold.byComm {
		comm, q := e.cold.byComm[i].comm, &e.cold.byComm[i].q
		if e.cold.arrivals(comm) != q {
			e.fail("unexpected-queue", where, "communicator %d has two arrival lists", comm)
		}
		var last uint64
		broken := q.walk(byCommAt, func(env *envelope) {
			switch {
			case env.commID != comm:
				e.fail("unexpected-queue", where, "envelope (comm %d) in arrival list of comm %d", env.commID, comm)
			case env.arriveSeq <= last:
				e.fail("unexpected-queue", where, "arrival list (comm %d) out of order: seq %d after %d",
					comm, env.arriveSeq, last)
			}
			last = env.arriveSeq
			arrTotal++
		})
		if broken != "" {
			e.fail("unexpected-queue", where, "arrival list (comm %d): %s", comm, broken)
		}
	}
	walked += len(e.cold.byComm) + arrTotal
	if arrTotal != total {
		e.fail("unexpected-queue", where,
			"arrival lists hold %d envelopes but the source lists hold %d", arrTotal, total)
	}
	if e.cold.unexpNow != total {
		e.fail("unexpected-conservation", where,
			"unexpected queue holds %d envelopes but the depth gauge reads %d", total, e.cold.unexpNow)
	}

	listed := 0
	broken := e.pending.walk(reqAt, func(r *Request) {
		switch {
		case r.Done():
			e.fail("pending-index", where, "completed request %d (%s) still pending", r.id, r.opName())
		case !r.has(reqPending):
			e.fail("pending-index", where, "request %d is in the pending list without its pending bit", r.id)
		case r.postQ != nil:
			e.fail("pending-index", where, "pending request %d is also a posted receive", r.id)
		case r.kind == recvReq && !r.has(reqMatched):
			e.fail("pending-index", where, "pending receive %d never matched a rendezvous envelope", r.id)
		}
		listed++
	})
	if broken != "" {
		e.fail("pending-index", where, "pending list: %s", broken)
	}
	b := &e.w.sweeps[e.Rank()]
	b.ops, b.walked = 0, walked+listed
}

// checkPostedList sweeps the posted-receive list filed under k (nil means
// the wildcard list) and returns its length.
func (e *Env) checkPostedList(where string, k *matchKey, q *list[Request]) (n int) {
	wild := k == nil
	key := func() string {
		if wild {
			return "wildcard"
		}
		return fmt.Sprintf("%+v", *k)
	}
	var lastID uint64 // request ids start at 1
	broken := q.walk(reqAt, func(r *Request) {
		switch {
		case r.kind != recvReq || r.has(reqWild) != wild:
			e.fail("posted-index", where, "request %d in posted list %q is not a receive of the right flavour (kind=%d wild=%v)",
				r.id, key(), r.kind, r.has(reqWild))
		case wild && r.src != AnySource:
			e.fail("posted-index", where, "request %d in wildcard list has source %d", r.id, r.src)
		case !wild && !r.filedUnder(*k):
			e.fail("posted-index", where, "request %d filed under %s is a receive on comm %d from %d",
				r.id, key(), r.comm.id, r.src)
		case r.Done():
			e.fail("posted-index", where, "completed request %d (%s) still in posted list %q", r.id, r.opName(), key())
		case r.postQ != q:
			e.fail("posted-index", where, "request %d in posted list %q has a stale postQ backpointer", r.id, key())
		case r.has(reqPending):
			e.fail("posted-index", where, "posted receive %d also carries the pending bit", r.id)
		case r.id <= lastID:
			e.fail("posted-index", where, "posted list %q out of post order: id %d after %d", key(), r.id, lastID)
		}
		lastID = r.id
		n++
	})
	if broken != "" {
		e.fail("posted-index", where, "posted list %q: %s", key(), broken)
	}
	return n
}

// checkUnexpList sweeps the unexpected list filed under k and returns its
// length. Arrival stamps start at 1, so its first envelope is in order.
func (e *Env) checkUnexpList(where string, k matchKey, q *list[envelope]) (n int) {
	rank := e.Rank()
	var last uint64
	broken := q.walk(bySrcAt, func(env *envelope) {
		switch {
		case keyOf(env.commID, env.srcCommRank) != k:
			e.fail("unexpected-queue", where, "envelope (comm %d, src %d, tag %d) filed under key %+v",
				env.commID, env.srcCommRank, env.tag, k)
		case env.dst != rank:
			e.fail("unexpected-queue", where, "envelope for rank %d queued at rank %d", env.dst, rank)
		case env.arriveSeq <= last:
			e.fail("unexpected-queue", where, "unexpected list %+v out of arrival order: seq %d after %d",
				k, env.arriveSeq, last)
		}
		last = env.arriveSeq
		n++
	})
	if broken != "" {
		e.fail("unexpected-queue", where, "unexpected list %+v: %s", k, broken)
	}
	return n
}

// filedUnder reports whether k is the match key of an exact-source
// receive: its communicator, and the rank there of its source.
func (r *Request) filedUnder(k matchKey) bool {
	return int(k.comm) == r.comm.id && k.src >= 0 && int(k.src) < r.comm.n && r.comm.WorldRank(int(k.src)) == int(r.src)
}

// checkFinalize is the conservation sweep run by a clean Finalize: after
// a correct application quiesces, nothing may remain in flight at this
// process.
func (e *Env) checkFinalize() {
	e.checkIndexes("finalize")
	if left := e.incomplete(nil, func(*Request) bool { return true }); len(left) > 0 {
		detail := ""
		for _, r := range left {
			detail += fmt.Sprintf("\n    request %d: %s peer %d tag %d (comm %d)", r.id, r.opName(), r.peer(), r.tag, r.comm.id)
		}
		e.fail("finalize-pending", "finalize", "%d requests still pending at Finalize:%s", len(left), detail)
	}
	if e.cold.probe != nil {
		e.fail("finalize-pending", "finalize", "a probe is still outstanding at Finalize")
	}
}

// checkBoxes is the box-conservation sweep of a run that ended cleanly:
// every event has been dispatched, so every slot of every partition's box
// table must be free, and free exactly once. A slot still live is a lost
// handle (its buffer never reached a receiver); one freed twice was
// released by two receivers. at stamps the violation.
func (w *World) checkBoxes(at vclock.Time) error {
	for _, dp := range w.pools {
		t := &dp.boxes
		seen := make([]bool, max(t.n, 1))
		seen[0] = true
		for _, list := range [][]uint32{t.free, t.back} {
			for _, s := range list {
				if seen[s] {
					return boxViolation(at, "partition %d freed box slot %d twice", dp.part, s)
				}
				seen[s] = true
			}
		}
		var live []uint32
		for s, free := range seen {
			if !free {
				live = append(live, uint32(s)<<w.boxShift|dp.part)
			}
		}
		if len(live) > 0 {
			return boxViolation(at, "partition %d holds %d live payload boxes at the end of the run (handles %v)",
				dp.part, len(live), live[:min(len(live), 8)])
		}
	}
	return nil
}

func boxViolation(at vclock.Time, format string, args ...any) error {
	return &check.Violation{Invariant: "box-conservation", Rank: -1, Time: at, Detail: fmt.Sprintf(format, args...)}
}
