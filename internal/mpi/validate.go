package mpi

// Validate-mode invariant checks for the MPI matching state, compiled in
// behind the engine's Validate switch. Each mutation of the
// posted-receive index or the unexpected queue is followed by a full
// consistency sweep; a clean Finalize additionally runs the conservation
// sweep (no pending requests, no posted receives, no outstanding probes),
// and a clean run ends with the box-conservation sweep (World.checkBoxes).
// Violations panic with a *check.Violation; in VP context the engine
// surfaces it as the run's error with the diagnostic dump.

import (
	"fmt"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// fail raises a violation attributed to this process at its current
// virtual clock.
func (ps *procState) fail(invariant, where, format string, args ...any) {
	rank := ps.env.Rank()
	check.Failf(invariant, rank, ps.env.ctx.NowQuiet(), where, format, args...)
}

// checkIndexes verifies the posted-receive index and unexpected-queue
// invariants:
//
//   - every request linked under (comm, src) — src the source's rank in
//     the communicator — is an incomplete, posted, exact-source receive
//     for that key, present in the pending table, with its postQ
//     backpointer set to that list (a move to a dense table re-points it);
//   - every wildcard entry is an incomplete, posted AnySource receive,
//     present in the pending table;
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
//   - the pending table holds only incomplete requests under their own
//     ids, the id-ordered pending list threads exactly the table's entries
//     in ascending id order, and every one of them carries the pending bit
//     unlinkPending trusts instead of searching the list.
//
// Every list is walked once (list.walk), which checks its links and tail;
// the sweeps below add only their own ordering and membership checks.
// Emptied queues are deliberately retained in their tiers (they are
// reused by later traffic), so an empty list is not a violation.
//
// where names the operation just performed, for the violation dump.
func (ps *procState) checkIndexes(where string) {
	rank := ps.env.Rank()
	ps.checkPostedList(where, nil, &ps.postedWild)
	ps.posted.each(func(k matchKey, q *list[Request]) {
		ps.checkPostedList(where, &k, q)
		if q.head != nil && ps.posted.get(k) != q {
			ps.fail("posted-index", where, "posted list %+v is filed in a tier its lookup does not reach", k)
		}
	})

	// Arrival stamps start at 1, so each list's first envelope is in order.
	total := 0
	ps.cold.unexp.each(func(k matchKey, q *list[envelope]) {
		var last uint64
		broken := q.walk(bySrcAt, func(env *envelope) {
			switch {
			case keyOf(env.commID, env.srcCommRank) != k:
				ps.fail("unexpected-queue", where, "envelope (comm %d, src %d, tag %d) filed under key %+v",
					env.commID, env.srcCommRank, env.tag, k)
			case env.dst != rank:
				ps.fail("unexpected-queue", where, "envelope for rank %d queued at rank %d", env.dst, rank)
			case env.arriveSeq <= last:
				ps.fail("unexpected-queue", where, "unexpected list %+v out of arrival order: seq %d after %d",
					k, env.arriveSeq, last)
			}
			last = env.arriveSeq
			total++
		})
		if broken != "" {
			ps.fail("unexpected-queue", where, "unexpected list %+v: %s", k, broken)
		}
		if q.head != nil && ps.cold.unexp.get(k) != q {
			ps.fail("unexpected-queue", where, "unexpected list %+v is filed in a tier its lookup does not reach", k)
		}
	})
	arrTotal := 0
	for i := range ps.cold.byComm {
		comm, q := ps.cold.byComm[i].comm, &ps.cold.byComm[i].q
		if ps.cold.arrivals(comm) != q {
			ps.fail("unexpected-queue", where, "communicator %d has two arrival lists", comm)
		}
		var last uint64
		broken := q.walk(byCommAt, func(env *envelope) {
			switch {
			case env.commID != comm:
				ps.fail("unexpected-queue", where, "envelope (comm %d) in arrival list of comm %d", env.commID, comm)
			case env.arriveSeq <= last:
				ps.fail("unexpected-queue", where, "arrival list (comm %d) out of order: seq %d after %d",
					comm, env.arriveSeq, last)
			}
			last = env.arriveSeq
			arrTotal++
		})
		if broken != "" {
			ps.fail("unexpected-queue", where, "arrival list (comm %d): %s", comm, broken)
		}
	}
	if arrTotal != total {
		ps.fail("unexpected-queue", where,
			"arrival lists hold %d envelopes but the source lists hold %d", arrTotal, total)
	}
	if ps.cold.unexpNow != total {
		ps.fail("unexpected-conservation", where,
			"unexpected queue holds %d envelopes but the depth gauge reads %d", total, ps.cold.unexpNow)
	}

	for id, r := range ps.cold.pendSpill {
		switch {
		case r == nil:
			ps.fail("pending-index", where, "nil request pending under id %d", id)
		case r.id != id:
			ps.fail("pending-index", where, "request %d pending under id %d", r.id, id)
		case !r.has(reqPending):
			ps.fail("pending-index", where, "request %d is in the spill map without its pending bit", id)
		}
	}
	listed := 0
	var lastID uint64 // request ids start at 1
	broken := ps.pending.walk(pendingAt, func(r *Request) {
		switch {
		case r.Done():
			ps.fail("pending-index", where, "completed request %d (%s) still pending", r.id, r.opName())
		case r.id <= lastID:
			ps.fail("pending-index", where, "pending list out of id order: %d after %d", r.id, lastID)
		case !r.has(reqPending):
			ps.fail("pending-index", where, "request %d is in the pending list without its pending bit", r.id)
		case ps.findPending(r.id) != r:
			ps.fail("pending-index", where, "pending-list request %d missing from the pending lookup", r.id)
		}
		lastID = r.id
		listed++
	})
	if broken != "" {
		ps.fail("pending-index", where, "pending list: %s", broken)
	}
	if listed != int(ps.pendLen) {
		ps.fail("pending-index", where, "pending list holds %d requests but the count gauge reads %d", listed, ps.pendLen)
	}
	if ps.cold.pendSpill != nil && listed != len(ps.cold.pendSpill) {
		ps.fail("pending-index", where, "pending list holds %d requests but the spill map holds %d", listed, len(ps.cold.pendSpill))
	}
}

// checkPostedList sweeps the posted-receive list filed under k (nil means
// the wildcard list).
func (ps *procState) checkPostedList(where string, k *matchKey, q *list[Request]) {
	wild := k == nil
	key := "wildcard"
	if !wild {
		key = fmt.Sprintf("%+v", *k)
	}
	var lastID uint64 // request ids start at 1
	broken := q.walk(postedAt, func(r *Request) {
		switch {
		case r.kind != recvReq || !r.has(reqPosted) || r.has(reqWild) != wild:
			ps.fail("posted-index", where, "request %d in posted list %q is not a posted receive of the right flavour (kind=%d posted=%v wild=%v)",
				r.id, key, r.kind, r.has(reqPosted), r.has(reqWild))
		case wild && r.src != AnySource:
			ps.fail("posted-index", where, "request %d in wildcard list has source %d", r.id, r.src)
		case !wild && !r.filedUnder(*k):
			ps.fail("posted-index", where, "request %d filed under %s is a receive on comm %d from %d",
				r.id, key, r.comm.id, r.src)
		case r.Done():
			ps.fail("posted-index", where, "completed request %d (%s) still in posted list %q", r.id, r.opName(), key)
		case r.postQ != q:
			ps.fail("posted-index", where, "request %d in posted list %q has a stale postQ backpointer", r.id, key)
		case !r.has(reqPending) || ps.findPending(r.id) != r:
			ps.fail("posted-index", where, "posted receive %d missing from the pending lookup (pending bit %v)", r.id, r.has(reqPending))
		case r.id <= lastID:
			ps.fail("posted-index", where, "posted list %q out of post order: id %d after %d", key, r.id, lastID)
		}
		lastID = r.id
	})
	if broken != "" {
		ps.fail("posted-index", where, "posted list %q: %s", key, broken)
	}
}

// filedUnder reports whether k is the match key of an exact-source
// receive: its communicator, and the rank there of its source.
func (r *Request) filedUnder(k matchKey) bool {
	return int(k.comm) == r.comm.id && k.src >= 0 && int(k.src) < r.comm.n && r.comm.WorldRank(int(k.src)) == int(r.src)
}

// checkFinalize is the conservation sweep run by a clean Finalize: after
// a correct application quiesces, nothing may remain in flight at this
// process.
func (ps *procState) checkFinalize() {
	ps.checkIndexes("finalize")
	if n := ps.pendLen; n > 0 {
		detail := ""
		for r := ps.pending.head; r != nil; r = r.pending.next {
			detail += fmt.Sprintf("\n    request %d: %s peer %d tag %d (comm %d)", r.id, r.opName(), r.peer(), r.tag, r.comm.id)
		}
		ps.fail("finalize-pending", "finalize", "%d requests still pending at Finalize:%s", n, detail)
	}
	if ps.postedWild.head != nil {
		ps.fail("finalize-pending", "finalize", "wildcard receives still posted at Finalize")
	}
	ps.posted.each(func(k matchKey, q *list[Request]) {
		if q.head != nil {
			ps.fail("finalize-pending", "finalize", "receives still posted for key %+v at Finalize", k)
		}
	})
	if ps.cold.probe != nil {
		ps.fail("finalize-pending", "finalize", "a probe is still outstanding at Finalize")
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
