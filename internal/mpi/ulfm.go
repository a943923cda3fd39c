package mpi

import (
	"encoding/binary"
	"fmt"

	"xsim/internal/core"
)

// This file implements the MPI user-level failure mitigation (ULFM)
// surface the paper names as future work it had just begun: error
// notification at the application (ProcFailedError instead of a fatal
// abort), remote process notification via communicator revocation
// (MPI_Comm_revoke), and communicator reconfiguration (MPI_Comm_shrink),
// plus a simplified fault-tolerant agreement (MPI_Comm_agree).

// Internal ULFM tags (within the reserved negative tag space).
const (
	tagShrinkReport = TagULFMBase - iota
	tagShrinkResult
	tagAgreeReport
	tagAgreeResult
)

// handleRevoke processes a communicator revocation at one partition:
// every local process marks the communicator revoked, and pending
// operations on it complete with RevokedError.
func (w *World) handleRevoke(s *core.SchedCtx, ev *core.Event) {
	commID := int(ev.Words[0])
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		ps := localState(s, rank)
		if ps == nil {
			continue
		}
		if ps.revoked == nil {
			ps.revoked = make(map[int]bool)
		}
		if ps.revoked[commID] {
			continue
		}
		ps.revoked[commID] = true
		// completeRequest unlinks the request from the pending list, so
		// capture the successor before completing each one.
		for req := ps.pending.head; req != nil; {
			next := req.pending.next
			if req.comm.id == commID {
				ws := completeRequest(ps, req, ev.Time, &RevokedError{Comm: commID})
				wakeIfWaiting(s, ps, ws, req.completeAt)
			}
			req = next
		}
	}
}

// Revoke revokes the communicator (MPI_Comm_revoke): a simulator-internal
// notification reaches every process, pending and future operations on
// the communicator fail with RevokedError, and collective recovery
// (Shrink) becomes possible. Revoke itself never blocks.
func (c *Comm) Revoke() {
	e := c.env
	c.markRevoked()
	e.Logf("MPI_Comm_revoke on comm %d", c.id)
	e.ctx.EmitBroadcast(core.Event{
		Time:  e.ctx.NowQuiet().Add(e.w.notifyDelay()),
		Kind:  kindRevoke,
		Words: [core.EventWords]uint64{uint64(c.id)},
	})
}

// encodeRanks serialises a rank list.
func encodeRanks(ranks []int) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(ranks)))
	for _, r := range ranks {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r))
	}
	return buf
}

// decodeRanks reverses encodeRanks.
func decodeRanks(buf []byte) ([]int, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("mpi: rank list too short")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if len(buf) != 4+4*n {
		return nil, fmt.Errorf("mpi: rank list is %d bytes for %d ranks", len(buf), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint32(buf[4+4*i:]))
	}
	return out, nil
}

// survivorExchange is the body Shrink and Agree share. The lowest-ranked
// member not known failed collects one report from every other such member
// and folds it; a report that times out reveals a further failure, and that
// member is marked failed. decide then turns what was folded, and the
// members still not failed, into the decision; it goes to those members, and
// the sends tolerate deaths: a member that died after the decision was
// taken is skipped and the survivors proceed. Every other member reports
// and waits for the decision. All members return the decision's bytes. The
// simplification relative to full ULFM is that the collecting survivor must
// stay alive throughout.
func (c *Comm) survivorExchange(op, prep string, reportTag, resultTag int, report []byte,
	fold func(failed map[int]bool, report []byte) error,
	decide func(live []int) []byte,
) ([]byte, error) {
	c.env.chargeCall()
	failed := make(map[int]bool)
	for _, cr := range c.FailedInComm() {
		failed[cr] = true
	}
	root := 0
	for root < c.n && failed[root] {
		root++
	}
	if root == c.n {
		return nil, fmt.Errorf("mpi: %s %s comm %d: no survivors", op, prep, c.id)
	}
	if c.rank != root {
		if err := c.sendTag(root, reportTag, len(report), report); err != nil {
			return nil, fmt.Errorf("mpi: %s report to root failed: %w", op, err)
		}
		msg, err := c.recvTag(root, resultTag)
		if err != nil {
			return nil, fmt.Errorf("mpi: %s result from root failed: %w", op, err)
		}
		decision := append([]byte(nil), msg.Data...)
		msg.Release()
		return decision, nil
	}
	for cr := 0; cr < c.n; cr++ {
		if cr == root || failed[cr] {
			continue
		}
		msg, err := c.recvTag(cr, reportTag)
		if err != nil {
			if _, ok := err.(*ProcFailedError); ok {
				failed[cr] = true
				continue
			}
			return nil, err
		}
		err = fold(failed, msg.Data)
		msg.Release() // fold copied out what it keeps
		if err != nil {
			return nil, err
		}
	}
	var live []int
	for cr := 0; cr < c.n; cr++ {
		if !failed[cr] {
			live = append(live, cr)
		}
	}
	decision := decide(live)
	for _, cr := range live {
		if cr == root {
			continue
		}
		if err := c.sendTag(cr, resultTag, len(decision), decision); err != nil {
			if _, ok := err.(*ProcFailedError); !ok {
				return nil, err
			}
		}
	}
	return decision, nil
}

// Shrink builds a new communicator containing the surviving members
// (MPI_Comm_shrink). It is collective among the survivors: each reports
// its locally known failed set to the lowest-ranked survivor, which unions
// them (treating report timeouts as further failures), decides the new
// membership, and distributes it. Survivors return the new communicator
// with their new rank; the root survivor must stay alive through the
// shrink.
func (c *Comm) Shrink() (*Comm, error) {
	decision, err := c.survivorExchange("shrink", "of", tagShrinkReport, tagShrinkResult, encodeRanks(c.FailedInComm()),
		func(failed map[int]bool, report []byte) error {
			ranks, err := decodeRanks(report)
			for _, fr := range ranks {
				failed[fr] = true
			}
			return err
		},
		encodeRanks)
	if err != nil {
		return nil, err
	}
	live, err := decodeRanks(decision)
	if err != nil {
		return nil, err
	}
	return c.commFromCommRanks(live), nil
}

// commFromCommRanks derives a communicator from a list of this
// communicator's ranks.
func (c *Comm) commFromCommRanks(commRanks []int) *Comm {
	group := make([]int, len(commRanks))
	for i, cr := range commRanks {
		group[i] = c.WorldRank(cr)
	}
	return c.env.newComm(group, c.env.Rank())
}

// Agree performs a simplified fault-tolerant agreement (MPI_Comm_agree):
// the survivors' flags are combined with bitwise AND and every survivor
// whose flag arrived receives the result, even if other members failed.
// The root survivor must stay alive through the agreement.
func (c *Comm) Agree(flag uint32) (uint32, error) {
	acc := flag
	decision, err := c.survivorExchange("agree", "on", tagAgreeReport, tagAgreeResult, binary.LittleEndian.AppendUint32(nil, flag),
		func(_ map[int]bool, report []byte) error {
			if len(report) != 4 {
				return fmt.Errorf("mpi: agree report is %d bytes", len(report))
			}
			acc &= binary.LittleEndian.Uint32(report)
			return nil
		},
		func([]int) []byte { return binary.LittleEndian.AppendUint32(nil, acc) })
	if err != nil {
		return 0, err
	}
	if len(decision) != 4 {
		return 0, fmt.Errorf("mpi: agree result is %d bytes", len(decision))
	}
	return binary.LittleEndian.Uint32(decision), nil
}
