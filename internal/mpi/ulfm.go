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

// handleRevoke processes a communicator revocation at one partition:
// every local process marks the communicator revoked, and pending
// operations on it complete with RevokedError.
func (w *World) handleRevoke(s *core.SchedCtx, ev *core.Event) {
	commID := int(ev.Words[0])
	lo, hi := s.LocalRanks()
	for rank := lo; rank < hi; rank++ {
		ps := localState(s, rank)
		if ps == nil || !ps.revoke(commID) {
			continue
		}
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
	e.ps.revoke(c.id)
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

// survivorFans are the two waves of each survivor exchange (stepSurvivors),
// indexed by cs.kind-collShrink: the report a member sends its root, which
// take folds, and the decision the root sends back, which take keeps.
var survivorFans = [...][2]fan{
	{{in: true, tag: tagShrinkReport, give: giveData, take: takeFailed}, {tag: tagShrinkResult, give: giveData, take: takeData}},
	{{in: true, tag: tagAgreeReport, give: giveData, take: takeAnd}, {tag: tagAgreeResult, give: giveData, take: takeData}},
}

// takeFailed folds a member's known-failed ranks into the root's set.
func takeFailed(_ *Comm, cs *CollectiveState, _ int, msg *Message) error {
	ranks, err := decodeRanks(msg.Data)
	for _, fr := range ranks {
		cs.failed[fr] = true
	}
	return err
}

// takeAnd folds a member's flag into the root's, in its report buffer.
func takeAnd(_ *Comm, cs *CollectiveState, _ int, msg *Message) error {
	if len(msg.Data) != 4 {
		return fmt.Errorf("mpi: agree report is %d bytes", len(msg.Data))
	}
	binary.LittleEndian.PutUint32(cs.data, binary.LittleEndian.Uint32(cs.data)&binary.LittleEndian.Uint32(msg.Data))
	return nil
}

// beginSurvivors arms a survivor exchange of report. ULFM's recovery is not
// an application collective, so CollectiveOps does not count it.
func (cs *CollectiveState) beginSurvivors(kind collKind, report []byte) {
	cs.armData(kind, 0, report)
	cs.counted = true
}

// Shrink builds a new communicator containing the surviving members
// (MPI_Comm_shrink). It is collective among the survivors: each reports
// its locally known failed set to the lowest-ranked survivor, which unions
// them (treating report timeouts as further failures), decides the new
// membership, and distributes it. Survivors return the new communicator
// with their new rank. A survivor that finds its root dead elects the next
// one; the root every survivor finally elects must stay alive through the
// shrink.
func (c *Comm) Shrink() (*Comm, error) {
	cs := &c.env.closure().coll
	cs.beginSurvivors(collShrink, encodeRanks(c.FailedInComm()))
	decision, _, _, err := c.drive(cs)
	return c.shrunk(decision, err)
}

// ShrinkStep advances a Shrink on cs, the step form of Comm.Shrink: the
// first call arms cs, and on done it returns the new communicator.
func (c *Comm) ShrinkStep(cs *CollectiveState) (done bool, park any, shrunk *Comm, err error) {
	if cs.kind != collShrink {
		cs.beginSurvivors(collShrink, encodeRanks(c.FailedInComm()))
	}
	if done, park, err = c.CollectiveStep(cs); done {
		shrunk, err = c.shrunk(cs.data, err)
		cs.arm(collNone)
	}
	return done, park, shrunk, err
}

// shrunk derives the communicator a Shrink decided on.
func (c *Comm) shrunk(decision []byte, err error) (*Comm, error) {
	var live []int
	if err == nil {
		live, err = decodeRanks(decision)
	}
	if err != nil {
		return nil, err
	}
	return c.Sub(live), nil
}

// Agree performs a simplified fault-tolerant agreement (MPI_Comm_agree):
// the survivors' flags are combined with bitwise AND and every survivor
// whose flag arrived receives the result, even if other members failed.
// Its root is elected as Shrink's is.
func (c *Comm) Agree(flag uint32) (uint32, error) {
	cs := &c.env.closure().coll
	cs.beginSurvivors(collAgree, binary.LittleEndian.AppendUint32(nil, flag))
	decision, _, _, err := c.drive(cs)
	return agreed(decision, err)
}

// AgreeStep advances an Agree on cs, the step form of Comm.Agree: the
// first call arms cs with flag, and on done it returns the agreed flags.
func (c *Comm) AgreeStep(cs *CollectiveState, flag uint32) (done bool, park any, result uint32, err error) {
	if cs.kind != collAgree {
		cs.beginSurvivors(collAgree, binary.LittleEndian.AppendUint32(nil, flag))
	}
	if done, park, err = c.CollectiveStep(cs); done {
		result, err = agreed(cs.data, err)
		cs.arm(collNone)
	}
	return done, park, result, err
}

// agreed decodes the flags an Agree decided on.
func agreed(decision []byte, err error) (uint32, error) {
	if err == nil && len(decision) != 4 {
		err = fmt.Errorf("mpi: agree result is %d bytes", len(decision))
	}
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(decision), nil
}
