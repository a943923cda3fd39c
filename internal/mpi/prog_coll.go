package mpi

import "fmt"

// This file holds the collective algorithms, each written once as a
// resumable state machine over the reserved negative-tag traffic. A Prog
// steps the machine from its own Step; the closure-mode methods in
// collectives.go drive the same machine and Block on its park values, so
// the two modes cannot diverge.
//
// Every collective but alltoall and ULFM's survivor exchange is data: a
// row of collTable listing one or two fans. A fan moves one message between
// the root and every other member — a fan-in toward the root, a fan-out
// away from it — linearly (the paper's configuration) or, where the row
// allows it, along a binomial tree (ablation). stepFan holds the fans'
// rank-order loop and the only tree walks, and sendHop/recvHop the only two
// blocking hop sites (post the request, park on its WaitState, recycle it
// at completion), so detection, release-on-error and revocation inside a
// collective are each decided once.
//
// What travels is the row's business, through two hooks per fan:
//
//   - give returns the payload for one peer. It runs once, when the hop is
//     posted, and never again when a parked hop resumes, so a pooled payload
//     is built exactly once. It says whether the buffer is pooled and
//     transfers to the MPI layer (owned: no copy at either end) or stays the
//     caller's and is copied.
//   - take consumes the message received from one peer. The receive hop
//     owns the message and releases it after take returns, whatever take
//     reports: a take that keeps the payload steals msg.Data, and one that
//     fails leaks nothing.
//
// A nil hook is a bare signal: nothing to send, nothing to keep. Optional
// glue runs between fans: enter once the first fan is charged, turn once
// the second is (it builds what the root fans out), leave after both
// completed (it decodes the result).

// hopState is one blocking hop — post a request, wait for it, recycle it:
// an internal hop of a collective algorithm, or the whole of a blocking
// point-to-point operation (RecvState, SendState).
type hopState struct {
	ws  WaitState
	req [1]*Request // the set ws waits on
}

// inFlight reports whether a hop has been posted and not yet completed;
// the machines use it to distinguish "start the next hop" from "resume the
// parked one".
func (h *hopState) inFlight() bool { return h.req[0] != nil }

// post starts the hop on a freshly posted request.
func (h *hopState) post(req *Request) {
	h.req[0] = req
	h.ws.Begin(h.req[:]...)
}

// hopStep advances the hop (raw error, no handler); on done the request
// has been recycled and the caller owns msg (nil for sends): it must
// Release it, or detach its Data, once consumed.
func (c *Comm) hopStep(h *hopState) (done bool, park any, msg *Message, err error) {
	done, park, err = c.env.waitStep(&h.ws)
	if !done {
		return false, park, nil, nil
	}
	req := h.req[0]
	h.req[0] = nil
	msg, err = c.env.ps.finishReq(req, err)
	return true, nil, msg, err
}

// collKind identifies the armed collective.
type collKind uint8

const (
	collNone collKind = iota
	collBarrier
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
	collShrink
	collAgree
)

// CollectiveState carries one collective operation (Barrier, Bcast,
// Reduce, Allreduce, Gather, Scatter, Allgather or Alltoall) across steps.
// Arm it with the matching Begin method, then call CollectiveStep from
// every step until it reports done; read the result with
// Bytes/Floats/Parts. ShrinkStep and AgreeStep arm and read it themselves.
// Zero value ready; reused collective after collective. One state drives
// one collective at a time.
type CollectiveState struct {
	kind    collKind
	counted bool
	// fan/phase/r/mask are the resumable counters: fan indexes the row's
	// fan in progress, phase is the stage within it (for alltoall, within
	// the exchange), r is the linear rank cursor, mask the tree mask.
	fan   uint8
	phase uint8
	r     int
	mask  int

	// Operands (set by Begin) and results. size is the simulated size
	// every sender of data charges: what this rank passed to Begin, or what
	// turn derived from it.
	root    int
	size    int
	data    []byte
	parts   [][]byte
	contrib []float64
	op      ReduceOp
	acc     []float64
	out     [][]byte

	hop hopState
	// failed is a survivor exchange's set of members known failed.
	failed map[int]bool
	// ws and reqs/recvs serve alltoall's single posted-all wait.
	ws    WaitState
	reqs  []*Request
	recvs []*Request
}

// arm resets the machine for a new collective, keeping the slice
// capacities (request sets, wait sets) the state has already grown but
// none of their contents: an alltoall that ended in error left its
// requests — and through them their messages — in reqs/recvs, and a state
// that is armed again (or disarmed, as the closure scratch is after every
// collective) must not pin them for the life of the process.
func (cs *CollectiveState) arm(kind collKind) {
	clear(cs.reqs)
	clear(cs.recvs)
	*cs = CollectiveState{kind: kind, hop: cs.hop, ws: cs.ws, reqs: cs.reqs[:0], recvs: cs.recvs[:0]}
}

// armData arms a collective whose operand is data, sent at its length.
func (cs *CollectiveState) armData(kind collKind, root int, data []byte) {
	cs.arm(kind)
	cs.root, cs.data, cs.size = root, data, len(data)
}

// BeginBarrier arms a Barrier.
func (cs *CollectiveState) BeginBarrier() { cs.arm(collBarrier) }

// BeginBcast arms a Bcast of root's data; non-root callers pass nil.
// Bytes returns the broadcast payload on done.
func (cs *CollectiveState) BeginBcast(root int, data []byte) { cs.armData(collBcast, root, data) }

// BeginReduce arms a Reduce of contrib at root with op. Floats returns
// the reduction at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginReduce(root int, contrib []float64, op ReduceOp) {
	cs.arm(collReduce)
	cs.root, cs.contrib, cs.op = root, contrib, op
}

// BeginAllreduce arms an Allreduce; Floats returns the reduction on done.
func (cs *CollectiveState) BeginAllreduce(contrib []float64, op ReduceOp) {
	cs.arm(collAllreduce)
	cs.contrib, cs.op = contrib, op
}

// BeginGather arms a Gather of data at root; Parts returns one slice per
// rank at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginGather(root int, data []byte) { cs.armData(collGather, root, data) }

// BeginScatter arms a Scatter of parts from root; non-root callers pass
// nil. Bytes returns this rank's part on done.
func (cs *CollectiveState) BeginScatter(root int, parts [][]byte) {
	cs.arm(collScatter)
	cs.root = root
	cs.parts = parts
}

// BeginAllgather arms an Allgather; Parts returns one slice per rank on
// done.
func (cs *CollectiveState) BeginAllgather(data []byte) { cs.armData(collAllgather, 0, data) }

// BeginAlltoall arms an Alltoall of parts[i] to rank i; Parts returns
// one received slice per rank on done.
func (cs *CollectiveState) BeginAlltoall(parts [][]byte) {
	cs.arm(collAlltoall)
	cs.parts = parts
}

// Bytes returns the byte-slice result (Bcast: the broadcast payload;
// Scatter: this rank's part) after CollectiveStep reports done.
func (cs *CollectiveState) Bytes() []byte { return cs.data }

// Floats returns the float result (Reduce at the root, Allreduce
// everywhere) after CollectiveStep reports done.
func (cs *CollectiveState) Floats() []float64 { return cs.acc }

// Parts returns the per-rank result (Gather at the root, Allgather,
// Alltoall) after CollectiveStep reports done.
func (cs *CollectiveState) Parts() [][]byte { return cs.out }

// CollectiveStep advances the armed collective. It returns done == false
// with the park value to park on, or done == true with the operation's
// error after the communicator's error handler ran (with ErrorsAreFatal an
// error aborts and this call does not return).
func (c *Comm) CollectiveStep(cs *CollectiveState) (done bool, park any, err error) {
	if !cs.counted {
		c.env.ps.dp.collectives++ // once per public call: a composite collective counts once
		cs.counted = true
		// Every member passes the same root, so every member rejects a bad
		// one here, before any traffic: unchecked, a negative root reads as
		// AnySource on the internal tag (and deadlocks), and one past the
		// end addresses an event to a rank that does not exist. Unrooted
		// collectives leave root at 0.
		if cs.root < 0 || cs.root >= c.n {
			return true, nil, c.handleError(fmt.Errorf("mpi: collective root rank %d out of range [0,%d)", cs.root, c.n))
		}
	}
	switch cs.kind {
	case collNone:
		panic("mpi: CollectiveStep without a Begin")
	case collAlltoall:
		done, park, err = c.stepAlltoall(cs)
	case collShrink, collAgree:
		done, park, err = c.stepSurvivors(cs)
	default:
		done, park, err = c.stepFans(cs, &collTable[cs.kind])
	}
	if done && err != nil {
		err = c.handleError(err)
	}
	return done, park, err
}

// fan is one wave of a collective: one message between the root and every
// other member, all on one tag.
type fan struct {
	// in: the members send toward the root (fan-in); otherwise the root
	// sends toward the members (fan-out).
	in  bool
	tag int
	// tree: the fan follows WorldConfig.Collectives onto the binomial tree;
	// false keeps it linear whatever the configuration.
	tree bool
	// call is the MPI call the fan is charged as when it begins: one
	// revocation check, one call overhead. "" charges nothing — the fan is
	// the second half of the call the first fan paid for.
	call string
	give func(c *Comm, cs *CollectiveState, peer int) (size int, data []byte, owned bool)
	take func(c *Comm, cs *CollectiveState, peer int, msg *Message) error
}

// collSpec is one collective: its fans in order, and the glue around them.
type collSpec struct {
	fans               []fan
	enter, turn, leave func(c *Comm, cs *CollectiveState) error
}

// collTable is every fan-built collective, indexed by collKind; a new
// rooted collective is one row plus its hooks. The unrooted ones run at
// root 0, where arm leaves cs.root.
//
// Barrier: every rank reports to rank 0, which then releases every rank; a
// failure anywhere is detected here by timeout — the paper's "failure
// during the checkpoint phase is detected in the following barrier". The
// release is part of the same call and charges nothing.
//
// Allreduce and Allgather are Reduce's and Gather's fan-in followed by
// Bcast's fan-out of the encoded result, matching linear-algorithm MPI
// implementations: two calls, each charged and each checking revocation.
// Allgather's broadcast stays on its own tag; Gather and Scatter are
// linear under either configuration.
var collTable = [...]collSpec{
	collBarrier: {fans: []fan{
		{in: true, tag: tagBarrierIn, tree: true, call: "barrier"},
		{tag: tagBarrierOut, tree: true}}},
	collBcast: {fans: []fan{
		{tag: tagBcast, tree: true, call: "bcast", give: giveData, take: takeData}}},
	collReduce: {enter: enterFold, fans: []fan{
		{in: true, tag: tagReduce, tree: true, call: "reduce", give: giveFold, take: takeFold}}},
	collAllreduce: {enter: enterFold, turn: turnAllreduce, leave: leaveAllreduce, fans: []fan{
		{in: true, tag: tagReduce, tree: true, call: "reduce", give: giveFold, take: takeFold},
		{tag: tagBcast, tree: true, call: "bcast", give: giveData, take: takeData}}},
	collGather: {enter: enterGather, fans: []fan{
		{in: true, tag: tagGather, call: "gather", give: giveData, take: takePart}}},
	collScatter: {enter: enterScatter, fans: []fan{
		{tag: tagScatter, call: "scatter", give: givePart, take: takeData}}},
	collAllgather: {enter: enterGather, turn: turnAllgather, leave: leaveAllgather, fans: []fan{
		{in: true, tag: tagAllgather, call: "gather", give: giveData, take: takePart},
		{tag: tagAllgather, tree: true, call: "bcast", give: giveData, take: takeData}}},
}

// Stages of one fan (cs.phase).
const (
	fanBegin   uint8 = iota // charge the call, run the glue, reset the cursors
	fanRun                  // linear loop, walk toward the root, or receive from the tree parent
	fanForward              // tree fan-out only: forward to the children
)

// stepFans runs the row's fans in order, then its leave glue.
func (c *Comm) stepFans(cs *CollectiveState, spec *collSpec) (done bool, park any, err error) {
	for ; int(cs.fan) < len(spec.fans); cs.fan++ {
		f := &spec.fans[cs.fan]
		if cs.phase == fanBegin {
			if f.call != "" {
				if err := c.checkRevoked(f.call); err != nil {
					return true, nil, err
				}
				c.env.chargeCall()
			}
			glue := spec.enter
			if cs.fan > 0 {
				glue = spec.turn
			}
			if glue != nil {
				if err := glue(c, cs); err != nil {
					return true, nil, err
				}
			}
			cs.r, cs.mask, cs.phase = 0, 1, fanRun
		}
		if done, park, err := c.stepFan(cs, f); !done || err != nil {
			return done, park, err
		}
		cs.phase = fanBegin
	}
	if spec.leave != nil {
		return true, nil, spec.leave(c, cs)
	}
	return true, nil, nil
}

// stepFan moves one message between cs.root and every other member, one
// blocking hop at a time.
func (c *Comm) stepFan(cs *CollectiveState, f *fan) (done bool, park any, err error) {
	n := c.Size()
	if !f.tree || c.env.w.cfg.Collectives != Tree {
		// Linear: a member exchanges one message with the root, and the root
		// serves the members in rank order — which keeps a folding fan-in
		// deterministic even for non-associative floating-point ops.
		hop := (*Comm).recvHop
		if (c.rank == cs.root) != f.in {
			hop = (*Comm).sendHop
		}
		if c.rank != cs.root {
			return hop(c, cs, f, cs.root)
		}
		for ; cs.r < n; cs.r++ {
			if cs.r == cs.root {
				continue
			}
			if done, park, err := hop(c, cs, f, cs.r); !done || err != nil {
				return done, park, err
			}
		}
		return true, nil, nil
	}
	// Binomial tree rooted at cs.root (the standard MPICH-style algorithm),
	// walked over ranks renumbered so the root is 0.
	vrank := (c.rank - cs.root + n) % n
	if f.in {
		// Toward the root: take from each child in mask order, then give to
		// the parent, where this rank's part ends. A folding fan-in folds in
		// a different order than the linear one, so results for
		// non-associative floating-point operations may differ in the last
		// bits — the usual MPI caveat.
		for ; cs.mask < n; cs.mask <<= 1 {
			if vrank&cs.mask != 0 {
				return c.sendHop(cs, f, (vrank-cs.mask+cs.root)%n)
			}
			if child := vrank | cs.mask; child < n {
				if done, park, err := c.recvHop(cs, f, (child+cs.root)%n); !done || err != nil {
					return done, park, err
				}
			}
		}
		return true, nil, nil
	}
	// From the root: walk the mask up to this rank's parent bit and take
	// from the parent (the root has none), then give to each child on the
	// way back down.
	if cs.phase == fanRun {
		for cs.mask < n && vrank&cs.mask == 0 {
			cs.mask <<= 1
		}
		if cs.mask < n {
			if done, park, err := c.recvHop(cs, f, (vrank-cs.mask+cs.root)%n); !done || err != nil {
				return done, park, err
			}
		}
		cs.mask >>= 1
		cs.phase = fanForward
	}
	for ; cs.mask > 0; cs.mask >>= 1 {
		if vrank+cs.mask < n {
			if done, park, err := c.sendHop(cs, f, (vrank+cs.mask+cs.root)%n); !done || err != nil {
				return done, park, err
			}
		}
	}
	return true, nil, nil
}

// sendHop is the blocking send of a fan: post what give returns unless the
// hop is already in flight, then wait.
func (c *Comm) sendHop(cs *CollectiveState, f *fan, peer int) (done bool, park any, err error) {
	if !cs.hop.inFlight() {
		var size int
		var data []byte
		var owned bool
		if f.give != nil {
			size, data, owned = f.give(c, cs, peer)
		}
		cs.hop.post(c.isendDP(peer, f.tag, size, data, owned))
	}
	done, park, _, err = c.hopStep(&cs.hop)
	return done, park, err
}

// recvHop is the blocking receive of a fan: post unless in flight, wait,
// hand the message to take, release it.
func (c *Comm) recvHop(cs *CollectiveState, f *fan, peer int) (done bool, park any, err error) {
	if !cs.hop.inFlight() {
		cs.hop.post(c.irecvTag(peer, f.tag))
	}
	done, park, msg, err := c.hopStep(&cs.hop)
	if !done || err != nil {
		return done, park, err
	}
	if f.take != nil {
		err = f.take(c, cs, peer, msg)
	}
	msg.Release()
	return true, nil, err
}

// giveData and takeData move cs.data: the root's operand on the way out,
// the received payload (detached from the pool's custody) at a member, who
// forwards it down the tree as it came. The simulated size is cs.size, not
// the payload's length: a Bcast or Allgather member armed with nil forwards
// at size 0, as the written-out tree broadcast did — the hop golden pins it.
func giveData(_ *Comm, cs *CollectiveState, _ int) (int, []byte, bool) {
	return cs.size, cs.data, false
}

func takeData(_ *Comm, cs *CollectiveState, _ int, msg *Message) error {
	cs.data, msg.Data = msg.Data, nil
	return nil
}

// givePart and takePart move one rank's slice: parts[peer] out of a
// scatter's root, the peer's payload into a gather's out[peer].
func givePart(_ *Comm, cs *CollectiveState, peer int) (int, []byte, bool) {
	return len(cs.parts[peer]), cs.parts[peer], false
}

func takePart(_ *Comm, cs *CollectiveState, peer int, msg *Message) error {
	cs.out[peer], msg.Data = msg.Data, nil
	return nil
}

// enterFold starts the root's accumulator as a copy of its contribution.
func enterFold(c *Comm, cs *CollectiveState) error {
	if c.rank == cs.root {
		cs.acc = append([]float64(nil), cs.contrib...)
	}
	return nil
}

// giveFold ships what this rank has folded so far — its bare contribution
// if nothing was folded into it (every linear member, every tree leaf) —
// encoded into a pooled buffer the message takes with it, and drops the
// accumulator: only the root holds a result.
func giveFold(c *Comm, cs *CollectiveState, _ int) (int, []byte, bool) {
	vals := cs.acc
	if vals == nil {
		vals = cs.contrib
	}
	cs.acc = nil
	return 8 * len(vals), encodeF64sPool(c.env.ps.dp, vals), true
}

// takeFold folds one contribution into the accumulator (an interior tree
// node starts its own at the first child). It decodes into the per-process
// scratch, so a whole fold reuses one float slice and, with recvHop's
// release, one buffer.
func takeFold(c *Comm, cs *CollectiveState, _ int, msg *Message) error {
	if cs.acc == nil {
		cs.acc = append([]float64(nil), cs.contrib...)
	}
	vals := c.env.ps.scratchF64(len(cs.contrib))
	if err := decodeF64sInto(vals, msg.Data); err != nil {
		return err
	}
	cs.op(cs.acc, vals)
	return nil
}

// turnAllreduce encodes the reduction for the broadcast; every rank
// forwards it at its full size.
func turnAllreduce(c *Comm, cs *CollectiveState) error {
	cs.size = 8 * len(cs.contrib)
	if c.rank == cs.root {
		cs.data = encodeF64sPool(c.env.ps.dp, cs.acc)
	}
	return nil
}

// leaveAllreduce decodes the broadcast into the result and returns its
// buffer to the pool (the fan-out copied it per send). The root already
// holds the reduction, and decode(encode(x)) is bit-identical for float64,
// so it skips the round-trip.
func leaveAllreduce(c *Comm, cs *CollectiveState) (err error) {
	buf := cs.data
	cs.data = nil
	if c.rank != cs.root {
		cs.acc, err = decodeF64s(buf, len(cs.contrib))
	}
	c.env.ps.dp.putBuf(buf)
	return err
}

// enterGather starts the root's result with a copy of its own part.
func enterGather(c *Comm, cs *CollectiveState) error {
	if c.rank == cs.root {
		cs.out = make([][]byte, c.n)
		cs.out[cs.root] = append([]byte(nil), cs.data...)
	}
	return nil
}

// enterScatter checks the root's operand and keeps its own part.
func enterScatter(c *Comm, cs *CollectiveState) error {
	if c.rank != cs.root {
		return nil
	}
	if len(cs.parts) != c.n {
		return fmt.Errorf("mpi: scatter needs %d parts, got %d", c.n, len(cs.parts))
	}
	cs.data = append([]byte(nil), cs.parts[cs.root]...)
	return nil
}

// turnAllgather frames the gathered parts for the broadcast. The parts are
// folded into the frame, so the pooled ones go back (the root's own is a
// fresh copy).
func turnAllgather(c *Comm, cs *CollectiveState) error {
	cs.data, cs.size = nil, 0
	if c.rank == cs.root {
		dp := c.env.ps.dp
		cs.data = framePool(dp, cs.out)
		cs.size = len(cs.data)
		for r, p := range cs.out {
			if r != c.rank {
				dp.putBuf(p)
			}
		}
		cs.out = nil
	}
	return nil
}

// leaveAllgather unframes the broadcast into the result and returns its
// buffer to the pool.
func leaveAllgather(c *Comm, cs *CollectiveState) (err error) {
	framed := cs.data
	cs.data = nil
	cs.out, err = unframe(framed)
	c.env.ps.dp.putBuf(framed)
	return err
}

// stepAlltoall sends cs.parts[i] to rank i: every receive is posted before
// any send, so the exchange cannot deadlock under the rendezvous protocol;
// then one wait over all of them, then the per-rank payload detach. The
// result lands in cs.out.
func (c *Comm) stepAlltoall(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	switch cs.phase {
	case 0:
		if err := c.checkRevoked("alltoall"); err != nil {
			return true, nil, err
		}
		c.env.chargeCall()
		if len(cs.parts) != n {
			return true, nil, fmt.Errorf("mpi: alltoall needs %d parts, got %d", n, len(cs.parts))
		}
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			req := c.irecvTag(r, tagAlltoall)
			cs.recvs = append(cs.recvs, req)
			cs.reqs = append(cs.reqs, req)
		}
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			cs.reqs = append(cs.reqs, c.isendDP(r, tagAlltoall, len(cs.parts[r]), cs.parts[r], false))
		}
		cs.ws.Begin(cs.reqs...)
		cs.phase = 1
		fallthrough
	case 1:
		done, park, err = c.env.waitStep(&cs.ws)
		if !done {
			return false, park, nil
		}
		if err != nil {
			// Some requests may still be in flight, so none is recycled:
			// they fall to the garbage collector once the next arm drops
			// the references.
			return true, nil, err
		}
		out := make([][]byte, n)
		out[c.rank] = append([]byte(nil), cs.parts[c.rank]...)
		i := 0
		for r := 0; r < n; r++ {
			if r == c.rank {
				continue
			}
			out[r] = detachData(cs.recvs[i].TakeMsg())
			i++
		}
		// None of the requests escaped; recycle them all and drop the
		// references so the idle state does not pin the recycled requests.
		for _, req := range cs.reqs {
			c.env.ps.dp.putReq(req)
		}
		clear(cs.reqs)
		clear(cs.recvs)
		cs.reqs, cs.recvs = cs.reqs[:0], cs.recvs[:0]
		cs.out = out
		return true, nil, nil
	default:
		panic(fmt.Sprintf("mpi: alltoall state machine in phase %d", cs.phase))
	}
}

// Stages of a survivor exchange (cs.phase).
const (
	survElect   uint8 = iota // elect the lowest member not known failed as root
	survReports              // the reports travel to the root
	survResult               // the decision travels back
)

// stepSurvivors is ULFM's survivor exchange, the one body of Shrink and
// Agree. Each member elects as root the lowest member it does not know
// failed, sends it its report (cs.data) and receives the decision into
// cs.data. The root folds one report from every other member not known
// failed, marking failed each whose receive fails, and sends the decision
// to the members still not failed, skipping any that died since. A member
// whose report to its root or decision from it fails with a
// ProcFailedError marks that root failed and elects again, so survivors
// that learned of a failure at different instants still meet at one root;
// that root must then stay alive through the exchange. The exchange keeps
// off stepFan on purpose: its survivor filter and tolerated deaths would
// make the shared loop branch on its caller.
func (c *Comm) stepSurvivors(cs *CollectiveState) (done bool, park any, err error) {
	if cs.failed == nil {
		c.env.chargeCall()
		cs.failed = make(map[int]bool)
	}
	for {
		if cs.phase == survElect {
			for _, cr := range c.FailedInComm() {
				cs.failed[cr] = true
			}
			for cs.root = 0; cs.failed[cs.root]; cs.root++ { // stops at c.rank at the latest
			}
			cs.r, cs.phase = 0, survReports
		}
		f := &survivorFans[cs.kind-collShrink][cs.phase-survReports]
		hop := (*Comm).recvHop
		if (c.rank == cs.root) != f.in {
			hop = (*Comm).sendHop
		}
		if c.rank != cs.root {
			done, park, err := hop(c, cs, f, cs.root)
			switch _, dead := err.(*ProcFailedError); {
			case !done:
				return false, park, nil
			case dead:
				cs.failed[cs.root] = true
				cs.phase = survElect
			case err != nil || cs.phase == survResult:
				return true, nil, err
			default:
				cs.phase = survResult
			}
			continue
		}
		for ; cs.r < c.n; cs.r++ {
			if cs.r == cs.root || cs.failed[cs.r] {
				continue
			}
			done, park, err := hop(c, cs, f, cs.r)
			if !done {
				return false, park, nil
			}
			if _, dead := err.(*ProcFailedError); dead {
				cs.failed[cs.r] = true
			} else if err != nil {
				return true, nil, err
			}
		}
		if cs.phase == survResult {
			return true, nil, nil
		}
		if cs.kind == collShrink { // the decision is the survivors' list
			var live []int
			for cr := 0; cr < c.n; cr++ {
				if !cs.failed[cr] {
					live = append(live, cr)
				}
			}
			cs.data = encodeRanks(live)
			cs.size = len(cs.data)
		}
		cs.r, cs.phase = 0, survResult
	}
}
