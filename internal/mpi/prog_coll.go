package mpi

import "fmt"

// This file holds the collective algorithms, each written once as a
// resumable state machine: CollectiveState carries the linear (the paper's
// configuration) and binomial-tree (ablation) algorithms over the reserved
// negative-tag traffic. A Prog steps the machine from its own Step; the
// closure-mode methods in collectives.go drive the same machine and Block
// on its park values, so the two modes cannot diverge. Each internal
// blocking hop is a hopState: post the request, park on its WaitState,
// recycle it at completion.

// hopState is one blocking hop — post a request, wait for it, recycle it:
// an internal hop of a collective algorithm, or the whole of a blocking
// point-to-point operation (RecvState, SendState).
type hopState struct {
	ws  WaitState
	req *Request
}

// inFlight reports whether a hop has been posted and not yet completed;
// the machines use it to distinguish "start the next hop" from "resume the
// parked one".
func (h *hopState) inFlight() bool { return h.req != nil }

// post starts the hop on a freshly posted request.
func (h *hopState) post(req *Request) {
	h.req = req
	h.ws.Begin(req)
}

// hopSend posts a send hop; the caller keeps ownership of data.
func (c *Comm) hopSend(h *hopState, dst, tag, size int, data []byte) {
	h.post(c.isendTag(dst, tag, size, data))
}

// hopSendOwned posts a send hop whose data is a pooled buffer: ownership
// transfers to the MPI layer and the payload travels with no copy at
// either end.
func (c *Comm) hopSendOwned(h *hopState, dst, tag, size int, data []byte) {
	h.post(c.isendOwned(dst, tag, size, data))
}

// hopRecv posts a receive hop.
func (c *Comm) hopRecv(h *hopState, src, tag int) {
	h.post(c.irecvTag(src, tag))
}

// hopStep advances the hop (raw error, no handler); on done the request
// has been recycled and the caller owns msg (nil for sends): it must
// Release it, or detach its Data, once consumed.
func (c *Comm) hopStep(h *hopState) (done bool, park any, msg *Message, err error) {
	done, park, err = c.env.waitStep(&h.ws)
	if !done {
		return false, park, nil, nil
	}
	req := h.req
	h.req = nil
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
)

// CollectiveState carries one collective operation (Barrier, Bcast,
// Reduce, Allreduce, Gather, Scatter, Allgather or Alltoall) across steps.
// Arm it with the matching Begin method, then call CollectiveStep from
// every step until it reports done; read the result with
// Bytes/Floats/Parts. Zero value ready; reused collective after
// collective. One state drives one collective at a time.
type CollectiveState struct {
	kind    collKind
	counted bool
	// phase/sub/r/mask are the resumable algorithm counters: phase is the
	// per-algorithm program counter, sub sequences composite collectives
	// (allreduce = reduce+bcast, allgather = gather+bcast), r is the
	// linear rank cursor, mask the tree mask.
	phase int
	sub   int
	r     int
	mask  int

	// Operands (set by Begin) and results.
	root    int
	tag     int
	size    int
	data    []byte
	parts   [][]byte
	contrib []float64
	op      ReduceOp
	acc     []float64
	out     [][]byte

	hop hopState
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
	cs.kind = kind
	cs.counted = false
	cs.phase = 0
	cs.sub = 0
	cs.r = 0
	cs.mask = 0
	cs.root = 0
	cs.tag = 0
	cs.size = 0
	cs.data = nil
	cs.parts = nil
	cs.contrib = nil
	cs.op = nil
	cs.acc = nil
	cs.out = nil
	clear(cs.reqs)
	cs.reqs = cs.reqs[:0]
	clear(cs.recvs)
	cs.recvs = cs.recvs[:0]
}

// BeginBarrier arms a Barrier.
func (cs *CollectiveState) BeginBarrier() { cs.arm(collBarrier) }

// BeginBcast arms a Bcast of root's data; non-root callers pass nil.
// Bytes returns the broadcast payload on done.
func (cs *CollectiveState) BeginBcast(root int, data []byte) {
	cs.arm(collBcast)
	cs.root = root
	cs.data = data
	cs.size = len(data)
	cs.tag = tagBcast
}

// BeginReduce arms a Reduce of contrib at root with op. Floats returns
// the reduction at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginReduce(root int, contrib []float64, op ReduceOp) {
	cs.arm(collReduce)
	cs.root = root
	cs.contrib = contrib
	cs.op = op
}

// BeginAllreduce arms an Allreduce; Floats returns the reduction on done.
func (cs *CollectiveState) BeginAllreduce(contrib []float64, op ReduceOp) {
	cs.arm(collAllreduce)
	cs.contrib = contrib
	cs.op = op
}

// BeginGather arms a Gather of data at root; Parts returns one slice per
// rank at the root (nil elsewhere) on done.
func (cs *CollectiveState) BeginGather(root int, data []byte) {
	cs.arm(collGather)
	cs.root = root
	cs.data = data
	cs.tag = tagGather
}

// BeginScatter arms a Scatter of parts from root; non-root callers pass
// nil. Bytes returns this rank's part on done.
func (cs *CollectiveState) BeginScatter(root int, parts [][]byte) {
	cs.arm(collScatter)
	cs.root = root
	cs.parts = parts
}

// BeginAllgather arms an Allgather; Parts returns one slice per rank on
// done.
func (cs *CollectiveState) BeginAllgather(data []byte) {
	cs.arm(collAllgather)
	cs.data = data
}

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
		c.env.w.m.countCollective(c.env.Rank())
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
	case collBarrier:
		done, park, err = c.stepBarrier(cs)
	case collBcast:
		done, park, err = c.stepBcast(cs)
	case collReduce:
		done, park, err = c.stepReduce(cs)
	case collAllreduce:
		done, park, err = c.stepAllreduce(cs)
	case collGather:
		done, park, err = c.stepGather(cs)
	case collScatter:
		done, park, err = c.stepScatter(cs)
	case collAllgather:
		done, park, err = c.stepAllgather(cs)
	case collAlltoall:
		done, park, err = c.stepAlltoall(cs)
	default:
		panic("mpi: CollectiveStep without a Begin")
	}
	if done && err != nil {
		err = c.handleError(err)
	}
	return done, park, err
}

// Tree-phase numbers shared by the machines: the binomial-tree broadcast
// is reachable both from stepBcast and (as the release wave, without a
// fresh entry charge) from the tree barrier.
const (
	phaseTreeBcastRecv = 10
	phaseTreeBcastSend = 11
	phaseTreeReduce    = 20
	phaseTreeGather    = 30
)

// stepBarrier is the barrier. With the paper's linear algorithm every rank
// reports to rank 0, which then releases every rank; a failure anywhere is
// detected here by timeout — the paper's "failure during the checkpoint
// phase is detected in the following barrier". The tree form is a
// zero-byte gather to rank 0 followed by a zero-byte broadcast.
func (c *Comm) stepBarrier(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("barrier"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.mask = 1
				cs.phase = phaseTreeGather
			} else if c.rank == 0 {
				cs.r = 1
				cs.phase = 1
			} else {
				cs.phase = 3
			}
		case 1: // linear rank 0: collect arrivals in rank order
			for cs.r < n {
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, tagBarrierIn)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				msg.Release()
				cs.r++
			}
			cs.r = 1
			cs.phase = 2
		case 2: // linear rank 0: release everyone
			for cs.r < n {
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, tagBarrierOut, 0, nil)
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			return true, nil, nil
		case 3: // linear non-root: report to rank 0
			if !cs.hop.inFlight() {
				c.hopSend(&cs.hop, 0, tagBarrierIn, 0, nil)
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.phase = 4
		case 4: // linear non-root: wait for the release
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, 0, tagBarrierOut)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			msg.Release()
			return true, nil, nil
		case phaseTreeGather: // tree: gather the zero-byte arrival signal to rank 0
			vrank := c.rank
			for cs.mask < n {
				if vrank&cs.mask != 0 {
					// Report to the parent; this rank's gather ends there.
					if !cs.hop.inFlight() {
						c.hopSend(&cs.hop, vrank-cs.mask, tagBarrierIn, 0, nil)
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					break
				}
				if child := vrank | cs.mask; child < n {
					if !cs.hop.inFlight() {
						c.hopRecv(&cs.hop, child, tagBarrierIn)
					}
					hd, park, msg, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					msg.Release()
				}
				cs.mask <<= 1
			}
			// Release wave: a zero-byte tree bcast from rank 0 without a
			// fresh entry charge.
			cs.root = 0
			cs.tag = tagBarrierOut
			cs.size = 0
			cs.data = nil
			cs.mask = 0
			cs.phase = phaseTreeBcastRecv
		case phaseTreeBcastRecv, phaseTreeBcastSend:
			return c.stepTreeBcast(cs)
		default:
			panic(fmt.Sprintf("mpi: barrier state machine in phase %d", cs.phase))
		}
	}
}

// stepBcast broadcasts cs.data (cs.size bytes, on cs.tag) from cs.root;
// the result lands in cs.data. Linear: the root sends to every other rank
// in rank order.
func (c *Comm) stepBcast(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("bcast"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.phase = phaseTreeBcastRecv
			} else if c.rank == cs.root {
				cs.r = 0
				cs.phase = 1
			} else {
				cs.phase = 2
			}
		case 1: // linear root: send to everyone in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, cs.tag, cs.size, cs.data)
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			return true, nil, nil
		case 2: // linear non-root: receive from the root
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, cs.root, cs.tag)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.data = detachData(msg)
			return true, nil, nil
		case phaseTreeBcastRecv, phaseTreeBcastSend:
			return c.stepTreeBcast(cs)
		default:
			panic(fmt.Sprintf("mpi: bcast state machine in phase %d", cs.phase))
		}
	}
}

// stepTreeBcast broadcasts along a binomial tree rooted at cs.root (the
// standard MPICH-style algorithm): phase phaseTreeBcastRecv walks the mask
// to this rank's parent bit and receives (at most one hop), phase
// phaseTreeBcastSend forwards to the children. The result lands in
// cs.data.
func (c *Comm) stepTreeBcast(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	vrank := (c.rank - cs.root + n) % n
	for {
		switch cs.phase {
		case phaseTreeBcastRecv:
			if cs.mask == 0 {
				cs.mask = 1
			}
			for cs.mask < n && vrank&cs.mask == 0 {
				cs.mask <<= 1
			}
			if cs.mask < n {
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, (vrank-cs.mask+cs.root)%n, cs.tag)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.data = detachData(msg)
			}
			cs.mask >>= 1
			cs.phase = phaseTreeBcastSend
		case phaseTreeBcastSend:
			for cs.mask > 0 {
				if vrank+cs.mask < n {
					if !cs.hop.inFlight() {
						c.hopSend(&cs.hop, (vrank+cs.mask+cs.root)%n, cs.tag, cs.size, cs.data)
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
				}
				cs.mask >>= 1
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: tree bcast state machine in phase %d", cs.phase))
		}
	}
}

// stepReduce folds cs.contrib at cs.root with cs.op; the result lands in
// cs.acc (root only, nil elsewhere).
func (c *Comm) stepReduce(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("reduce"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if n == 1 {
				cs.acc = append([]float64(nil), cs.contrib...)
				return true, nil, nil
			}
			if c.env.w.cfg.Collectives == Tree {
				cs.phase = phaseTreeReduce
			} else if c.rank != cs.root {
				cs.phase = 1
			} else {
				cs.acc = append([]float64(nil), cs.contrib...)
				cs.r = 0
				cs.phase = 2
			}
		case 1: // linear non-root: ship the encoded contribution
			if !cs.hop.inFlight() {
				c.hopSendOwned(&cs.hop, cs.root, tagReduce, 8*len(cs.contrib), encodeF64sPool(c.env.ps.dp, cs.contrib))
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			return true, nil, err
		case 2:
			// Linear root: fold contributions in rank order, which keeps the
			// result deterministic even for non-associative floating-point
			// ops. Each hop decodes into the per-process scratch and releases
			// its message — the whole fold reuses one buffer and one float
			// slice.
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, tagReduce)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				vals := c.env.ps.scratchF64(len(cs.contrib))
				if err := decodeF64sInto(vals, msg.Data); err != nil {
					return true, nil, err
				}
				cs.op(cs.acc, vals)
				msg.Release()
				cs.r++
			}
			return true, nil, nil
		case phaseTreeReduce:
			// Tree: fold along a binomial tree rooted at cs.root. The fold
			// order differs from the linear algorithm's, so results for
			// non-associative floating-point operations may differ in the
			// last bits — the usual MPI caveat.
			vrank := (c.rank - cs.root + n) % n
			if cs.mask == 0 {
				cs.mask = 1
				cs.acc = append([]float64(nil), cs.contrib...)
			}
			for cs.mask < n {
				if vrank&cs.mask != 0 {
					if !cs.hop.inFlight() {
						c.hopSendOwned(&cs.hop, (vrank-cs.mask+cs.root)%n, tagReduce, 8*len(cs.acc), encodeF64sPool(c.env.ps.dp, cs.acc))
					}
					hd, park, _, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					cs.acc = nil // only the root holds a result
					return true, nil, err
				}
				if child := vrank | cs.mask; child < n {
					if !cs.hop.inFlight() {
						c.hopRecv(&cs.hop, (child+cs.root)%n, tagReduce)
					}
					hd, park, msg, err := c.hopStep(&cs.hop)
					if !hd {
						return false, park, nil
					}
					if err != nil {
						return true, nil, err
					}
					vals := c.env.ps.scratchF64(len(cs.acc))
					if err := decodeF64sInto(vals, msg.Data); err != nil {
						return true, nil, err
					}
					cs.op(cs.acc, vals)
					msg.Release()
				}
				cs.mask <<= 1
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: reduce state machine in phase %d", cs.phase))
		}
	}
}

// stepAllreduce is a reduce to rank 0 (sub 0) followed by a broadcast of
// the encoded result (sub 1), matching linear-algorithm MPI
// implementations. The result lands in cs.acc on every rank.
func (c *Comm) stepAllreduce(cs *CollectiveState) (done bool, park any, err error) {
	if cs.sub == 0 {
		cs.root = 0
		done, park, err := c.stepReduce(cs)
		if !done {
			return false, park, nil
		}
		if err != nil {
			return true, nil, err
		}
		cs.sub = 1
		cs.phase = 0
		cs.r = 0
		cs.mask = 0
		cs.tag = tagBcast
		cs.size = 8 * len(cs.contrib)
		if c.rank == 0 {
			cs.data = encodeF64sPool(c.env.ps.dp, cs.acc)
		} else {
			cs.data = nil
		}
	}
	done, park, err = c.stepBcast(cs)
	if !done {
		return false, park, nil
	}
	dp := c.env.ps.dp
	buf := cs.data
	cs.data = nil
	if err != nil {
		return true, nil, err
	}
	if c.rank == 0 {
		// The root already holds the reduction, and decode(encode(x)) is
		// bit-identical for float64: skip the round-trip and release the
		// broadcast buffer (bcast copied it per send).
		dp.putBuf(buf)
		return true, nil, nil
	}
	out, err := decodeF64s(buf, len(cs.contrib))
	dp.putBuf(buf)
	cs.acc = out
	return true, nil, err
}

// stepGather collects cs.data at cs.root on cs.tag; the per-rank result
// lands in cs.out (root only).
func (c *Comm) stepGather(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("gather"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if c.rank != cs.root {
				cs.phase = 1
			} else {
				cs.out = make([][]byte, n)
				cs.out[cs.root] = append([]byte(nil), cs.data...)
				cs.r = 0
				cs.phase = 2
			}
		case 1: // non-root: ship this rank's data
			if !cs.hop.inFlight() {
				c.hopSend(&cs.hop, cs.root, cs.tag, len(cs.data), cs.data)
			}
			hd, park, _, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			return true, nil, err
		case 2: // root: collect in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopRecv(&cs.hop, cs.r, cs.tag)
				}
				hd, park, msg, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.out[cs.r] = detachData(msg)
				cs.r++
			}
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: gather state machine in phase %d", cs.phase))
		}
	}
}

// stepScatter distributes cs.parts[i] from cs.root to rank i; this rank's
// part lands in cs.data.
func (c *Comm) stepScatter(cs *CollectiveState) (done bool, park any, err error) {
	n := c.Size()
	for {
		switch cs.phase {
		case 0:
			if err := c.checkRevoked("scatter"); err != nil {
				return true, nil, err
			}
			c.env.chargeCall()
			if c.rank == cs.root {
				if len(cs.parts) != n {
					return true, nil, fmt.Errorf("mpi: scatter needs %d parts, got %d", n, len(cs.parts))
				}
				cs.r = 0
				cs.phase = 1
			} else {
				cs.phase = 2
			}
		case 1: // root: send each part in rank order
			for cs.r < n {
				if cs.r == cs.root {
					cs.r++
					continue
				}
				if !cs.hop.inFlight() {
					c.hopSend(&cs.hop, cs.r, tagScatter, len(cs.parts[cs.r]), cs.parts[cs.r])
				}
				hd, park, _, err := c.hopStep(&cs.hop)
				if !hd {
					return false, park, nil
				}
				if err != nil {
					return true, nil, err
				}
				cs.r++
			}
			cs.data = append([]byte(nil), cs.parts[cs.root]...)
			return true, nil, nil
		case 2: // non-root: receive this rank's part
			if !cs.hop.inFlight() {
				c.hopRecv(&cs.hop, cs.root, tagScatter)
			}
			hd, park, msg, err := c.hopStep(&cs.hop)
			if !hd {
				return false, park, nil
			}
			if err != nil {
				return true, nil, err
			}
			cs.data = detachData(msg)
			return true, nil, nil
		default:
			panic(fmt.Sprintf("mpi: scatter state machine in phase %d", cs.phase))
		}
	}
}

// stepAllgather is a gather to rank 0 (sub 0) followed by a broadcast of
// the framed result (sub 1). The per-rank result lands in cs.out on every
// rank.
func (c *Comm) stepAllgather(cs *CollectiveState) (done bool, park any, err error) {
	dp := c.env.ps.dp
	if cs.sub == 0 {
		cs.root = 0
		cs.tag = tagAllgather
		done, park, err := c.stepGather(cs)
		if !done {
			return false, park, nil
		}
		if err != nil {
			return true, nil, err
		}
		cs.sub = 1
		cs.phase = 0
		cs.r = 0
		cs.mask = 0
		if c.rank == 0 {
			framed := framePool(dp, cs.out)
			// The gathered per-rank buffers are folded into the frame now;
			// release the pooled ones (rank 0's own part is a fresh copy).
			for r, p := range cs.out {
				if r != c.rank {
					dp.putBuf(p)
				}
			}
			cs.data = framed
			cs.size = len(framed)
		} else {
			cs.data = nil
			cs.size = 0
		}
		cs.out = nil
	}
	done, park, err = c.stepBcast(cs)
	if !done {
		return false, park, nil
	}
	framed := cs.data
	cs.data = nil
	if err != nil {
		return true, nil, err
	}
	out, err := unframe(framed)
	dp.putBuf(framed)
	cs.out = out
	return true, nil, err
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
			cs.reqs = append(cs.reqs, c.isendTag(r, tagAlltoall, len(cs.parts[r]), cs.parts[r]))
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
			out[r] = detachData(cs.recvs[i].msg)
			cs.recvs[i].msg = nil
			i++
		}
		// None of the requests escaped; recycle them all and drop the
		// references so the idle state does not pin the recycled requests.
		dp := c.env.ps.dp
		for i, req := range cs.reqs {
			dp.putReq(req)
			cs.reqs[i] = nil
		}
		cs.reqs = cs.reqs[:0]
		for i := range cs.recvs {
			cs.recvs[i] = nil
		}
		cs.recvs = cs.recvs[:0]
		cs.out = out
		return true, nil, nil
	default:
		panic(fmt.Sprintf("mpi: alltoall state machine in phase %d", cs.phase))
	}
}
