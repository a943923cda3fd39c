package mpitest

import (
	"fmt"

	"xsim"
	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// opKind enumerates the steps of a rank's script.
type opKind int

const (
	opElapse     opKind = iota // advance the clock by d
	opSleep                    // interruptible sleep of d
	opIrecv                    // post a receive into slot
	opIsend                    // post a send into slot
	opWait                     // wait for slot, fold what completed
	opSend                     // blocking send
	opIprobe                   // nonblocking probe, fold hit or miss
	opProbe                    // blocking probe, fold and remember the envelope
	opRecvProbed               // receive the envelope the last opProbe saw
	opColl                     // one collective
	opCancel                   // a receive nobody matches: post, probe (miss), cancel
	opEndPhase                 // fold the clock, publish the digest, barrier
)

// op is one step of a rank's script. Everything the run does not decide
// is decided here: wildcards, payload bytes, the wait order, collective
// inputs, and which completions are folded into the digest.
type op struct {
	kind  opKind
	phase int // index into Workload.phases, for error reports
	d     vclock.Duration
	// peer is the source of a receive or probe (possibly AnySource), the
	// destination of a send, the root of a collective.
	peer, tag int
	// data is the payload of a send (nil: a size-only send of size bytes)
	// or the byte input of a collective.
	data []byte
	size int
	// slot is the request slot opIrecv/opIsend post into and opWait waits
	// on; slots number a phase's requests from 0.
	slot int
	// fold reports whether this rank observes the op's result: the waited
	// slot holds a receive, or the collective hands this rank a value.
	fold bool

	coll   collKind
	reduce mpi.ReduceOp
	floats []float64 // reduction contribution
	parts  [][]byte  // scatter/alltoall input, one per rank
}

// script compiles the workload's phases into rank's flat op list. Both
// execution modes walk this one list, so they cannot disagree about what
// the workload is; closure_outcomes.golden guards the list itself.
func (w *Workload) script(rank int) []op {
	var ops []op
	for pi, ph := range w.phases {
		emit := func(o op) {
			o.phase = pi
			ops = append(ops, o)
		}
		// send emits m's sender side: the pre-send compute, then the send
		// itself with payload bytes drawn from seed.
		send := func(kind opKind, m p2pMsg, seed, slot int) {
			if m.pre > 0 {
				emit(op{kind: opElapse, d: m.pre})
			}
			o := op{kind: kind, peer: m.dst, tag: m.tag, size: m.size, slot: slot}
			if m.payload {
				o.data = fill(seed, m.size)
			}
			emit(o)
		}
		switch ph.kind {
		case phaseP2P, phaseStorm:
			// Post all inbound receives, then issue all outbound sends, then
			// wait everything in the rank's seeded permutation order.
			n := 0
			for _, m := range ph.msgs {
				if m.dst != rank {
					continue
				}
				src, tag := m.src, m.tag
				if m.wildSrc {
					src = xsim.AnySource
				}
				if m.anyTag {
					tag = xsim.AnyTag
				}
				emit(op{kind: opIrecv, peer: src, tag: tag, slot: n})
				n++
			}
			recvs := n
			for mi, m := range ph.msgs {
				if m.src == rank {
					send(opIsend, m, mi*31+m.tag, n)
					n++
				}
			}
			for _, slot := range permFor(w.Seed, pi, rank, n) {
				emit(op{kind: opWait, slot: slot, fold: slot < recvs})
			}
		case phaseColl:
			for ci, c := range ph.colls {
				emit(w.collInput(rank, ci, c))
			}
		case phaseCompute:
			for _, st := range ph.steps[rank] {
				kind := opElapse
				if st.sleep {
					kind = opSleep
				}
				emit(op{kind: kind, d: st.d})
			}
		case phaseProbe:
			// Receivers probe before receiving each scripted message;
			// senders send them blockingly.
			for mi, m := range ph.msgs {
				switch rank {
				case m.src:
					send(opSend, m, mi*29+m.tag, 0)
				case m.dst:
					emit(op{kind: opIprobe, peer: m.src, tag: xsim.AnyTag})
					emit(op{kind: opProbe, peer: m.src, tag: xsim.AnyTag})
					emit(op{kind: opRecvProbed})
				}
			}
		case phaseCancel:
			for i := 0; i < ph.cancels; i++ {
				// Nobody sends these tags.
				emit(op{kind: opCancel, peer: xsim.AnySource, tag: tagBase(pi) + 500_000 + i*w.Ranks + rank})
			}
		}
		// The barrier quiesces the phase: every rank has matched all of
		// its receives before anyone starts the next phase, so wildcard
		// receives can never swallow a later phase's traffic.
		emit(op{kind: opEndPhase})
	}
	return ops
}

// collInput builds rank's op for collective ci of its phase, inputs
// included.
func (w *Workload) collInput(rank, ci int, c collOp) op {
	o := op{kind: opColl, coll: c.kind, peer: c.root, fold: c.kind != collBarrier,
		reduce: []mpi.ReduceOp{xsim.OpSum, xsim.OpMax, xsim.OpMin}[c.op]}
	switch c.kind {
	case collBcast:
		if rank == c.root {
			o.data = fill(ci*17+c.root, c.size)
		}
	case collReduce:
		o.floats = fillF64(rank*257+ci, 1+c.size%8)
		o.fold = rank == c.root
	case collAllreduce:
		o.floats = fillF64(rank*263+ci, 1+c.size%8)
	case collGather:
		o.data = fill(rank*269+ci, c.size)
	case collScatter:
		if rank == c.root {
			o.parts = make([][]byte, w.Ranks)
			for i := range o.parts {
				o.parts[i] = fill(i*271+ci, c.size)
			}
		}
	case collAllgather:
		o.data = fill(rank*277+ci, c.size)
	case collAlltoall:
		o.parts = make([][]byte, w.Ranks)
		for i := range o.parts {
			o.parts[i] = fill(rank*281+i*283+ci, c.size%128)
		}
	}
	return o
}

// rankRun is one rank's walk through its script, by either interpreter.
// The rank updates digests[rank] after every phase (and on bail), so a
// rank killed mid-run still contributes the digest of everything it
// observed before dying.
type rankRun struct {
	w       *Workload
	rank    int
	ops     []op
	d       *digest
	digests []uint64
	errs    []string

	reqs         []*xsim.Request // the current phase's request slots
	pmSrc, pmTag int             // the envelope the last opProbe saw

	// Program mode only: pc is the op in progress, armed whether its step
	// state has been begun.
	pc    int
	armed bool
	ws    xsim.WaitState
	ss    xsim.SendState
	rs    xsim.RecvState
	ps    xsim.ProbeState
	sl    xsim.SleepState
	cs    xsim.CollectiveState
}

// nonblocking executes an op that cannot block: the same calls in both
// modes.
func (r *rankRun) nonblocking(e *xsim.Env, o *op) error {
	c := e.World()
	switch o.kind {
	case opElapse:
		e.Elapse(o.d)
	case opIrecv, opIsend:
		var req *xsim.Request
		var err error
		switch {
		case o.kind == opIrecv:
			req, err = c.Irecv(o.peer, o.tag)
		case o.data != nil:
			req, err = c.Isend(o.peer, o.tag, o.data)
		default:
			req, err = c.IsendN(o.peer, o.tag, o.size)
		}
		if err != nil {
			return err
		}
		r.reqs = append(r.reqs[:o.slot], req)
	case opIprobe:
		pm, ok, err := c.Iprobe(o.peer, o.tag)
		if err != nil {
			return err
		}
		r.d.bool(ok)
		if ok {
			r.foldEnvelope(pm)
		}
	case opCancel:
		req, err := c.Irecv(o.peer, o.tag)
		if err != nil {
			return err
		}
		_, ok, err := c.Iprobe(o.peer, o.tag)
		if err != nil {
			return err
		}
		r.d.bool(ok)
		r.d.bool(c.Cancel(req))
		if req.Err() != nil {
			r.d.str(req.Err().Error())
		}
	}
	return nil
}

func (r *rankRun) foldEnvelope(pm *xsim.Message) {
	r.d.num(pm.Src)
	r.d.num(pm.Tag)
	r.d.num(pm.Size)
}

// foldProbe folds a completed opProbe and keeps the envelope for the
// opRecvProbed that follows.
func (r *rankRun) foldProbe(pm *xsim.Message, err error) error {
	if err != nil {
		return err
	}
	r.foldEnvelope(pm)
	r.pmSrc, r.pmTag = pm.Src, pm.Tag
	return nil
}

// foldMsg folds a received message and hands its buffer back: the
// differential then also cross-checks that pooled-buffer reuse cannot leak
// one receive's bytes into another.
func (r *rankRun) foldMsg(msg *xsim.Message, err error) error {
	if err != nil {
		return err
	}
	r.d.msg(msg)
	msg.Release()
	return nil
}

// foldWait folds a completed opWait: the slot, then the message when the
// slot held a receive.
func (r *rankRun) foldWait(o *op, msg *xsim.Message, err error) error {
	r.d.num(o.slot)
	if err != nil || !o.fold {
		return err
	}
	return r.foldMsg(msg, nil)
}

// foldColl folds whichever of a completed collective's results its kind
// produces.
func (r *rankRun) foldColl(o *op, data []byte, acc []float64, parts [][]byte) {
	if !o.fold {
		return
	}
	switch o.coll {
	case collBcast, collScatter:
		r.d.bytes(data)
	case collReduce, collAllreduce:
		r.d.floats(acc)
	case collGather, collAllgather, collAlltoall:
		for _, p := range parts {
			r.d.bytes(p)
		}
	}
}

// endPhase folds the phase's end clock and publishes the digest so far.
func (r *rankRun) endPhase(e *xsim.Env) {
	r.d.time(e.Now())
	r.digests[r.rank] = r.d.sum()
}

// finish ends the rank's program. After an error it bails without
// Finalize: a simulated process failure, which releases peers blocked on
// this rank via timeout detection.
func (r *rankRun) finish(e *xsim.Env, o *op, err error) {
	r.digests[r.rank] = r.d.sum()
	switch {
	case err == nil:
		e.Finalize()
	case o.kind == opEndPhase:
		r.errs[r.rank] = fmt.Sprintf("phase %d barrier: %v", o.phase, err)
	default:
		r.errs[r.rank] = fmt.Sprintf("phase %d (%s): %v", o.phase, r.w.phases[o.phase].kind, err)
	}
}

// runClosure walks the script through the public blocking calls. It is
// the only randomised driver of that surface (every call below parks its
// goroutine in Env.Block), wildcard matching, failure detection and error
// bail-out included.
func (r *rankRun) runClosure(e *xsim.Env) {
	c := e.World()
	c.SetErrorHandler(xsim.ErrorsReturn)
	for i := range r.ops {
		o := &r.ops[i]
		var err error
		switch o.kind {
		case opSleep:
			e.Sleep(o.d)
		case opWait:
			msg, werr := c.Wait(r.reqs[o.slot])
			err = r.foldWait(o, msg, werr)
		case opSend:
			if o.data != nil {
				err = c.Send(o.peer, o.tag, o.data)
			} else {
				err = c.SendN(o.peer, o.tag, o.size)
			}
		case opProbe:
			err = r.foldProbe(c.Probe(o.peer, o.tag))
		case opRecvProbed:
			err = r.foldMsg(c.Recv(r.pmSrc, r.pmTag))
		case opColl:
			var data []byte
			var acc []float64
			var parts [][]byte
			switch o.coll {
			case collBarrier:
				err = c.Barrier()
			case collBcast:
				data, err = c.Bcast(o.peer, o.data)
			case collReduce:
				acc, err = c.Reduce(o.peer, o.floats, o.reduce)
			case collAllreduce:
				acc, err = c.Allreduce(o.floats, o.reduce)
			case collGather:
				parts, err = c.Gather(o.peer, o.data)
			case collScatter:
				data, err = c.Scatter(o.peer, o.parts)
			case collAllgather:
				parts, err = c.Allgather(o.data)
			case collAlltoall:
				parts, err = c.Alltoall(o.parts)
			}
			if err == nil {
				r.foldColl(o, data, acc, parts)
			}
		case opEndPhase:
			r.endPhase(e)
			err = c.Barrier()
		default:
			err = r.nonblocking(e, o)
		}
		if err != nil {
			r.finish(e, o, err)
			return
		}
	}
	r.finish(e, nil, nil)
}

// Step walks the script as a resumable state machine over the step-based
// blocking surface (WaitStep, SendStep, RecvStep, ProbeStep, SleepStep,
// CollectiveStep), until an op parks or the script ends.
func (r *rankRun) Step(e *xsim.Env, wake any) (any, bool) {
	c := e.World()
	c.SetErrorHandler(xsim.ErrorsReturn) // on every resume: a Prog has no hook of its own for the first
	for ; r.pc < len(r.ops); r.pc++ {
		o := &r.ops[r.pc]
		done, park, err := true, any(nil), error(nil)
		var msg *xsim.Message
		switch o.kind {
		case opSleep:
			done, park = e.SleepStep(&r.sl, o.d)
		case opWait:
			if !r.armed {
				r.ws.Begin(r.reqs[o.slot : o.slot+1]...)
			}
			if done, park, msg, err = c.WaitStep(&r.ws); done {
				err = r.foldWait(o, msg, err)
			}
		case opSend:
			if o.data != nil {
				done, park, err = c.SendStep(&r.ss, o.peer, o.tag, o.data)
			} else {
				done, park, err = c.SendNStep(&r.ss, o.peer, o.tag, o.size)
			}
		case opProbe:
			if done, park, msg, err = c.ProbeStep(&r.ps, o.peer, o.tag); done {
				err = r.foldProbe(msg, err)
			}
		case opRecvProbed:
			if done, park, msg, err = c.RecvStep(&r.rs, r.pmSrc, r.pmTag); done {
				err = r.foldMsg(msg, err)
			}
		case opColl:
			if !r.armed {
				switch o.coll {
				case collBarrier:
					r.cs.BeginBarrier()
				case collBcast:
					r.cs.BeginBcast(o.peer, o.data)
				case collReduce:
					r.cs.BeginReduce(o.peer, o.floats, o.reduce)
				case collAllreduce:
					r.cs.BeginAllreduce(o.floats, o.reduce)
				case collGather:
					r.cs.BeginGather(o.peer, o.data)
				case collScatter:
					r.cs.BeginScatter(o.peer, o.parts)
				case collAllgather:
					r.cs.BeginAllgather(o.data)
				case collAlltoall:
					r.cs.BeginAlltoall(o.parts)
				}
			}
			if done, park, err = c.CollectiveStep(&r.cs); done && err == nil {
				r.foldColl(o, r.cs.Bytes(), r.cs.Floats(), r.cs.Parts())
			}
		case opEndPhase:
			if !r.armed {
				r.endPhase(e)
				r.cs.BeginBarrier()
			}
			done, park, err = c.CollectiveStep(&r.cs)
		default:
			err = r.nonblocking(e, o)
		}
		r.armed = !done
		if !done {
			return park, false
		}
		if err != nil {
			r.finish(e, o, err)
			return nil, true
		}
	}
	r.finish(e, nil, nil)
	return nil, true
}
