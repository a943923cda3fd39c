package core

import (
	"sync"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// This file implements the parallel (Workers > 1) execution protocol: a
// coordinator-free round structure in which every partition worker derives
// its own safe window from the same fold of all partitions' next-item
// times. A round passes twice through one barrier (roundSync):
//
//	deposit own localNext → (barrier: the last arriver folds all deposits)
//	→ derive horizon from the folded triple → processWindow → swap crossOut
//	buffers into destination inboxes → (barrier again, fold ignored: all
//	cross buffers published) → drain own inboxes into the event queue
//
// The fold is a flat O(P) scan by whichever worker arrives last. Every
// measured use of the protocol runs P ≤ 5 partitions on 2 cores (a worker
// count above GOMAXPROCS buys nothing), where P comparisons are noise
// against the futex wake that ends the wait.
//
// Horizon extension: partition i's window is bounded by the earliest event
// that can still reach it. A lower bound on any future item at partition j
// is L(j) = min(next[j], globalMin+lookahead): j's own queue holds nothing
// below next[j], and anything j can still receive was (or will be) emitted
// at a clock at or after the global minimum, hence arrives at or after
// globalMin+lookahead. (The bound is a fixpoint: multi-hop chains pay the
// lookahead once per hop, so two hops already exceed it.) Partition i may
// therefore process every item strictly below
//
//	horizon(i) = min over j≠i of L(j) + lookahead
//	           = min(otherMin(i), globalMin+lookahead) + lookahead
//
// The fold computes the triple (min1, argmin1, min2) — the global minimum,
// which partition holds it, and the second-smallest value — from which
// each worker derives otherMin in O(1): min1 if argmin1 is another
// partition, else min2. On ties min2 == min1, so the derived value equals
// the exact min-over-others either way.

// minTriple is the fold of one round's deposits: the smallest, the
// partition that deposited it, and the second-smallest.
type minTriple struct {
	min1 vclock.Time
	arg1 int
	min2 vclock.Time
}

// roundSync is the round protocol's one synchronisation primitive: a
// reusable barrier at which each worker deposits a time and from which all
// leave with the fold of the n deposits. The cond-based wait never spins,
// which matters on single-CPU hosts, and a generation counter keeps each
// pass allocation-free.
type roundSync struct {
	mu      sync.Mutex
	cond    sync.Cond
	vals    []vclock.Time // one deposit per worker, written under mu
	arrived int
	gen     uint64
	out     minTriple
}

func (s *roundSync) init(n int) {
	s.vals = make([]vclock.Time, n)
	s.cond.L = &s.mu
}

// arrive deposits t for worker id, blocks until all n workers have
// arrived, and returns the fold of their deposits. A waiter reads out
// before it can arrive again, and the next fold needs every worker's
// arrival, so out is never overwritten under a reader.
func (s *roundSync) arrive(id int, t vclock.Time) minTriple {
	s.mu.Lock()
	s.vals[id] = t
	s.arrived++
	if s.arrived == len(s.vals) {
		out := minTriple{min1: vclock.Never, min2: vclock.Never}
		for i, v := range s.vals {
			if v < out.min1 {
				out.min2 = out.min1
				out.min1, out.arg1 = v, i
			} else if v < out.min2 {
				out.min2 = v
			}
		}
		s.arrived = 0
		s.out = out
		s.gen++
		// Unlock, then wake: a worker woken while the mutex is still held
		// spins on the lock it is about to be handed (measured 2–4 % cpu_s
		// on halo-64k-prog-w2).
		s.mu.Unlock()
		s.cond.Broadcast()
		return out
	}
	gen := s.gen
	for gen == s.gen {
		s.cond.Wait()
	}
	out := s.out
	s.mu.Unlock()
	return out
}

// runParallel drives the partitions through conservative safe windows
// until every partition is idle (termination or deadlock). All workers
// leave each fold with the same triple, so they observe termination in the
// same round and the barrier population stays consistent.
func (e *Engine) runParallel() {
	e.round.init(len(e.parts))
	var wg sync.WaitGroup
	wg.Add(len(e.parts))
	for _, p := range e.parts {
		go func(p *partition) {
			defer wg.Done()
			p.workerLoop()
		}(p)
	}
	wg.Wait()
}

// workerLoop is one partition's side of the round protocol.
func (p *partition) workerLoop() {
	e := p.eng
	for {
		// Cancellation consensus: partition 0 samples the stop flag before
		// its deposit, and every worker reads the same decision after the
		// barrier (each leaves through the barrier's mutex after partition
		// 0 entered through it, which orders the plain write), so all
		// workers leave the round loop in the same round.
		if p.id == 0 {
			e.stopRound = e.stop.Load()
		}
		g := e.round.arrive(p.id, p.localNext())
		if e.stopRound {
			return
		}
		if g.min1 == vclock.Never {
			return // global termination: everyone observes the same triple
		}
		globalMin := g.min1
		otherMin := g.min1
		if g.arg1 == p.id {
			otherMin = g.min2
		}
		// horizon = min(otherMin, globalMin+lookahead) + lookahead; see the
		// derivation at the top of this file.
		bound := globalMin.Add(e.cfg.Lookahead)
		if otherMin < bound {
			bound = otherMin
		}
		horizon := bound.Add(e.cfg.Lookahead)
		p.rounds++
		p.widthSum += horizon.Sub(globalMin)
		p.processWindow(horizon)
		p.publishCross()
		e.round.arrive(p.id, vclock.Never) // all cross buffers published
		p.collectCross()
	}
}

// publishCross swaps this partition's outgoing buffers into the
// destination partitions' inbox slots, taking back the buffers it
// published last round (already drained and truncated by the
// destination). The swap transfers ownership without copying; the barrier
// that follows makes it visible.
func (p *partition) publishCross() {
	for q, evs := range p.crossOut {
		if q == p.id {
			continue
		}
		dst := p.eng.parts[q]
		p.crossOut[q], dst.inbox[p.id] = dst.inbox[p.id], evs
	}
}

// collectCross drains the inbox buffers other partitions published this
// round into the event queue, then truncates them (zeroed, so no Payload
// stays referenced) for their owners to reuse. The heap orders merged
// events by the deterministic key, so drain order does not matter.
func (p *partition) collectCross() {
	for q, evs := range p.inbox {
		if len(evs) == 0 {
			continue
		}
		for i := range evs {
			ev := &evs[i]
			if p.validate && ev.Time < p.watermark {
				// Horizon safety: the window protocol promises that no
				// cross-partition event can arrive in a partition's past.
				check.Failf("window-horizon", ev.Target, ev.Time, eventDesc(ev),
					"cross-partition event from partition %d arrived in partition %d's past (watermark %v)",
					q, p.id, p.watermark)
			}
			p.eventQ.push(ev)
			*ev = Event{}
		}
		p.inbox[q] = evs[:0]
	}
}
