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
// Horizon: partition i's window is bounded by the earliest event that can
// still reach it. Within a round nothing crosses partitions (cross events
// wait in crossOut for the barrier), so the question is what later rounds
// can deliver. Every other partition j holds nothing below next[j] ≥
// otherMin(i), and until it hears from i it only ever processes its own
// items and what third partitions send it, all at or after otherMin(i);
// whatever it emits to i therefore arrives at or after otherMin(i) +
// lookahead. The rest of what can reach i is a reply (direct or through
// further hops) to an event i itself emitted across partitions this round;
// the earliest of those, E(i), is answered at or after E(i) + lookahead.
// Partition i may therefore process every item strictly below
//
//	horizon(i) = min(otherMin(i), E(i)) + lookahead
//
// E(i) is not known when the window opens: it starts at vclock.Never,
// routeToPartition (the only cross-emission site) lowers p.horizon as i
// emits, and processWindow re-reads the horizon before every item. A
// partition alone with work that sends nothing across (the linear barrier
// at rank 0, with every other rank parked) thus finishes its whole phase in
// one round. The bound is never below the global-minimum rule it replaces,
// min(otherMin, globalMin+lookahead) + lookahead, because i emits at a
// clock at or after globalMin, so E(i) ≥ globalMin + lookahead.
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
		otherMin := g.min1
		if g.arg1 == p.id {
			otherMin = g.min2
		}
		// horizon = min(otherMin, E) + lookahead; see the derivation at the
		// top of this file. E enters as routeToPartition lowers p.horizon.
		horizon := vclock.Never
		if otherMin != vclock.Never {
			horizon = otherMin.Add(e.cfg.Lookahead)
		}
		p.rounds++
		p.processWindow(horizon)
		p.widthSum += p.windowWidth(g.min1)
		p.publishCross()
		e.round.arrive(p.id, vclock.Never) // all cross buffers published
		p.collectCross()
	}
}

// windowWidth is the width of the window just processed, for
// WindowWidthSum: from the global minimum to its final horizon, or, when
// the bound stayed open, to one lookahead past the last item processed (the
// tightest bound that would have processed the same items), so the sum
// stays finite.
func (p *partition) windowWidth(globalMin vclock.Time) vclock.Duration {
	end := p.horizon
	if end == vclock.Never {
		end = vclock.Max(p.watermark, globalMin).Add(p.eng.cfg.Lookahead)
	}
	return end.Sub(globalMin)
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
// round into the event queue, then truncates them for their owners to
// reuse (an event references nothing, so the slots need no clearing). The
// queue orders merged events by the deterministic key, so drain order does
// not matter.
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
		}
		p.inbox[q] = evs[:0]
	}
}
