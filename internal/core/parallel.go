package core

import (
	"sync"
	"sync/atomic"

	"xsim/internal/check"
	"xsim/internal/vclock"
)

// This file implements the parallel (Workers > 1) execution protocol: a
// coordinator-free round structure in which every partition worker derives
// its own safe window from a combining-tree reduction of next-item times.
//
// Each round has two synchronisation points:
//
//	contribute own localNext to the reduction tree → (tree release: all
//	contributions combined) → derive horizon from the reduced triple →
//	processWindow → swap crossOut buffers into destination inboxes →
//	barrier B → drain own inboxes into the event queue
//
// Compared to the previous flat design — every worker scanning a shared
// P-slot next-time array after a counter barrier — the reduction is
// tree-structured: each worker touches O(log P) combining nodes in the
// worst case (its leaf-to-root path, and only when it is the last arriver
// at every node), and derives its horizon from a constant-size result
// instead of re-scanning all P slots. Per-window coordination cost is
// therefore O(log P) per worker rather than O(P), which keeps window
// setup off the critical path once partitions number in the hundreds.
//
// Horizon extension (unchanged from the flat design): partition i's window
// is bounded by the earliest event that can still reach it. A lower bound
// on any future item at partition j is L(j) = min(next[j],
// globalMin+lookahead): j's own queue holds nothing below next[j], and
// anything j can still receive was (or will be) emitted at a clock at or
// after the global minimum, hence arrives at or after globalMin+lookahead.
// (The bound is a fixpoint: multi-hop chains pay the lookahead once per
// hop, so two hops already exceed it.) Partition i may therefore process
// every item strictly below
//
//	horizon(i) = min over j≠i of L(j) + lookahead
//	           = min(otherMin(i), globalMin+lookahead) + lookahead
//
// The reduction computes the triple (min1, argmin1, min2) — the global
// minimum, which partition holds it, and the second-smallest value — from
// which each worker derives otherMin in O(1): min1 if argmin1 is another
// partition, else min2. On ties min2 == min1, so the derived value equals
// the exact min-over-others either way.

// minTriple is the reduction value: the smallest contribution, the
// partition that contributed it, and the second-smallest contribution.
type minTriple struct {
	min1 vclock.Time
	arg1 int
	min2 vclock.Time
}

// mergeTriple combines two partial reductions. Ties keep a's argmin; the
// derived otherMin is tie-insensitive because min2 == min1 on a tie.
func mergeTriple(a, b minTriple) minTriple {
	if b.min1 < a.min1 {
		a, b = b, a
	}
	m2 := a.min2
	if b.min1 < m2 {
		m2 = b.min1
	}
	return minTriple{min1: a.min1, arg1: a.arg1, min2: m2}
}

// reduceNode is one combining node: up to two children deposit triples in
// slot and the last arriver merges them and climbs. arrived is the only
// cross-worker synchronisation below the root; its seq-cst increments
// order the plain slot writes for the combiner.
type reduceNode struct {
	slot    [2]minTriple
	parent  *reduceNode
	side    int // this node's slot index in parent
	expect  int32
	arrived atomic.Int32
	// Pad so adjacent nodes in the backing array don't false-share.
	_ [48]byte
}

// reduceTree is the static combining tree for one engine run: leaves for
// every partition, halving per level up to a single root.
type reduceTree struct {
	nodes []reduceNode
	start []*reduceNode // per-worker leaf node
	side  []int         // per-worker slot index in its leaf
}

func buildReduceTree(n int) *reduceTree {
	t := &reduceTree{start: make([]*reduceNode, n), side: make([]int, n)}
	total := 0
	for w := n; w > 1; w = (w + 1) / 2 {
		total += (w + 1) / 2
	}
	if total == 0 {
		total = 1 // degenerate single-worker tree: one root node
	}
	t.nodes = make([]reduceNode, total)
	if n == 1 {
		t.nodes[0].expect = 1
		t.start[0] = &t.nodes[0]
		return t
	}
	base := 0
	var prev []*reduceNode
	for w := n; w > 1; {
		cnt := (w + 1) / 2
		level := make([]*reduceNode, cnt)
		for j := 0; j < cnt; j++ {
			nd := &t.nodes[base+j]
			nd.expect = 2
			if j == cnt-1 && w%2 == 1 {
				nd.expect = 1
			}
			level[j] = nd
		}
		if prev == nil {
			for i := 0; i < n; i++ {
				t.start[i] = level[i/2]
				t.side[i] = i % 2
			}
		} else {
			for j, child := range prev {
				child.parent = level[j/2]
				child.side = j % 2
			}
		}
		base += cnt
		prev = level
		w = cnt
	}
	return t
}

// releaseGate parks non-combining workers until the root combine of the
// current round publishes the reduced triple. A generation counter (same
// scheme as barrier) makes it reusable and allocation-free; the cond-based
// wait never spins, which matters on single-CPU hosts.
type releaseGate struct {
	mu   sync.Mutex
	cond sync.Cond
	gen  uint64
}

func (g *releaseGate) init() { g.cond.L = &g.mu }

func (g *releaseGate) generation() uint64 {
	g.mu.Lock()
	gen := g.gen
	g.mu.Unlock()
	return gen
}

func (g *releaseGate) wait(gen uint64) {
	g.mu.Lock()
	for g.gen == gen {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

func (g *releaseGate) release() {
	g.mu.Lock()
	g.gen++
	g.cond.Broadcast()
	g.mu.Unlock()
}

// reduce contributes one worker's localNext to the round's tree reduction
// and returns the combined triple. The last arriver at each node merges
// and climbs; everyone else parks on the release gate. The generation is
// sampled before the contribution so a release that races ahead of the
// wait is never missed.
//
// Memory ordering: a worker's plain slot write precedes its seq-cst
// arrived.Add, which the combiner observes before reading the slots; the
// root combine transitively requires every node's last arrival, each of
// which reset that node's counter first, so all resets and reads
// happen-before release — the next round's writes cannot race them.
func (e *Engine) reduce(id int, own vclock.Time) minTriple {
	gen := e.winGate.generation()
	t := minTriple{min1: own, arg1: id, min2: vclock.Never}
	n := e.tree.start[id]
	side := e.tree.side[id]
	for {
		n.slot[side] = t
		if n.arrived.Add(1) < n.expect {
			e.winGate.wait(gen)
			return e.reduced
		}
		n.arrived.Store(0)
		if n.expect == 2 {
			t = mergeTriple(n.slot[0], n.slot[1])
		}
		if n.parent == nil {
			e.reduced = t
			e.winGate.release()
			return t
		}
		side = n.side
		n = n.parent
	}
}

// barrier is a reusable counter barrier. Broadcast wakeups through a
// sync.Cond keep each round allocation-free.
type barrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	gen   uint64
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond.L = &b.mu
}

// wait blocks until all n workers have arrived.
func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// runParallel drives the partitions through conservative safe windows
// until every partition is idle (termination or deadlock). All workers
// receive the same reduced triple each round, so they observe termination
// in the same round and the tree/barrier populations stay consistent.
func (e *Engine) runParallel() {
	e.tree = buildReduceTree(len(e.parts))
	e.winGate.init()
	e.bar.init(len(e.parts))
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
		// its tree contribution, and every worker reads the same decision
		// after the reduction releases (the root combine transitively
		// requires partition 0's seq-cst arrival, ordering the plain
		// write), so all workers leave the round loop in the same round.
		if p.id == 0 {
			e.stopRound = e.stop.Load()
		}
		g := e.reduce(p.id, p.localNext())
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
		e.bar.wait() // barrier B: all cross buffers published
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
