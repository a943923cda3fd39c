package core

import (
	"fmt"
	"sync"

	"xsim/internal/vclock"
)

// Kind identifies the handler that processes an event. Kinds below
// reservedKinds are reserved by the engine; higher layers (the simulated MPI
// layer) register their own kinds.
type Kind int

// Engine-internal event kinds.
const (
	// kindFailure activates a scheduled process failure for a blocked VP.
	kindFailure Kind = iota
	// kindTimer wakes a VP parked in Ctx.Sleep.
	kindTimer
	// reservedKinds is the first kind available to higher layers.
	reservedKinds
)

// FirstUserKind is the first event kind available to higher layers;
// register handlers for FirstUserKind+i.
const FirstUserKind = reservedKinds

// EngineSrc is the Src value of events emitted by the engine itself or
// scheduled before the simulation starts (e.g. failure injections).
const EngineSrc = -1

// BroadcastTarget addresses an event to a partition as a whole rather than
// to a single VP; the handler may then touch every VP local to that
// partition. Use Ctx.EmitBroadcast to deliver one copy per partition.
const BroadcastTarget = -1

// Event is a timestamped occurrence delivered to the partition owning its
// target VP. Events are processed in deterministic global virtual-time
// order; the ordering key is (Time, Src, Seq), which is unique because each
// source numbers its events sequentially.
//
// Events are values owned by the event queue: Emit copies its argument
// into the queue's array, and the dispatcher copies the earliest entry out
// again before its handler runs. There is no per-event object, so nothing
// is allocated or recycled per event. The *Event a handler receives is
// valid for the duration of that call only; retaining the Payload value is
// safe.
type Event struct {
	// Time is the virtual time at which the event takes effect.
	Time vclock.Time
	// Src is the rank of the VP that emitted the event, or EngineSrc.
	Src int
	// Seq is the per-source sequence number, assigned by the engine.
	Seq uint64
	// Kind selects the registered handler.
	Kind Kind
	// Target is the rank of the VP the event concerns, or BroadcastTarget
	// for partition-level events.
	Target int
	// Payload carries what cannot ride in Words: a pointer to an object
	// the emitter hands over to the handler (for the MPI layer, only the
	// pooled box of a message's payload bytes). Storing a non-pointer
	// value here allocates per event; scalars belong in Words.
	Payload any
	// Words carries handler-specific scalars by value, so that whatever an
	// event has to say (the MPI layer's message envelope and every control
	// message, the engine's own timer generation) travels inside it and
	// needs no Payload object. Their meaning belongs to the event's Kind.
	Words [EventWords]uint64
}

// EventWords is the number of scalar payload words an Event carries.
const EventWords = 5

// eventDesc renders an event for invariant-violation dumps. Only called
// on failure paths — never on the steady-state event path.
func eventDesc(ev *Event) string {
	return fmt.Sprintf("kind=%d time=%v src=%d seq=%d target=%d", ev.Kind, ev.Time, ev.Src, ev.Seq, ev.Target)
}

// before reports whether e is ordered before o under the deterministic
// (Time, Src, Seq) key.
func (e *Event) before(o *Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Src != o.Src {
		return e.Src < o.Src
	}
	return e.Seq < o.Seq
}

// eventHeap is a hand-rolled 4-ary min-heap of events ordered by the
// deterministic key. The events themselves are the heap's slots, so a
// comparison reads two slots and never follows a pointer, and a queued
// event costs its slot and nothing else. A 4-ary layout halves the tree
// depth of a binary heap, which matters twice here: fewer comparisons, and
// fewer slot-sized copies per sift.
//
// The slots live in fixed-size chunks rather than one array: at the
// all-ranks halo burst the queue holds every rank's messages at once, and
// a contiguous array would hold two copies of itself while it grows and up
// to twice the burst after. A chunk is allocated when the queue deepens
// into it and never moved; when the queue drains below a chunk, one spare
// chunk past the last used one is kept (so a queue oscillating around a
// boundary does not reallocate) and any other is dropped, and an empty
// queue keeps one chunk.
//
// Heap node i lives in slot i+heapRoot. With the root at slot 3, the four
// children of the node in slot s are slots 4s-8..4s-5: four-aligned, so
// never split across chunks, and a sift-down level finds its chunk once.
type eventHeap struct {
	chunks []*eventChunk
	n      int
	// hi is the high-water depth, for Engine.Metrics.
	hi int
	// pushes counts events stored; allocs counts the pushes that had to
	// allocate a chunk, finding none free (Engine.Metrics).
	pushes, allocs uint64
}

const (
	// chunkShift sets the chunk size: 1,024 events of 96 bytes, 96 KiB.
	chunkShift  = 10
	chunkEvents = 1 << chunkShift
	chunkMask   = chunkEvents - 1
	// heapRoot is the root's slot (slots 0-2 stay empty).
	heapRoot = 3
)

type eventChunk [chunkEvents]Event

// freeChunks holds chunks the event queues dropped, every slot zero (a
// popped slot is zeroed, and slots 0-2 are never written). A queue that
// deepens again takes one from here before allocating, so a burst that
// drains and refills — every halo step does — does not feed the
// allocator and the collector a burst's worth of chunks each time, while
// chunks nobody takes back are still collected.
var freeChunks sync.Pool

// grow appends a chunk, reused if one is free; allocs counts the others.
func (h *eventHeap) grow() {
	c, _ := freeChunks.Get().(*eventChunk)
	if c == nil {
		h.allocs++
		c = new(eventChunk)
	}
	h.chunks = append(h.chunks, c)
}

// shrink drops the chunks from index keep on; their slots must be zero.
func (h *eventHeap) shrink(keep int) {
	for i := keep; i < len(h.chunks); i++ {
		freeChunks.Put(h.chunks[i])
		h.chunks[i] = nil
	}
	h.chunks = h.chunks[:keep]
}

// slot returns slot s, which must lie in an allocated chunk.
func slot(chunks []*eventChunk, s int) *Event { return &chunks[s>>chunkShift][s&chunkMask] }

// len returns the number of queued events.
func (h *eventHeap) len() int { return h.n }

// push stores a copy of *ev.
func (h *eventHeap) push(ev *Event) {
	h.pushes++
	s := h.n + heapRoot
	if s>>chunkShift == len(h.chunks) {
		h.grow()
	}
	h.n++
	if h.n > h.hi {
		h.hi = h.n
	}
	chunks := h.chunks
	hole := slot(chunks, s)
	for s > heapRoot {
		ps := s>>2 + 2
		p := slot(chunks, ps)
		if !ev.before(p) {
			break
		}
		*hole = *p
		hole, s = p, ps
	}
	*hole = *ev
}

// popInto removes the earliest event and stores it in *dst; it panics on an
// empty heap. The vacated tail slot is zeroed, so no slot past the end
// retains a popped event's Payload.
func (h *eventHeap) popInto(dst *Event) {
	chunks := h.chunks
	n := h.n - 1
	end := n + heapRoot // the tail slot, vacated
	root := &chunks[0][heapRoot]
	*dst = *root
	moved := slot(chunks, end)
	if n > 0 {
		hole, s := root, heapRoot
		for {
			c := 4*s - 8
			if c >= end {
				break
			}
			k := c & chunkMask
			kids := chunks[c>>chunkShift][k : k+min(4, end-c)]
			m := 0
			for j := 1; j < len(kids); j++ {
				if kids[j].before(&kids[m]) {
					m = j
				}
			}
			if !kids[m].before(moved) {
				break
			}
			*hole = kids[m]
			hole, s = &kids[m], c+m
		}
		*hole = *moved
	}
	*moved = Event{}
	h.n = n
	switch {
	case n == 0 && len(chunks) > 1:
		h.shrink(1) // empty: chunk 0 is the one spare
	case end&chunkMask == 0 && len(chunks) > end>>chunkShift+1:
		h.shrink(end>>chunkShift + 1)
	}
}

// peek returns the earliest event without removing it, or nil if empty.
// The pointer aims into the heap's storage: it is valid until the next
// push or pop.
func (h *eventHeap) peek() *Event {
	if h.n == 0 {
		return nil
	}
	return &h.chunks[0][heapRoot]
}

// release drops every chunk (to freeChunks if the queue is empty, so
// its slots are zero); the counters survive.
func (h *eventHeap) release() {
	if h.n == 0 {
		h.shrink(0)
	}
	h.chunks = nil
	h.n = 0
}

// readyEntry is a VP that can resume execution at a known virtual time.
type readyEntry struct {
	at   vclock.Time
	rank int
}

// entryBefore reports whether x is ordered before y under the (wake time,
// rank) key, which is unique because a VP is ready at most once.
func entryBefore(x, y readyEntry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.rank < y.rank
}

// readyHeap is a hand-rolled 4-ary min-heap of resumable VPs ordered by
// (wake time, rank). Entries are plain values, so unlike the old
// container/heap version nothing is boxed on push.
type readyHeap struct {
	a []readyEntry
	// hi is the high-water depth, for Engine.Metrics.
	hi int
}

// len returns the number of ready VPs.
func (h *readyHeap) len() int { return len(h.a) }

// push inserts an entry.
func (h *readyHeap) push(e readyEntry) {
	a := append(h.a, e)
	if len(a) > h.hi {
		h.hi = len(a)
	}
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !entryBefore(e, a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
	h.a = a
}

// pop removes and returns the earliest entry; it panics on an empty heap.
// The vacated tail slot is zeroed, mirroring eventHeap.popInto, so the backing
// array holds no stale entries.
func (h *readyHeap) pop() readyEntry {
	a := h.a
	n := len(a) - 1
	root := a[0]
	moved := a[n]
	a[n] = readyEntry{}
	a = a[:n]
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			min := c
			for j := c + 1; j < end; j++ {
				if entryBefore(a[j], a[min]) {
					min = j
				}
			}
			if !entryBefore(a[min], moved) {
				break
			}
			a[i] = a[min]
			i = min
		}
		a[i] = moved
	}
	h.a = a
	return root
}

// peek returns the earliest entry without removing it.
func (h *readyHeap) peek() (readyEntry, bool) {
	if len(h.a) == 0 {
		return readyEntry{}, false
	}
	return h.a[0], true
}
