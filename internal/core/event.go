package core

import (
	"fmt"
	"math"
	"sync"

	"xsim/internal/vclock"
)

// Kind identifies the handler that processes an event. Kinds below
// reservedKinds are reserved by the engine; higher layers (the simulated MPI
// layer) register their own kinds.
type Kind int32

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
// valid for the duration of that call only.
//
// An Event is 64 bytes, one cache line, and holds no pointer: the queue's
// chunks are noscan memory the collector never marks, and a sift, a run
// append or a cross-partition copy moves plain words without a write
// barrier. Whatever an event has to say rides in its Words by value; a
// layer that hands an object over (the MPI layer's payload bytes) keeps it
// in a table of its own and sends the slot's number.
type Event struct {
	// Time is the virtual time at which the event takes effect.
	Time vclock.Time
	// Seq is the per-source sequence number, assigned by the engine.
	Seq uint64
	// Target is the rank of the VP the event concerns, or BroadcastTarget
	// for partition-level events.
	Target int
	// Src is the rank of the VP that emitted the event, or EngineSrc (or,
	// for a handler's emission on behalf of rank r, -2-r; see handlerSrc).
	// New bounds the rank count so that every one of them fits (maxVPs).
	Src int32
	// Kind selects the registered handler.
	Kind Kind
	// Words carries handler-specific scalars by value: the MPI layer's
	// message envelope and every control message, the engine's own timer
	// generation. Their meaning belongs to the event's Kind.
	Words [EventWords]uint64
}

// EventWords is the number of scalar payload words an Event carries.
const EventWords = 4

// maxVPs is the largest NumVPs New accepts: every rank's handler source
// id, -2-rank, must fit an Event's int32 Src.
const maxVPs = math.MaxInt32

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

// eventKey is an event's ordering key, as a run caches its tail's.
type eventKey struct {
	time vclock.Time
	src  int32
	seq  uint64
}

// beforeKey reports whether e is ordered before the event whose key is k.
func (e *Event) beforeKey(k *eventKey) bool {
	if e.Time != k.time {
		return e.Time < k.time
	}
	if e.Src != k.src {
		return e.Src < k.src
	}
	return e.Seq < k.seq
}

// eventHeap is a partition's event queue: events by value, popped in the
// deterministic key order, held in up to maxRuns sorted runs and a
// straggler heap.
//
// A run is a FIFO of events in ascending key order. At the all-ranks halo
// burst a partition's queue holds every rank's messages at once (196,608
// at 65,536 ranks on two partitions), under a handful of timestamps when
// the ranks run in lockstep and under as many as there are events when
// they left a linear barrier staggered; either way the pushes arrive as a
// merge of a few ascending streams, one per halo direction, so nearly
// every push is not earlier than some run's tail and is appended to it,
// and a pop takes the earliest run head. Both touch one slot and a few
// descriptors, where a sift through a heap that deep misses cache at
// every level. A push goes to the run whose tail is the latest one not
// after it (the best fit, which leaves the runs with later tails to the
// streams they carry). Runs are kept latest tail first, so the best fit
// is the first run whose tail is not after the event, and appending to
// it keeps the order: the run before it still ends after the event, and
// the run after it ended no later than its old tail.
//
// An event earlier than every tail opens a run, at the end of that order,
// while fewer than maxRuns are open and the queue holds more than
// runDepth events for each run it would then have; otherwise it goes to
// the straggler tier, a 4-ary min-heap (chunkHeap). The depth rule keeps
// a shallow queue on the heap alone, where the heap is cache-resident and
// already fast, and keeps a small burst from pinning a chunk per stream
// that it would fill a third of. A run that drains closes and returns its
// chunk.
//
// The earliest event of either tier is cached in first, so peek is one
// load; a pop rescans the at most maxRuns heads and the heap's root. The
// pop order is exactly the key order, whichever tier an event sits in.
//
// push runs on every closure-mode VP's goroutine stack (Ctx.Emit → route
// → push), whose size is set by the deepest call it ever makes, and tens
// of thousands of such stacks sit a few hundred bytes under the size at
// which the runtime doubles them: the common path, an append, calls
// nothing, while opening a run, the straggler push and taking a chunk
// are out of line (ci.sh gates the stack per VP).
//
// The slots of both tiers live in fixed-size chunks rather than arrays
// that grow by copying themselves: a chunk is taken when a run's tail or
// the heap deepens into it and never moved, so a burst is never held
// twice. Chunks come from and go back to freeChunks.
type eventHeap struct {
	// first is the earliest queued event, nil when the queue is empty;
	// firstRun is the index of the run holding it, or -1 for the heap.
	first    *Event
	firstRun int
	// n counts the queued events of both tiers; hi is its high-water
	// mark, for Engine.Metrics.
	n, hi int
	// runs[:open] are the open runs, latest tail first; the rest keep
	// their empty chunk slices for the next run to open.
	runs [maxRuns]eventRun
	open int
	heap chunkHeap
	// pushes counts events stored; allocs counts the pushes that had to
	// allocate a chunk, finding none free; appends counts the pushes that
	// appended to an open run and opens those that opened one, and the
	// rest went to the heap (Engine.Metrics).
	pushes, allocs, appends, opens uint64
}

// eventRun is a FIFO of events in ascending key order. Its events occupy
// slots head..tail-1, counted from the first slot of chunks[0]; a chunk
// is taken when the tail reaches it and given back when the head leaves
// it, so a run holds no chunk it does not use.
type eventRun struct {
	last       eventKey // the tail's key
	chunks     []*eventChunk
	head, tail int
}

const (
	// chunkShift sets the chunk size: 1,024 events of 64 bytes, 64 KiB.
	chunkShift  = 10
	chunkEvents = 1 << chunkShift
	chunkMask   = chunkEvents - 1
	// heapRoot is the straggler heap root's slot (slots 0-2 stay empty).
	heapRoot = 3
	// maxRuns caps the open runs: pushes scan the tails and pops the
	// heads of all of them. A halo burst carries one stream per
	// direction, six on a 3-D stencil.
	maxRuns = 16
	// runDepth is the depth each run needs behind it: the k-th run opens
	// only while the queue holds more than k×runDepth events. A run pins
	// whole chunks however few events it holds, so this keeps the chunks
	// the runs pin within a small multiple of the chunks the queue fills.
	runDepth = chunkEvents
)

type eventChunk [chunkEvents]Event

// freeChunks holds chunks the event queues gave back. Their slots keep
// the events they last held, which reference nothing, and a slot is only
// read after a push has written it. A queue that deepens again takes one
// from here before allocating, so a burst that drains and refills — every
// halo step does — does not feed the allocator and the collector a
// burst's worth of chunks each time, while chunks nobody takes back are
// still collected.
var freeChunks sync.Pool

// takeChunk returns a free chunk, or a new one counted in *allocs.
func takeChunk(allocs *uint64) *eventChunk {
	c, _ := freeChunks.Get().(*eventChunk)
	if c == nil {
		*allocs++
		c = new(eventChunk)
	}
	return c
}

// len returns the number of queued events.
func (h *eventHeap) len() int { return h.n }

// peek returns the earliest event without removing it, or nil if empty.
// The pointer aims into the queue's storage: it is valid until the next
// push or pop.
func (h *eventHeap) peek() *Event { return h.first }

// push stores a copy of *ev. The common case, an append to an open run,
// stays in this frame; see the stack note on eventHeap.
func (h *eventHeap) push(ev *Event) {
	h.pushes++
	h.n++
	if h.n > h.hi {
		h.hi = h.n
	}
	runs := h.runs[:h.open]
	for i := range runs {
		r := &runs[i]
		if ev.beforeKey(&r.last) {
			continue
		}
		s := r.tail
		if s>>chunkShift == len(r.chunks) {
			h.extend(r)
		}
		r.chunks[s>>chunkShift][s&chunkMask] = *ev
		r.tail = s + 1
		r.last = eventKey{ev.Time, ev.Src, ev.Seq}
		h.appends++
		return
	}
	// ev is earlier than every tail.
	if h.n > (h.open+1)*runDepth && h.open < maxRuns {
		h.openRun(ev)
		return
	}
	// The heap's root slot never moves, so a first already there stays
	// right.
	if root := h.heap.push(ev, &h.allocs); h.first == nil || h.firstRun >= 0 && root.before(h.first) {
		h.first, h.firstRun = root, -1
	}
}

// heapPushes is the number of pushes that went to the straggler heap.
func (h *eventHeap) heapPushes() uint64 { return h.pushes - h.appends - h.opens }

// extend gives run r the chunk its tail has reached.
func (h *eventHeap) extend(r *eventRun) {
	r.chunks = append(r.chunks, takeChunk(&h.allocs))
}

// openRun opens a run holding ev, which is earlier than every open run's
// tail, and so goes last in their order.
func (h *eventHeap) openRun(ev *Event) {
	r := &h.runs[h.open]
	h.extend(r)
	r.head, r.tail = 0, 1
	r.last = eventKey{ev.Time, ev.Src, ev.Seq}
	head := &r.chunks[0][0]
	*head = *ev
	if h.first == nil || head.before(h.first) {
		h.first, h.firstRun = head, h.open
	}
	h.open++
	h.opens++
}

// popInto removes the earliest event and stores it in *dst; it panics on
// an empty queue.
func (h *eventHeap) popInto(dst *Event) {
	var first *Event
	if h.firstRun < 0 {
		first = h.heap.popInto(dst)
	} else {
		*dst = *h.first
		r := &h.runs[h.firstRun]
		r.head++
		switch {
		case r.head == r.tail:
			h.closeRun()
		case r.head == chunkEvents:
			r.dropHead()
		}
		first = h.heap.peek()
	}
	h.n--
	h.firstRun = -1
	for i := range h.runs[:h.open] {
		r := &h.runs[i]
		if ev := &r.chunks[0][r.head]; first == nil || ev.before(first) {
			first, h.firstRun = ev, i
		}
	}
	h.first = first
}

// closeRun closes the last open run, which has drained. A run drains
// when its tail is popped, and a popped event is earlier than every other
// run's tail, so the drained run is always the one with the earliest tail:
// the last in their order. Its chunk goes back to freeChunks; its
// descriptor keeps the chunks slice, so that opening a run does not
// allocate one.
func (h *eventHeap) closeRun() {
	h.open--
	r := &h.runs[h.open]
	for j, c := range r.chunks {
		freeChunks.Put(c)
		r.chunks[j] = nil
	}
	r.chunks = r.chunks[:0]
}

// dropHead gives back the run's first chunk, which its head has left.
func (r *eventRun) dropHead() {
	freeChunks.Put(r.chunks[0])
	n := copy(r.chunks, r.chunks[1:])
	r.chunks[n] = nil
	r.chunks = r.chunks[:n]
	r.head -= chunkEvents
	r.tail -= chunkEvents
}

// release drops every chunk, the heap's to freeChunks (an empty queue has
// no open run, and so no run chunk); the counters survive.
func (h *eventHeap) release() {
	h.heap.shrink(0)
	h.heap = chunkHeap{}
	h.runs = [maxRuns]eventRun{}
	h.open, h.n, h.first, h.firstRun = 0, 0, nil, -1
}

// chunkHeap is the straggler tier: a hand-rolled 4-ary min-heap of events
// ordered by the deterministic key. The events themselves are the heap's
// slots, so a comparison reads two slots and never follows a pointer. A
// 4-ary layout halves the tree depth of a binary heap, which matters
// twice here: fewer comparisons, and fewer slot-sized copies per sift.
//
// A chunk is taken when the heap deepens into it; when the heap drains
// below a chunk, one spare chunk past the last used one is kept (so a
// heap oscillating around a boundary does not reallocate) and any other
// is given back, and an empty heap keeps one chunk.
//
// Heap node i lives in slot i+heapRoot. With the root at slot 3, the four
// children of the node in slot s are slots 4s-8..4s-5: four-aligned, so
// never split across chunks, and a sift-down level finds its chunk once.
type chunkHeap struct {
	chunks []*eventChunk
	n      int
}

// shrink gives back the chunks from index keep on.
func (q *chunkHeap) shrink(keep int) {
	for i := keep; i < len(q.chunks); i++ {
		freeChunks.Put(q.chunks[i])
		q.chunks[i] = nil
	}
	q.chunks = q.chunks[:keep]
}

// slot returns slot s, which must lie in an allocated chunk.
func slot(chunks []*eventChunk, s int) *Event { return &chunks[s>>chunkShift][s&chunkMask] }

// peek returns the heap's earliest event, or nil if it is empty. The root
// slot's address is fixed while the heap holds a chunk.
func (q *chunkHeap) peek() *Event {
	if q.n == 0 {
		return nil
	}
	return &q.chunks[0][heapRoot]
}

// push stores a copy of *ev and returns the root slot; a chunk it had to
// allocate is counted in *allocs.
func (q *chunkHeap) push(ev *Event, allocs *uint64) *Event {
	s := q.n + heapRoot
	if s>>chunkShift == len(q.chunks) {
		q.chunks = append(q.chunks, takeChunk(allocs))
	}
	q.n++
	chunks := q.chunks
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
	return &chunks[0][heapRoot]
}

// popInto removes the earliest event and stores it in *dst, and returns
// the new root slot, or nil if the heap is now empty; it panics on an
// empty heap.
func (q *chunkHeap) popInto(dst *Event) *Event {
	chunks := q.chunks
	n := q.n - 1
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
	q.n = n
	switch {
	case n == 0:
		if len(chunks) > 1 {
			q.shrink(1) // empty: chunk 0 is the one spare
		}
		return nil
	case end&chunkMask == 0 && len(chunks) > end>>chunkShift+1:
		q.shrink(end>>chunkShift + 1)
	}
	return root
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
// The vacated tail slot is zeroed, so the backing array holds no stale
// entries.
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
