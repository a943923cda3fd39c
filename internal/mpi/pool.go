package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The data-plane pools. One dpPool per engine partition holds four free
// lists of one generic type — requests, their cold records, envelopes and
// message headers, the only objects the point-to-point path has — plus a
// size-classed payload buffer pool and the table of payload boxes. A pool
// is only ever touched by its partition's execution context (the
// partition worker inside a handler, or the VP currently running on that
// partition), so gets and puts need no locks, and objects that travel
// between ranks simply migrate from the sender's pool to the receiver's.
// The one exception is a box's release by a receiver in another partition
// (boxTable).
//
// What is not here is anything in flight. A message, a clear-to-send, a
// rendezvous delivery, a timeout or a notification is a slot in the
// engine's event queue with its scalars in the event's words; a payload
// buffer rides beside it in a box, whose handle is one of those words. An
// envelope object is taken only for a message that has to wait in the
// unexpected queue, and a Message only when somebody reads a completed
// receive: a payload-free exchange whose receives are posted first takes
// one request per message from the pool if it is eager (the send returns
// the shared eagerSent), two if it is a rendezvous, and nothing else.
//
// A request's cold record (reqCold) holds what only some requests use, and
// is taken on first use and returned with the request at Free. Taking one:
// a send or receive that carries payload bytes (Isend/Send data, a received
// payload until it is read), a receive whose matched header differs from
// the posted one (AnyTag, or a wildcard source on a communicator whose
// ranks are not world ranks), a receive whose Message somebody reads
// through Msg, and a request that completes with an error (a failed-peer
// timeout, a cancel). Never taking one: an exact-source, payload-free
// exchange (IsendN/Irecv, eager or rendezvous — the heat halo in modelled
// mode), and an eager send, which is born done.
//
// Pooling per-message objects
// instead did not work at scale: every rank posts at the same virtual
// instant, the burst is hundreds of thousands of objects deep, and a free
// list deep enough to hold it is slower to walk than the allocator is to
// bump.
//
// Payload buffers carry ownership-transfer semantics:
//
//   - an eager send copies the caller's bytes into a pooled buffer at post
//     time (the caller may reuse its buffer immediately — the broadcast
//     root does);
//   - a rendezvous send keeps only a reference at post time and copies
//     into a pooled buffer when the clear-to-send arrives, eliding the
//     defensive snapshot entirely — the sender either is blocked at that
//     moment (blocking Send) or has promised not to touch the buffer
//     before Wait (Isend, MPI's contract);
//   - internal senders that already own a pooled buffer (encoded
//     reductions, framed gathers) transfer it outright with no copy at
//     either end;
//   - the receiver's Message owns its Data buffer and may hand both back
//     with Message.Release once the payload has been consumed. Unreleased
//     messages fall to the garbage collector — correct, just slower.

const (
	// Buffer size classes are powers of two from 64 B to 1 MiB; larger
	// payloads are allocated exactly and dropped on release.
	minBufShift = 6
	maxBufShift = 20
	nBufClasses = maxBufShift - minBufShift + 1

	// Free-list caps bound how much memory an idle pool pins. What is
	// pooled recycles within one rank's step (a rank frees its requests and
	// posts the next exchange), so the cap need not cover a burst.
	maxFreeObjs        = 4096
	maxFreeBufsPerSize = 64
)

// freeList is a LIFO of zeroed objects, capped at maxFreeObjs.
type freeList[T any] struct {
	free         []*T
	hits, misses uint64
}

// get returns a zeroed object, from the list if it holds one.
func (l *freeList[T]) get() *T {
	if n := len(l.free) - 1; n >= 0 {
		x := l.free[n]
		l.free[n] = nil
		l.free = l.free[:n]
		l.hits++
		return x
	}
	l.misses++
	return new(T)
}

// put zeroes x and keeps it for the next get. References x held are
// dropped, not released: the caller has transferred or returned them.
func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	if len(l.free) < maxFreeObjs {
		l.free = append(l.free, x)
	}
}

// dpPool is one partition's data-plane free lists.
type dpPool struct {
	// part is the index of the partition the pool belongs to, the low
	// bits of every box handle it issues (World.box).
	part uint32
	// boxes holds the payload buffers the partition's senders have in
	// flight.
	boxes boxTable
	// envs: the caller of put must have transferred or released env.data
	// first (putBuf) — put drops the reference without returning the
	// buffer.
	envs freeList[envelope]
	// reqs: only internal requests that never escape to the application
	// (blocking Send/Recv wrappers, collective internals) or ones the
	// application has freed may be put: the next get hands the same
	// pointer to an unrelated operation. The request must be complete and
	// out of every index — stale in-flight events cannot resurrect it
	// because handlers look requests up by id in the pending table, and a
	// recycled request is reissued under a fresh id.
	reqs freeList[Request]
	// colds: the requests' cold records (reqCold), taken by a request on
	// first use and put back by putReq with the request.
	colds freeList[reqCold]
	// msgs: headers only, not their Data — detach or release that
	// separately.
	msgs freeList[Message]

	bufs [nBufClasses][][]byte

	// failed is the partition's failed-peer list: every failure
	// notification the partition has handled, in arrival order. Each
	// notification reaches every local rank at one instant, so one list
	// serves them all (procState.failures).
	failed []peerFailure

	// Traffic counters (metrics.go): sends and collectives posted by the
	// partition's ranks, and the deepest any of their unexpected queues got.
	eagerMsgs, eagerBytes uint64
	rdvMsgs, rdvBytes     uint64
	collectives           uint64
	unexpMax              int

	// Buffer counters, partition-confined like the lists; World.Metrics
	// sums them (and the lists' hits and misses) after the run.
	bufHits   uint64
	bufMisses uint64
	// bufOut tracks pooled payload bytes currently checked out;
	// bufHighWater is its peak — the resident cost of in-flight payloads.
	bufOut       int64
	bufHighWater int64
}

// putReq recycles a request and its cold record; the shared eagerSent is
// nobody's to recycle and is left alone. The caller must have released or
// transferred the request's payload and message first (releaseMsg).
func (p *dpPool) putReq(r *Request) {
	if r == &eagerSent {
		return
	}
	if r.cold != nil {
		p.colds.put(r.cold)
	}
	p.reqs.put(r)
}

// bufClass returns the size-class index for a payload of the given size,
// or -1 if the size is above the largest pooled class.
func bufClass(size int) int {
	c := 0
	for s := size - 1; s >= 1<<minBufShift; s >>= 1 {
		c++
	}
	if c >= nBufClasses {
		return -1
	}
	return c
}

// getBuf returns a buffer of exactly size bytes backed by pooled capacity
// (its cap is the size class). Oversize requests fall through to the
// allocator.
func (p *dpPool) getBuf(size int) []byte {
	if size <= 0 {
		return nil
	}
	c := bufClass(size)
	if c < 0 {
		p.bufMisses++
		return make([]byte, size)
	}
	list := p.bufs[c]
	if n := len(list) - 1; n >= 0 {
		b := list[n]
		list[n] = nil
		p.bufs[c] = list[:n]
		p.bufHits++
		p.bufCheckout(int64(cap(b)))
		return b[:size]
	}
	p.bufMisses++
	b := make([]byte, size, 1<<(minBufShift+c))
	p.bufCheckout(int64(cap(b)))
	return b
}

// putBuf returns a buffer obtained from getBuf. Buffers whose capacity is
// not an exact pooled class (oversize allocations, foreign slices) are
// dropped to the garbage collector.
func (p *dpPool) putBuf(b []byte) {
	if b == nil {
		return
	}
	c := bufClass(cap(b))
	if c < 0 || cap(b) != 1<<(minBufShift+c) {
		return
	}
	p.bufOut -= int64(cap(b))
	if len(p.bufs[c]) < maxFreeBufsPerSize {
		p.bufs[c] = append(p.bufs[c], b[:cap(b)])
	}
}

func (p *dpPool) bufCheckout(n int64) {
	p.bufOut += n
	if p.bufOut > p.bufHighWater {
		p.bufHighWater = p.bufOut
	}
}

// boxTable is a partition's payload boxes. An event holds no pointer, so a
// payload buffer in flight (an eager message's bytes, a rendezvous
// delivery's) waits in a slot of its sender's partition's table and the
// event carries the slot's handle (World.box). The receiver takes the
// buffer out and frees the slot (World.unbox): into free if it runs in the
// owner partition, and otherwise into back, a return list under mu,
// because it runs mid-window while the owner may be taking slots. The
// owner drains back when free runs dry.
//
// Slots live in chunks that never move, listed by dir. The owner grows
// dir by replacing it, never in place, so a receiver in another partition
// can resolve a handle while the owner takes new slots. A slot belongs to
// whoever holds its handle: the owner writes it before the event leaves,
// the receiver reads and clears it before giving it back.
type boxTable struct {
	dir atomic.Pointer[[]*boxChunk]
	// n is one past the highest slot made. Slot 0 is never used, so no
	// handle is 0, the word of a message without bytes.
	n    uint32
	free []uint32
	mu   sync.Mutex
	back []uint32
}

const (
	boxChunkShift = 8
	boxChunkMask  = 1<<boxChunkShift - 1
)

type boxChunk [1 << boxChunkShift][]byte

// slot returns slot s, which must have been made.
func (t *boxTable) slot(s uint32) *[]byte {
	return &(*t.dir.Load())[s>>boxChunkShift][s&boxChunkMask]
}

// take stores b in a free slot, making one if none is free, and returns
// the slot's number. Owner partition only.
func (t *boxTable) take(b []byte) uint32 {
	if len(t.free) == 0 {
		t.mu.Lock()
		t.free, t.back = t.back, t.free
		t.mu.Unlock()
	}
	var s uint32
	if n := len(t.free) - 1; n >= 0 {
		s = t.free[n]
		t.free = t.free[:n]
	} else {
		s = max(t.n, 1)
		t.n = s + 1
		var dir []*boxChunk
		if d := t.dir.Load(); d != nil {
			dir = *d
		}
		if int(s>>boxChunkShift) == len(dir) {
			dir = append(dir[:len(dir):len(dir)], new(boxChunk))
			t.dir.Store(&dir)
		}
	}
	*t.slot(s) = b
	return s
}

// release empties slot s and frees it, and returns the buffer it held.
// owner says whether the caller runs in the table's own partition.
func (t *boxTable) release(s uint32, owner bool) []byte {
	p := t.slot(s)
	b := *p
	*p = nil
	if owner {
		t.free = append(t.free, s)
	} else {
		t.mu.Lock()
		t.back = append(t.back, s)
		t.mu.Unlock()
	}
	return b
}

// box parks b in a slot of dp's box table and returns the handle an event
// carries it by: the slot's number above the owner partition's index, in
// the boxShift low bits.
func (w *World) box(dp *dpPool, b []byte) uint32 {
	s := dp.boxes.take(b)
	if limit := uint64(1) << (32 - w.boxShift); uint64(s) >= limit {
		panic(fmt.Sprintf("mpi: partition %d has more than %d payloads in flight", dp.part, limit-1))
	}
	return s<<w.boxShift | dp.part
}

// unbox returns the buffer handle h names, nil for 0, and frees its slot;
// dp is the pool of the partition the receiver runs in.
func (w *World) unbox(dp *dpPool, h uint32) []byte {
	if h == 0 {
		return nil
	}
	owner := w.pools[h&(1<<w.boxShift-1)]
	return owner.boxes.release(h>>w.boxShift, owner == dp)
}
