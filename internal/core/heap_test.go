package core

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"xsim/internal/vclock"
)

// refQueue drives an event queue and a reference priority queue side by
// side: every pop must return the reference's earliest event under the
// (Time, Src, Seq) key, and after every operation the queue's structure
// must hold (queueFault).
type refQueue struct {
	t   *testing.T
	h   eventHeap
	ref refHeap
	seq uint64
}

// refHeap is the reference: container/heap over the key, nothing shared
// with the queue under test.
type refHeap []Event

func (r refHeap) Len() int           { return len(r) }
func (r refHeap) Less(i, j int) bool { return r[i].before(&r[j]) }
func (r refHeap) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }
func (r *refHeap) Push(x any)        { *r = append(*r, x.(Event)) }
func (r *refHeap) Pop() any {
	old := *r
	ev := old[len(old)-1]
	*r = old[:len(old)-1]
	return ev
}

// push stores ev under the next sequence number.
func (q *refQueue) push(ev Event) {
	q.t.Helper()
	q.seq++
	ev.Seq = q.seq
	if ev.Words[EventWords-1] == 0 {
		ev.Words[EventWords-1] = q.seq
	}
	q.h.push(&ev)
	heap.Push(&q.ref, ev)
	q.check()
}

// pop removes the earliest event and checks it against the reference.
func (q *refQueue) pop() Event {
	q.t.Helper()
	var got Event
	q.h.popInto(&got)
	want := heap.Pop(&q.ref).(Event)
	if got != want {
		q.t.Fatalf("popped %+v, want %+v (%d left)", got, want, q.ref.Len())
	}
	q.check()
	return got
}

func (q *refQueue) drain() {
	q.t.Helper()
	for q.ref.Len() > 0 {
		q.pop()
	}
}

func (q *refQueue) check() {
	q.t.Helper()
	if q.h.len() != q.ref.Len() {
		q.t.Fatalf("len %d, reference holds %d", q.h.len(), q.ref.Len())
	}
	if q.ref.Len() > 0 && *q.h.peek() != q.ref[0] {
		q.t.Fatalf("peek reads %+v, want %+v", *q.h.peek(), q.ref[0])
	}
	if fault := queueFault(&q.h); fault != "" {
		q.t.Fatalf("len %d, %d runs open: %s", q.h.len(), q.h.open, fault)
	}
}

// queueFault returns what is wrong with h's structure, or "": open runs
// are non-empty, hold exactly the chunks their slots span, cache their
// tail's key and are ordered latest tail first; closed runs hold no chunk;
// the heap keeps at most one spare; the tiers add up to the length.
func queueFault(h *eventHeap) string {
	if spare := spareChunks(h); spare > 1 {
		return fmt.Sprintf("%d spare chunks, want at most one", spare)
	}
	n := h.heap.n
	for i := range h.runs {
		r := &h.runs[i]
		if i >= h.open {
			if len(r.chunks) != 0 {
				return fmt.Sprintf("closed run %d holds %d chunks", i, len(r.chunks))
			}
			continue
		}
		if r.head < 0 || r.head >= chunkEvents || r.head >= r.tail {
			return fmt.Sprintf("open run %d spans slots %d..%d", i, r.head, r.tail)
		}
		tail := slot(r.chunks, r.tail-1)
		if (eventKey{tail.Time, tail.Src, tail.Seq}) != r.last {
			return fmt.Sprintf("run %d caches tail key %+v, its tail is %s", i, r.last, eventDesc(tail))
		}
		if i > 0 && !tail.beforeKey(&h.runs[i-1].last) {
			return fmt.Sprintf("run %d's tail %s is not before run %d's %+v", i, eventDesc(tail), i-1, h.runs[i-1].last)
		}
		n += r.tail - r.head
	}
	if n != h.n {
		return fmt.Sprintf("tiers hold %d events, length says %d", n, h.n)
	}
	return ""
}

// spareChunks is the number of chunks h holds past the ones its events
// occupy: the straggler heap's past its last used one (all of them when
// it is empty), and any a run holds past its tail.
func spareChunks(h *eventHeap) int {
	spare := len(h.heap.chunks)
	if h.heap.n > 0 {
		spare -= (h.heap.n + heapRoot + chunkMask) >> chunkShift
	}
	for i := range h.runs[:h.open] {
		r := &h.runs[i]
		spare += len(r.chunks) - ((r.tail-1)>>chunkShift + 1)
	}
	return spare
}

// chunksHeld lists every chunk h holds, in either tier.
func chunksHeld(h *eventHeap) []*eventChunk {
	held := append([]*eventChunk(nil), h.heap.chunks...)
	for i := range h.runs {
		held = append(held, h.runs[i].chunks...)
	}
	return held
}

// TestEventHeapOrder checks every pop against a reference priority queue
// in the shapes the queue sees: shallow random churn, a random burst
// drained with pushes and pops interleaved at every chunk boundary,
// interleaved ascending streams (1, 6 and 16 fit the runs, 21 force the
// straggler tier) drained and refilled across the run thresholds, handler
// emissions whose Src falls as the rank rises, same-time pushes into the
// head while it drains, and pushes below every run's tail. Times and
// sources are drawn from small ranges so that equal Time and equal (Time,
// Src) keys, which only Src and Seq separate, occur all the time.
func TestEventHeapOrder(t *testing.T) {
	newQ := func(t *testing.T) *refQueue { return &refQueue{t: t} }
	// drained checks what an emptied queue keeps: the straggler heap's
	// one spare chunk, no run, and counters that account for every push.
	drained := func(t *testing.T, q *refQueue) {
		t.Helper()
		h := &q.h
		if h.len() != 0 || h.open != 0 || len(chunksHeld(h)) > 1 {
			t.Fatalf("drained queue has len %d, %d open runs and %d chunks, want 0, 0 and at most one spare", h.len(), h.open, len(chunksHeld(h)))
		}
		if h.pushes != q.seq || h.appends+h.opens > h.pushes {
			t.Fatalf("counted %d pushes (%d appends, %d to the heap); pushed %d", h.pushes, h.appends, h.heapPushes(), q.seq)
		}
		// Chunks given back on the way down are reused from freeChunks,
		// which other tests share, so only a bound on allocations holds:
		// the most chunks the queue can have held at once.
		if bound := uint64(h.hi/chunkEvents + 2*maxRuns + 2); h.allocs > bound && !raceDetector {
			t.Fatalf("%d chunk allocations for a queue %d deep, want at most %d", h.allocs, h.hi, bound)
		}
	}

	t.Run("random", func(t *testing.T) {
		q, rng := newQ(t), rand.New(rand.NewSource(42))
		push := func(step int) {
			q.push(Event{
				Time:   vclock.Time(rng.Intn(20)),
				Src:    int32(rng.Intn(3) - 2),
				Kind:   Kind(rng.Intn(9)),
				Target: rng.Intn(64),
				Words:  [EventWords]uint64{rng.Uint64(), rng.Uint64(), uint64(step)},
			})
		}
		for step := 0; step < 6000; step++ {
			if q.h.len() > 0 && rng.Intn(5) < 2 {
				q.pop()
			} else {
				push(step)
			}
		}
		q.drain()
		for step := 0; step < 3*chunkEvents+17; step++ {
			push(step)
		}
		if q.h.open == 0 || q.h.heap.n <= runDepth {
			t.Fatalf("a random burst of %d left %d runs open and %d events in the heap, want both tiers in use", q.h.len(), q.h.open, q.h.heap.n)
		}
		// Drain, and at each chunk boundary on the way wobble across it.
		for q.h.len() > 0 {
			if q.h.len()&chunkMask == 0 || q.h.heap.n > 0 && q.h.heap.n&chunkMask == 0 {
				for i := 0; i < 40; i++ {
					if rng.Intn(2) == 0 {
						push(i)
					} else if q.h.len() > 0 {
						q.pop()
					}
				}
			}
			if q.h.len() > 0 {
				q.pop()
			}
		}
		drained(t, q)
	})

	for _, k := range []int{1, 6, 16, 21} {
		t.Run(fmt.Sprintf("streams=%d", k), func(t *testing.T) {
			q, rng := newQ(t), rand.New(rand.NewSource(int64(k)))
			next := make([]vclock.Time, k)
			for s := range next {
				next[s] = vclock.Time(rng.Intn(50))
			}
			emit := func() {
				s := rng.Intn(k)
				q.push(Event{Time: next[s], Src: int32(s % 3), Target: s})
				next[s] += vclock.Time(rng.Intn(8))
			}
			// Past this depth every stream may have a run of its own.
			full := (min(k, maxRuns) + 1) * runDepth
			for q.h.len() < full {
				emit()
				if q.h.open*runDepth >= q.h.len() {
					t.Fatalf("%d runs open at depth %d: each run needs %d events behind it", q.h.open, q.h.len(), runDepth)
				}
			}
			pushes, appends, heaped := q.h.pushes, q.h.appends, q.h.heapPushes()
			for i := 0; i < 2*chunkEvents; i++ {
				emit()
			}
			late := q.h.pushes - pushes
			switch {
			case k <= maxRuns && q.h.appends-appends < late*9/10:
				t.Fatalf("%d streams: %d of the %d pushes past depth %d appended to a run, want 90 %%", k, q.h.appends-appends, late, full)
			case k > maxRuns && q.h.heapPushes() == heaped:
				t.Fatalf("%d streams: none of the %d pushes past depth %d reached the straggler heap", k, late, full)
			}
			// Drain below the first run's threshold and refill past the
			// last one's, pushing while draining and popping while
			// refilling, so runs open, grow, give back their head chunks
			// and close along the way.
			for round := 0; round < 3; round++ {
				for q.h.len() > runDepth/2 {
					q.pop()
					if rng.Intn(3) == 0 {
						emit()
					}
				}
				for q.h.len() < full+chunkEvents/2 {
					emit()
					if rng.Intn(3) == 0 {
						q.pop()
					}
				}
			}
			q.drain()
			drained(t, q)
		})
	}

	t.Run("handler-sources", func(t *testing.T) {
		// A handler emits on behalf of rank r with Src -2-r, so ranks
		// swept upwards at one instant push descending keys: each below
		// every tail, opening runs until they run out and then straggling.
		q, rng := newQ(t), rand.New(rand.NewSource(3))
		for round := 0; round < 6; round++ {
			at := vclock.Time(100 * round)
			for r := 0; r < 700; r++ {
				q.push(Event{Time: at + vclock.Time(rng.Intn(3)), Src: handlerSrc(r), Target: r})
			}
			for i := 0; i < 300; i++ {
				q.pop()
			}
		}
		if q.h.heapPushes() == 0 || q.h.hi <= runDepth {
			t.Fatalf("descending sources reached the heap %d times at depth %d", q.h.heapPushes(), q.h.hi)
		}
		q.drain()
		drained(t, q)
	})

	t.Run("same-time-head", func(t *testing.T) {
		// While the queue drains, the dispatched event's handler emits at
		// the dispatched time, with sources on both sides of its own.
		q, rng := newQ(t), rand.New(rand.NewSource(5))
		for i := 0; i < 3*chunkEvents; i++ {
			s := i % 3
			q.push(Event{Time: vclock.Time(i / 3), Src: int32(s)})
		}
		for q.h.len() > 0 {
			ev := q.pop()
			if ev.Time < 2*chunkEvents/3 && rng.Intn(2) == 0 {
				q.push(Event{Time: ev.Time, Src: ev.Src + int32(rng.Intn(5)-2)})
			}
		}
		drained(t, q)
	})

	t.Run("below-every-tail", func(t *testing.T) {
		// Events earlier than everything queued: the first opens a run,
		// later ones once the runs are used up go to the heap; each is
		// the next pop.
		q := newQ(t)
		for i := 0; i < (maxRuns+1)*runDepth; i++ {
			q.push(Event{Time: vclock.Time(1000 + i/6), Src: int32(i % 6)})
		}
		for i := 0; i < 2*maxRuns; i++ {
			q.push(Event{Time: vclock.Time(999 - i), Src: 7})
			if p := q.h.peek(); p.Time != vclock.Time(999-i) {
				t.Fatalf("peek reads %s after a push at time %d below every tail", eventDesc(p), 999-i)
			}
		}
		if q.h.open != maxRuns || q.h.heapPushes() <= runDepth {
			t.Fatalf("%d runs open, %d pushes to the heap: want every run used and the rest straggling", q.h.open, q.h.heapPushes())
		}
		q.drain()
		drained(t, q)
	})
}

// TestEventHeapSteadyStateAllocatesNothing cycles a queue deep enough for
// runs in the engine's two shapes — a burst of interleaved ascending
// streams filled and drained, and a timer ring held at constant depth —
// and requires that, once the queue has taken its chunks, a cycle
// allocates nothing: chunks go to freeChunks and come back, and a run
// that closes keeps its chunk slice for the next to open.
func TestEventHeapSteadyStateAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops chunks at random under the race detector")
	}
	var h eventHeap
	var ev Event
	var seq uint64
	burst := func() {
		for i := 0; i < 3*chunkEvents; i++ {
			seq++
			h.push(&Event{Time: vclock.Time(i/6*10 + i%6*7%10), Src: int32(i % 6), Seq: seq})
		}
		for h.len() > 0 {
			h.popInto(&ev)
		}
	}
	if a := testing.AllocsPerRun(20, burst); a != 0 {
		t.Errorf("burst fill and drain: %.0f allocations per cycle, want 0", a)
	}
	for i := 0; i < 4096; i++ {
		seq++
		h.push(&Event{Time: 1, Src: int32(i), Seq: seq})
	}
	ring := func() {
		for i := 0; i < 4096; i++ {
			h.popInto(&ev)
			seq++
			ev.Time, ev.Seq = ev.Time+1, seq
			h.push(&ev)
		}
	}
	if a := testing.AllocsPerRun(20, ring); a != 0 {
		t.Errorf("timer ring: %.0f allocations per 4,096 timers, want 0", a)
	}
}

// TestHandlerEmitsWhileItsEventIsDispatched makes a handler push enough
// events to grow the queue across several chunk boundaries, refilling the
// slot its own event was popped from, and then checks that the event it
// was handed still reads as emitted: the dispatcher copies an event out of
// the queue before the handler runs.
func TestHandlerEmitsWhileItsEventIsDispatched(t *testing.T) {
	const kindFan, kindLeaf = kindPing + 1, kindPing + 2
	const fan = 5000
	for _, workers := range []int{1, 3} {
		eng := newTestEngine(t, Config{NumVPs: 4, Workers: workers, Lookahead: vclock.Microsecond, Validate: true})
		want := Event{
			Time: vclock.Time(vclock.Millisecond), Src: 0, Seq: 1, Kind: kindFan, Target: 0,
			Words: [EventWords]uint64{11, 22, 33, 44},
		}
		leaves := 0
		eng.RegisterHandler(kindFan, func(s *SchedCtx, ev *Event) {
			before := len(chunksHeld(&eng.parts[0].eventQ))
			for i := 0; i < fan; i++ {
				s.EmitFor(0, Event{Time: ev.Time.Add(vclock.Duration(fan - i)), Kind: kindLeaf, Target: 0, Words: [EventWords]uint64{uint64(i)}})
			}
			if after := len(chunksHeld(&eng.parts[0].eventQ)); after <= before+1 {
				t.Errorf("workers=%d: queue did not grow across a chunk boundary under the handler (%d -> %d chunks)", workers, before, after)
			}
			if *ev != want {
				t.Errorf("workers=%d: event changed under its handler:\n got %+v\nwant %+v", workers, *ev, want)
			}
		})
		eng.RegisterHandler(kindLeaf, func(s *SchedCtx, ev *Event) { leaves++ })
		if _, err := eng.Run(func(c *Ctx) {
			if c.Rank() == 0 {
				ev := want
				ev.Src, ev.Seq = 99, 99 // the engine assigns both
				c.Emit(ev)
				c.Sleep(vclock.Second)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if leaves != fan {
			t.Errorf("workers=%d: %d of %d emitted events dispatched", workers, leaves, fan)
		}
	}
}

// burstProg emits a burst of events, sleeps past their delivery, checks
// the drained queue and completes: TestRunReleasesQueueStorage's workload
// as a Program.
type burstProg struct {
	t     *testing.T
	slept bool
}

func (p *burstProg) Step(c *Ctx, wake any) (any, bool) {
	if p.slept {
		checkDrained(p.t, c)
		return nil, true
	}
	p.slept = true
	burst(c)
	park, _ := c.SleepPark(vclock.Second)
	return park, false
}

// burstEvents per rank make every partition's queue at least two chunks
// deep at the burst's delivery.
const burstEvents = chunkEvents / 2

func burst(c *Ctx) {
	peer := (c.Rank() + 5) % c.N()
	for i := 0; i < burstEvents; i++ {
		c.Emit(Event{Time: c.NowQuiet().Add(vclock.Millisecond), Kind: kindPing, Target: peer, Words: [EventWords]uint64{uint64(i)}})
	}
}

// checkDrained runs on a rank after the burst was delivered: its
// partition's queue has grown past one chunk and then drained, and may
// keep at most one spare.
func checkDrained(t *testing.T, c *Ctx) {
	for _, p := range c.eng.parts {
		if !p.owns(c.Rank()) {
			continue
		}
		if p.eventQ.hi <= chunkEvents {
			t.Errorf("partition %d queue peaked at %d events, inside one chunk", p.id, p.eventQ.hi)
		} else if spare := spareChunks(&p.eventQ); spare > 1 {
			t.Errorf("partition %d holds %d spare chunks after draining, want at most one", p.id, spare)
		}
	}
}

// holdsStorage reports whether h still holds any storage: a chunk, a
// chunk slice of either tier, or a pointer to an event.
func holdsStorage(h *eventHeap) bool {
	if h.heap.chunks != nil || h.first != nil {
		return true
	}
	for i := range h.runs {
		if h.runs[i].chunks != nil {
			return true
		}
	}
	return false
}

// TestRunReleasesQueueStorage checks that a running engine whose queue
// drained after a burst keeps at most one spare chunk, and that a finished
// engine holds none of its queues' storage, in either execution mode,
// while the counters Metrics reads survive.
func TestRunReleasesQueueStorage(t *testing.T) {
	for _, prog := range []bool{false, true} {
		eng := newTestEngine(t, Config{NumVPs: 9, Workers: 2, Lookahead: vclock.Microsecond})
		registerPing(eng)
		var err error
		if prog {
			_, err = eng.RunPrograms(func(c *Ctx) Program { return &burstProg{t: t} })
		} else {
			_, err = eng.Run(func(c *Ctx) {
				burst(c)
				c.Sleep(vclock.Second)
				checkDrained(t, c)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range eng.parts {
			if holdsStorage(&p.eventQ) || p.ready.a != nil || p.cur != (Event{}) {
				t.Errorf("prog=%v partition %d: queue storage survives the run (%d event chunks, ready cap %d, cur %+v)",
					prog, p.id, len(chunksHeld(&p.eventQ)), cap(p.ready.a), p.cur)
			}
			for q := range p.crossOut {
				if p.crossOut[q] != nil || p.inbox[q] != nil {
					t.Errorf("prog=%v partition %d: exchange buffer for partition %d survives the run", prog, p.id, q)
				}
			}
		}
		// The burst is each rank's ascending stream, so past the first
		// chunk its pushes append to runs.
		if m := eng.Metrics(); m.EventHeapHighWater == 0 || m.PoolHits+m.PoolMisses < 9*burstEvents || m.CrossEvents == 0 || m.EventRunAppends == 0 {
			t.Errorf("prog=%v: metrics lost with the storage: %+v", prog, m)
		}
	}
}

// TestReadyHeapOrder drains a randomly filled ready heap and checks
// (wake time, rank) order.
func TestReadyHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var h readyHeap
	const n = 2000
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		h.push(readyEntry{at: vclock.Time(rng.Intn(50)), rank: perm[i]})
	}
	prev := h.pop()
	for i := 1; i < n; i++ {
		e := h.pop()
		if entryBefore(e, prev) {
			t.Fatalf("pop %d out of order: %+v after %+v", i, e, prev)
		}
		prev = e
	}
}

// TestReadyHeapPopClearsSlots mirrors the event-heap test: vacated slots
// must be zeroed so the backing array holds no stale entries.
func TestReadyHeapPopClearsSlots(t *testing.T) {
	var h readyHeap
	for i := 0; i < 100; i++ {
		h.push(readyEntry{at: vclock.Time((i * 31) % 40), rank: i})
	}
	for i := 0; i < 60; i++ {
		h.pop()
	}
	full := h.a[:cap(h.a)]
	for i := h.len(); i < len(full); i++ {
		if full[i] != (readyEntry{}) {
			t.Fatalf("slot %d (len=%d, cap=%d) retains %+v after pop", i, h.len(), cap(h.a), full[i])
		}
	}
}
