package core

import (
	"math/rand"
	"sort"
	"testing"

	"xsim/internal/vclock"
)

// TestEventHeapOrder checks every pop against a sorted reference, in two
// phases: random pushes and pops interleaved in a shallow queue, then a
// burst three chunks deep drained and refilled with pushes and pops
// interleaved around every chunk boundary on the way down. Times and
// sources are drawn from small ranges so that equal Time and equal (Time,
// Src) keys, which only Src and Seq separate, occur all the time.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var ref []Event // kept sorted by the ordering key
	var seq uint64
	check := func() {
		t.Helper()
		if h.len() != len(ref) {
			t.Fatalf("len %d, reference holds %d", h.len(), len(ref))
		}
		if spare := spareChunks(&h); spare > 1 {
			t.Fatalf("%d spare chunks at len %d, want at most one", spare, h.len())
		}
	}
	pop := func() {
		t.Helper()
		var got Event
		h.popInto(&got)
		want := ref[0]
		ref = ref[1:]
		if got != want {
			t.Fatalf("popped %+v, want %+v (%d left)", got, want, len(ref))
		}
		check()
	}
	push := func(step int) {
		t.Helper()
		seq++
		ev := Event{
			Time:    vclock.Time(rng.Intn(20)),
			Src:     rng.Intn(3) - 2,
			Seq:     seq,
			Kind:    Kind(rng.Intn(9)),
			Target:  rng.Intn(64),
			Payload: step,
			Words:   [EventWords]uint64{rng.Uint64(), rng.Uint64()},
		}
		h.push(&ev)
		i := sort.Search(len(ref), func(i int) bool { return ev.before(&ref[i]) })
		ref = append(ref, Event{})
		copy(ref[i+1:], ref[i:])
		ref[i] = ev
		check()
	}
	for step := 0; step < 6000; step++ {
		if len(ref) > 0 && rng.Intn(5) < 2 {
			pop()
		} else {
			push(step)
		}
	}
	for len(ref) > 0 {
		pop()
	}
	for step := 0; step < 3*chunkEvents+17; step++ {
		push(step)
	}
	if len(h.chunks) != 4 {
		t.Fatalf("a burst of %d events holds %d chunks, want 4", h.len(), len(h.chunks))
	}
	// Drain, and at each chunk boundary on the way wobble across it.
	for len(ref) > 0 {
		if h.len()&chunkMask == 0 {
			for i := 0; i < 40; i++ {
				if rng.Intn(2) == 0 {
					push(i)
				} else if len(ref) > 0 {
					pop()
				}
			}
		}
		pop()
	}
	if h.len() != 0 || len(h.chunks) != 1 {
		t.Fatalf("drained heap has len %d and %d chunks, want 0 and one spare", h.len(), len(h.chunks))
	}
	// Chunks dropped on the way down are reused from freeChunks, which
	// other tests share, so only a bound on allocations holds.
	if h.pushes != seq || h.allocs > 16 {
		t.Fatalf("counted %d pushes, %d of them allocating a chunk; pushed %d", h.pushes, h.allocs, seq)
	}
}

// spareChunks is the number of chunks h holds past the last one in use
// (all of them, for an empty queue).
func spareChunks(h *eventHeap) int {
	if h.len() == 0 {
		return len(h.chunks)
	}
	return len(h.chunks) - (h.len()+heapRoot+chunkMask)>>chunkShift
}

// TestEventHeapPopClearsSlots checks that no slot outside the heap still
// holds a popped event, nor any slot of a chunk the queue gives back: a
// chunk outlives the events, so a stale slot would pin a payload object
// for as long as the queue stays shallow, or be reused as a live event.
func TestEventHeapPopClearsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	for i := 0; i < chunkEvents+100; i++ {
		h.push(&Event{Time: vclock.Time(rng.Intn(40)), Seq: uint64(i), Payload: i})
	}
	var ev Event
	for i := 0; i < 160; i++ {
		h.popInto(&ev)
	}
	for i := 0; i < len(h.chunks)*chunkEvents; i++ {
		if i >= heapRoot && i < heapRoot+h.len() {
			continue
		}
		if s := slot(h.chunks, i); *s != (Event{}) {
			t.Fatalf("slot %d (len=%d, %d chunks) retains %+v after pop", i, h.len(), len(h.chunks), *s)
		}
	}
	// Drained, the queue has handed its second chunk to freeChunks, which
	// reuses chunks without clearing them: every slot must be zero.
	held := append([]*eventChunk(nil), h.chunks...)
	for h.len() > 0 {
		h.popInto(&ev)
	}
	if len(h.chunks) != 1 {
		t.Fatalf("drained queue holds %d chunks, want one", len(h.chunks))
	}
	for ci, c := range held {
		for i := range c {
			if c[i] != (Event{}) {
				t.Fatalf("chunk %d slot %d retains %+v after the queue drained", ci, i, c[i])
			}
		}
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
			Payload: "fan", Words: [EventWords]uint64{11, 22, 33, 44, 55},
		}
		leaves := 0
		eng.RegisterHandler(kindFan, func(s *SchedCtx, ev *Event) {
			before := len(eng.parts[0].eventQ.chunks)
			for i := 0; i < fan; i++ {
				s.EmitFor(0, Event{Time: ev.Time.Add(vclock.Duration(fan - i)), Kind: kindLeaf, Target: 0, Payload: i})
			}
			if after := len(eng.parts[0].eventQ.chunks); after <= before+1 {
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
		c.Emit(Event{Time: c.NowQuiet().Add(vclock.Millisecond), Kind: kindPing, Target: peer, Payload: i})
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
			if p.eventQ.chunks != nil || p.ready.a != nil || p.cur != (Event{}) {
				t.Errorf("prog=%v partition %d: queue storage survives the run (%d event chunks, ready cap %d, cur %+v)",
					prog, p.id, len(p.eventQ.chunks), cap(p.ready.a), p.cur)
			}
			for q := range p.crossOut {
				if p.crossOut[q] != nil || p.inbox[q] != nil {
					t.Errorf("prog=%v partition %d: exchange buffer for partition %d survives the run", prog, p.id, q)
				}
			}
		}
		if m := eng.Metrics(); m.EventHeapHighWater == 0 || m.PoolHits+m.PoolMisses < 9*burstEvents || m.CrossEvents == 0 {
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
