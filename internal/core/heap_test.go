package core

import (
	"math/rand"
	"sort"
	"testing"

	"xsim/internal/vclock"
)

// TestEventHeapOrder interleaves random pushes and pops and checks every
// pop against a sorted reference. Times and sources are drawn from small
// ranges so that equal Time and equal (Time, Src) keys, which only Src and
// Seq separate, occur all the time.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var ref []Event // kept sorted by the ordering key
	var seq uint64
	pop := func() {
		var got Event
		h.popInto(&got)
		want := ref[0]
		ref = ref[1:]
		if got != want {
			t.Fatalf("popped %+v, want %+v (%d left)", got, want, len(ref))
		}
	}
	for step := 0; step < 6000; step++ {
		if len(ref) > 0 && rng.Intn(5) < 2 {
			pop()
			continue
		}
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
		if h.len() != len(ref) {
			t.Fatalf("len %d, reference holds %d", h.len(), len(ref))
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after draining: len=%d", h.len())
	}
	if h.pushes != seq || h.grows == 0 || h.grows > 64 {
		t.Fatalf("counted %d pushes, %d of them growing the array; pushed %d", h.pushes, h.grows, seq)
	}
}

// TestEventHeapPopClearsSlots checks that no slot between len and cap still
// holds a popped event's Payload: the array outlives the events, so a stale
// slot would pin a payload object for as long as the queue stays shallow.
func TestEventHeapPopClearsSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	for i := 0; i < 100; i++ {
		h.push(&Event{Time: vclock.Time(rng.Intn(40)), Seq: uint64(i), Payload: i})
	}
	var ev Event
	for i := 0; i < 60; i++ {
		h.popInto(&ev)
	}
	full := h.a[:cap(h.a)]
	for i := h.len(); i < len(full); i++ {
		if full[i] != (Event{}) {
			t.Fatalf("slot %d (len=%d, cap=%d) retains %+v after pop", i, h.len(), cap(h.a), full[i])
		}
	}
}

// TestHandlerEmitsWhileItsEventIsDispatched makes a handler push enough
// events to move the queue's array several times over and then checks that
// the event it was handed still reads as emitted: the dispatcher copies an
// event out of the queue before the handler runs.
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
			before := cap(eng.parts[0].eventQ.a)
			for i := 0; i < fan; i++ {
				s.EmitFor(0, Event{Time: ev.Time.Add(vclock.Duration(fan - i)), Kind: kindLeaf, Target: 0, Payload: i})
			}
			if after := cap(eng.parts[0].eventQ.a); after <= before {
				t.Errorf("workers=%d: queue did not grow under the handler (cap %d -> %d)", workers, before, after)
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

// burstProg emits a burst of cross-partition events, sleeps past their
// delivery and completes: TestRunReleasesQueueStorage's workload as a
// Program.
type burstProg struct{ slept bool }

func (p *burstProg) Step(c *Ctx, wake any) (any, bool) {
	if p.slept {
		return nil, true
	}
	p.slept = true
	burst(c)
	park, _ := c.SleepPark(vclock.Second)
	return park, false
}

func burst(c *Ctx) {
	peer := (c.Rank() + 5) % c.N()
	for i := 0; i < 8; i++ {
		c.Emit(Event{Time: c.NowQuiet().Add(vclock.Millisecond), Kind: kindPing, Target: peer, Payload: i})
	}
}

// TestRunReleasesQueueStorage checks that a finished engine holds none of
// the storage its queues grew to, in either execution mode, while the
// counters Metrics reads survive.
func TestRunReleasesQueueStorage(t *testing.T) {
	for _, prog := range []bool{false, true} {
		eng := newTestEngine(t, Config{NumVPs: 9, Workers: 2, Lookahead: vclock.Microsecond})
		registerPing(eng)
		var err error
		if prog {
			_, err = eng.RunPrograms(func(c *Ctx) Program { return &burstProg{} })
		} else {
			_, err = eng.Run(func(c *Ctx) {
				burst(c)
				c.Sleep(vclock.Second)
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range eng.parts {
			if p.eventQ.a != nil || p.ready.a != nil || p.cur != (Event{}) {
				t.Errorf("prog=%v partition %d: queue storage survives the run (events cap %d, ready cap %d, cur %+v)",
					prog, p.id, cap(p.eventQ.a), cap(p.ready.a), p.cur)
			}
			for q := range p.crossOut {
				if p.crossOut[q] != nil || p.inbox[q] != nil {
					t.Errorf("prog=%v partition %d: exchange buffer for partition %d survives the run", prog, p.id, q)
				}
			}
		}
		if m := eng.Metrics(); m.EventHeapHighWater == 0 || m.PoolHits+m.PoolMisses < 72 || m.CrossEvents == 0 {
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
