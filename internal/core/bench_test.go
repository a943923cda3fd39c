package core

import (
	"runtime"
	"testing"

	"xsim/internal/vclock"
)

// BenchmarkHandoff measures the raw VP block/wake cycle: the cost of one
// simulated context switch. ReportAllocs guards the steady-state event
// path: with the event pool, field-based wakes, and the hand-rolled heaps
// the per-iteration cost must amortise to 0 allocs/op (the only
// allocations are one-time engine setup).
func BenchmarkHandoff(b *testing.B) {
	eng, err := New(Config{NumVPs: 2})
	if err != nil {
		b.Fatal(err)
	}
	registerPingBench(eng)
	rounds := b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(func(c *Ctx) {
		peer := 1 - c.Rank()
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Emit(Event{Time: c.NowQuiet().Add(vclock.Microsecond), Kind: kindPingBench, Target: peer})
				c.Block("pong")
			} else {
				c.Block("ping")
				c.Emit(Event{Time: c.NowQuiet().Add(vclock.Microsecond), Kind: kindPingBench, Target: peer})
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

const kindPingBench = FirstUserKind + 7

func registerPingBench(eng *Engine) {
	eng.RegisterHandler(kindPingBench, func(s *SchedCtx, ev *Event) {
		if s.Alive(ev.Target) && s.Blocked(ev.Target) {
			s.Wake(ev.Target, ev.Time, nil)
		}
	})
}

// BenchmarkEventHeap measures the event queue in three shapes. churn is
// random keys 512 deep, a queue that stays on the straggler heap; an op is
// a push and, once full, a pop. burst is the all-ranks halo burst: six
// interleaved ascending streams (one per halo direction) pushed 196,608
// deep, then drained; an op is the whole burst, and ns/event its cost per
// event. timers is a ring of 4,096 equal-time timers, each popped and
// pushed again one tick later, the shape of many VPs parked in
// SleepPark; an op is one pop and one push.
func BenchmarkEventHeap(b *testing.B) {
	var out Event
	b.Run("churn", func(b *testing.B) {
		var h eventHeap
		evs := make([]Event, 1024)
		for i := range evs {
			evs[i] = Event{Time: vclock.Time(i * 7919 % 1024), Src: int32(i % 16), Seq: uint64(i)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.push(&evs[i%1024])
			if h.len() > 512 {
				h.popInto(&out)
			}
		}
	})
	b.Run("burst", func(b *testing.B) {
		const depth, streams = 196608, 6
		var h eventHeap
		evs := make([]Event, depth)
		for i := range evs {
			s := i % streams
			evs[i] = Event{Time: vclock.Time(i/streams*10 + s*7%10), Src: int32(s), Seq: uint64(i)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range evs {
				h.push(&evs[j])
			}
			for h.len() > 0 {
				h.popInto(&out)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/depth, "ns/event")
	})
	b.Run("timers", func(b *testing.B) {
		const ring = 4096
		var h eventHeap
		for i := 0; i < ring; i++ {
			h.push(&Event{Time: 1, Src: int32(i), Seq: uint64(i)})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.popInto(&out)
			out.Time++
			out.Seq += ring
			h.push(&out)
		}
	})
}

// BenchmarkReadyHeap measures the ready queue the same way; entries are
// plain values, so pushes must not box.
func BenchmarkReadyHeap(b *testing.B) {
	var h readyHeap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.push(readyEntry{at: vclock.Time(i * 7919 % 1024), rank: i % 4096})
		if h.len() > 512 {
			h.pop()
		}
	}
}

// BenchmarkEngineStartup measures building and tearing down a 4096-VP
// engine (goroutine spawn + kill path).
func BenchmarkEngineStartup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{NumVPs: 4096})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Run(func(c *Ctx) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpawnTeardown measures the per-VP cost of standing up and
// tearing down a 64k-rank world where every rank runs to completion:
// a carrier coroutine created, run and exited per VP in closure mode, a
// single inline step in program mode. Reported per VP so the numbers stay
// comparable across scales.
func BenchmarkSpawnTeardown(b *testing.B) {
	const n = 65536
	run := func(b *testing.B, exec func() error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := exec(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/vp")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/n, "allocs/vp")
	}
	b.Run("closure", func(b *testing.B) {
		run(b, func() error {
			eng, err := New(Config{NumVPs: n})
			if err != nil {
				return err
			}
			_, err = eng.Run(func(c *Ctx) {})
			return err
		})
	})
	b.Run("prog", func(b *testing.B) {
		run(b, func() error {
			eng, err := New(Config{NumVPs: n})
			if err != nil {
				return err
			}
			_, err = eng.RunPrograms(func(*Ctx) Program { return doneProg{} })
			return err
		})
	})
}

type doneProg struct{}

func (doneProg) Step(c *Ctx, wake any) (any, bool) { return nil, true }

// BenchmarkParallelWindows measures the parallel window protocol under
// cross-partition ping traffic: 8 VPs over 4 workers, every rank paired
// with a rank in another partition, so each round all traffic crosses
// partitions and each window carries mailbox exchanges plus two barriers.
func BenchmarkParallelWindows(b *testing.B) {
	const (
		vps       = 8
		workers   = 4
		lookahead = vclock.Microsecond
	)
	eng, err := New(Config{NumVPs: vps, Workers: workers, Lookahead: lookahead})
	if err != nil {
		b.Fatal(err)
	}
	registerPingBench(eng)
	rounds := b.N
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := eng.Run(func(c *Ctx) {
		// Pair ranks across partitions: with 2 VPs per partition, rank r
		// partners with (r+4)%8, which always lives in another partition.
		peer := (c.Rank() + vps/2) % vps
		initiator := c.Rank() < vps/2
		for i := 0; i < rounds; i++ {
			if initiator {
				c.Emit(Event{Time: c.NowQuiet().Add(lookahead), Kind: kindPingBench, Target: peer})
				c.Block("pong")
			} else {
				c.Block("ping")
				c.Emit(Event{Time: c.NowQuiet().Add(lookahead), Kind: kindPingBench, Target: peer})
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkParallelFanIn pins the parallel window protocol's round count on
// a phase in which one partition works alone: 4,096 VPs on 2 workers, every
// rank sends one event to rank 0, which consumes them one at a time (each
// a Sleep longer than two lookaheads, so no two fit in a window bounded by
// the global minimum) and then releases every rank. A window that ends only
// at the partition's own first cross-partition send runs the whole fan-in
// in one round; rounds/op is BarrierRounds per run, which is exact, so CI
// gates it.
func BenchmarkParallelFanIn(b *testing.B) {
	const (
		vps       = 4096
		lookahead = vclock.Microsecond
	)
	var rounds uint64
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{NumVPs: vps, Workers: 2, Lookahead: lookahead})
		if err != nil {
			b.Fatal(err)
		}
		// pending and waiting are rank 0's inbox, touched only by rank 0 and
		// by handlers on its partition.
		pending, waiting := 0, false
		eng.RegisterHandler(kindPingBench, func(s *SchedCtx, ev *Event) {
			if ev.Target != 0 {
				s.Wake(ev.Target, ev.Time, nil)
				return
			}
			pending++
			if waiting {
				waiting = false
				s.Wake(0, ev.Time, nil)
			}
		})
		if _, err := eng.Run(func(c *Ctx) {
			if c.Rank() != 0 {
				c.Emit(Event{Time: c.NowQuiet().Add(lookahead), Kind: kindPingBench, Target: 0})
				c.Block("release")
				return
			}
			for got := 0; got < vps-1; got++ {
				if pending == 0 {
					waiting = true
					c.Block("fan-in")
				}
				pending--
				c.Sleep(3 * lookahead)
			}
			for r := 1; r < vps; r++ {
				c.Emit(Event{Time: c.NowQuiet().Add(lookahead), Kind: kindPingBench, Target: r})
			}
		}); err != nil {
			b.Fatal(err)
		}
		rounds += eng.Metrics().BarrierRounds
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}
