package mpi

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkPingPong measures a full payload round-trip between two ranks:
// rank 0 sends, rank 1 receives and echoes, rank 0 receives. One iteration
// is one round-trip. The eager case stays under testNet's 1 KiB threshold;
// the rendezvous case goes through the envelope/CTS/data exchange. Both
// are the data plane's allocation hot path, so allocs/op is the headline
// number (ci.sh gates it).
func BenchmarkPingPong(b *testing.B) {
	for _, bc := range []struct {
		name string
		size int
	}{
		{"eager", 64},
		{"rendezvous", 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rounds := b.N
			w := benchWorld(b, 2)
			payload := make([]byte, bc.size)
			for i := range payload {
				payload[i] = byte(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := w.Run(func(e *Env) {
				defer e.Finalize()
				c := e.World()
				for i := 0; i < rounds; i++ {
					if e.Rank() == 0 {
						if err := c.Send(1, 0, payload); err != nil {
							b.Error(err)
						}
						msg, err := c.Recv(1, 0)
						if err != nil {
							b.Error(err)
						}
						msg.Release()
					} else {
						msg, err := c.Recv(0, 0)
						if err != nil {
							b.Error(err)
						}
						if err := c.Send(0, 0, payload); err != nil {
							b.Error(err)
						}
						msg.Release()
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures the linear allreduce (reduce to 0 plus
// broadcast) with an 8-double contribution across 16 ranks — the
// encode/decode scratch path in the collectives.
func BenchmarkAllreduce(b *testing.B) {
	const n = 16
	rounds := b.N
	w := benchWorld(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		contrib := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		for i := 0; i < rounds; i++ {
			if _, err := e.World().Allreduce(contrib, OpSum); err != nil {
				b.Error(err)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWildcardStorm measures MPI_ANY_SOURCE matching under pressure:
// several senders flood one receiver, which drains everything with fully
// wild receives. One iteration is one message received.
func BenchmarkWildcardStorm(b *testing.B) {
	const senders = 4
	total := b.N
	w := benchWorld(b, senders+1)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		if e.Rank() == senders {
			for i := 0; i < total; i++ {
				msg, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					b.Error(err)
				}
				msg.Release()
			}
			return
		}
		share := total / senders
		if e.Rank() < total%senders {
			share++
		}
		for i := 0; i < share; i++ {
			if err := c.SendN(senders, i%8, 32); err != nil {
				b.Error(err)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHeatStep runs one Jacobi-style halo exchange step over a 1-D
// ring of 4096 ranks per iteration: each rank exchanges a fixed-size halo
// with both neighbours (Irecv/Irecv/Send/Send/Waitall) and "computes".
// This is the oversubscription shape the paper targets: thousands of
// virtual processes per host, dominated by data-plane throughput.
func BenchmarkHeatStep(b *testing.B) {
	const n = 4096
	steps := b.N
	w := benchWorld(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		left := (e.Rank() + n - 1) % n
		right := (e.Rank() + 1) % n
		for i := 0; i < steps; i++ {
			rl, err := c.Irecv(left, 0)
			if err != nil {
				b.Error(err)
			}
			rr, err := c.Irecv(right, 0)
			if err != nil {
				b.Error(err)
			}
			if err := c.SendN(left, 0, 512); err != nil {
				b.Error(err)
			}
			if err := c.SendN(right, 0, 512); err != nil {
				b.Error(err)
			}
			if err := c.Waitall([]*Request{rl, rr}); err != nil {
				b.Error(err)
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(n)*float64(steps)/b.Elapsed().Seconds(), "rankstep/s")
}

// heatBenchProg is the program-mode heat step used by the scale
// benchmarks: the same Irecv/Irecv/SendN/SendN/Waitall shape as
// BenchmarkHeatStep, expressed as a parked state machine so ranks cost no
// goroutine and no stack. strides lists the ring distances of the
// neighbours, one (rank-s, rank+s) pair each: nil is the 1-D ring, three
// strides a 3-D stencil's six neighbours.
type heatBenchProg struct {
	n, steps int
	strides  []int
	step     int
	waiting  bool
	ws       WaitState
	recvs    [6]*Request
	fail     func(error)
}

func (p *heatBenchProg) Step(e *Env, wake any) (any, bool) {
	c := e.World()
	strides := p.strides
	if strides == nil {
		strides = ringStride
	}
	recvs := p.recvs[:2*len(strides)]
	for {
		if !p.waiting {
			if p.step == p.steps {
				p.ws.reqs = nil
				e.Finalize()
				return nil, true
			}
			var err error
			for i, s := range strides {
				if recvs[2*i], err = c.Irecv((e.Rank()+p.n-s)%p.n, 0); err != nil {
					p.fail(err)
				}
				if recvs[2*i+1], err = c.Irecv((e.Rank()+s)%p.n, 0); err != nil {
					p.fail(err)
				}
			}
			for _, s := range strides {
				if err := c.SendN((e.Rank()+p.n-s)%p.n, 0, 512); err != nil {
					p.fail(err)
				}
				if err := c.SendN((e.Rank()+s)%p.n, 0, 512); err != nil {
					p.fail(err)
				}
			}
			p.ws.Begin(recvs...)
			p.waiting = true
		}
		done, park, err := c.WaitallStep(&p.ws)
		if !done {
			return park, false
		}
		if err != nil {
			p.fail(err)
		}
		for i, r := range recvs {
			c.Free(r)
			recvs[i] = nil
		}
		p.waiting = false
		p.step++
	}
}

var ringStride = []int{1}

// BenchmarkHaloBurst is the deterministic gate on the all-ranks burst: a
// 16,384-rank world in program mode on one partition, every rank
// exchanging with six neighbours for eight steps, all of them posting at
// the same virtual instant. It reports host allocations per simulated
// message. A message matched on arrival is a queue slot and the receive's
// pooled request (an eager send's is the shared eagerSent), so the figure
// is what the ranks' own set-up costs spread over the traffic; the five
// objects per message it replaced read 4.2 here.
// ci.sh fails the build above 2.5.
func BenchmarkHaloBurst(b *testing.B) {
	const n, steps = 16384, 8
	strides := []int{1, 32, 1024} // a 32 x 32 x 16 periodic grid
	for i := 0; i < b.N; i++ {
		w := benchWorld(b, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := w.RunProgs(func(rank int) Prog {
			return &heatBenchProg{n: n, steps: steps, strides: strides, fail: func(err error) { b.Error(err) }}
		}); err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		msgs := w.Metrics().EagerMsgs
		if want := uint64(n * steps * 2 * len(strides)); msgs != want {
			b.Fatalf("%d eager messages, want %d", msgs, want)
		}
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "mallocs/msg")
	}
}

// BenchmarkHeatStepProg is BenchmarkHeatStep in program mode, swept to the
// million-rank scale the paper targets. One iteration is one exchange step
// across all n ranks; run with -benchtime=1x at the large sizes.
func BenchmarkHeatStepProg(b *testing.B) {
	for _, n := range []int{4096, 65536, 262144, 1048576} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			steps := b.N
			w := benchWorld(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			if _, err := w.RunProgs(func(rank int) Prog {
				return &heatBenchProg{n: n, steps: steps, fail: func(err error) { b.Error(err) }}
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(n)*float64(steps)/b.Elapsed().Seconds(), "rankstep/s")
		})
	}
}

// BenchmarkBytesPerVP measures the resident memory cost of one virtual
// process at oversubscription scale: it builds an n-rank world, runs one
// neighbour-exchange step so every VP has touched its data-plane state,
// and reports (heap+goroutine stack growth)/n. This is the paper's
// headline scaling dimension — how many virtual MPI processes fit on one
// host. The closure variant carries each rank on a (pooled) goroutine;
// the prog variant runs the same exchange as a parked state machine and
// is the configuration the ci.sh memory gate and the 1M-rank target use.
func BenchmarkBytesPerVP(b *testing.B) {
	measure := func(b *testing.B, n int, run func(w *World) error) {
		for i := 0; i < b.N; i++ {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			w := benchWorld(b, n)
			if err := run(w); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			grew := (after.HeapInuse + after.StackInuse) - (before.HeapInuse + before.StackInuse)
			b.ReportMetric(float64(grew)/float64(n), "bytes/vp")
			runtime.KeepAlive(w)
		}
	}
	for _, n := range []int{4096, 65536} {
		n := n
		b.Run(fmt.Sprintf("closure/ranks=%d", n), func(b *testing.B) {
			measure(b, n, func(w *World) error {
				_, err := w.Run(func(e *Env) {
					defer e.Finalize()
					c := e.World()
					right := (e.Rank() + 1) % n
					left := (e.Rank() + n - 1) % n
					r, err := c.Irecv(left, 0)
					if err != nil {
						b.Error(err)
					}
					if err := c.SendN(right, 0, 512); err != nil {
						b.Error(err)
					}
					if _, err := c.Wait(r); err != nil {
						b.Error(err)
					}
				})
				return err
			})
		})
	}
	for _, n := range []int{4096, 65536, 262144, 1048576} {
		n := n
		b.Run(fmt.Sprintf("prog/ranks=%d", n), func(b *testing.B) {
			measure(b, n, func(w *World) error {
				_, err := w.RunProgs(func(rank int) Prog {
					return &heatBenchProg{n: n, steps: 1, fail: func(err error) { b.Error(err) }}
				})
				return err
			})
		})
	}
}
