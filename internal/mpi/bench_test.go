package mpi

import (
	"fmt"
	"testing"

	"xsim/internal/core"
	"xsim/internal/procmodel"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// benchWorld builds an n-rank world for benchmarking.
func benchWorld(b *testing.B, n int) *World {
	b.Helper()
	eng, err := core.New(core.Config{NumVPs: n})
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{Net: testNet(n), Proc: procmodel.Paper()})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkSendRecv measures simulated point-to-point throughput through
// the full stack (matching, protocol selection, virtual-time accounting).
func BenchmarkSendRecv(b *testing.B) {
	msgs := b.N
	w := benchWorld(b, 2)
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		for i := 0; i < msgs; i++ {
			if e.Rank() == 0 {
				if err := c.SendN(1, 0, 64); err != nil {
					b.Error(err)
				}
			} else {
				if _, err := c.Recv(0, 0); err != nil {
					b.Error(err)
				}
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendRecvTraced is BenchmarkSendRecv with a tracer attached:
// the delta against the untraced run is the tracer's per-operation cost
// through the full stack (each send/recv pair records several events).
func BenchmarkSendRecvTraced(b *testing.B) {
	msgs := b.N
	eng, err := core.New(core.Config{NumVPs: 2})
	if err != nil {
		b.Fatal(err)
	}
	w, err := NewWorld(eng, WorldConfig{
		Net:    testNet(2),
		Proc:   procmodel.Paper(),
		Tracer: trace.New(1 << 16),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		for i := 0; i < msgs; i++ {
			if e.Rank() == 0 {
				if err := c.SendN(1, 0, 64); err != nil {
					b.Error(err)
				}
			} else {
				if _, err := c.Recv(0, 0); err != nil {
					b.Error(err)
				}
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier measures the linear barrier at several scales (one
// barrier per iteration). The program-mode row is the paper's checkpoint
// barrier at 32,768 ranks, whose root receives one message from each
// rank, most of them unexpected: ns/arrival is the whole world's time per
// message the root takes in.
func BenchmarkBarrier(b *testing.B) {
	b.Run("prog/ranks=32768", func(b *testing.B) {
		const n = 32768
		rounds := b.N
		w := benchWorld(b, n)
		b.ReportAllocs()
		b.ResetTimer()
		if _, err := w.RunProgs(func(int) Prog { return &barrierRank{rounds: rounds} }); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds*(n-1)), "ns/arrival")
	})
	for _, n := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("ranks=%d", n), func(b *testing.B) {
			rounds := b.N
			w := benchWorld(b, n)
			b.ResetTimer()
			if _, err := w.Run(func(e *Env) {
				defer e.Finalize()
				for i := 0; i < rounds; i++ {
					if err := e.World().Barrier(); err != nil {
						b.Error(err)
					}
				}
			}); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// barrierRank runs rounds world barriers as a program VP.
type barrierRank struct {
	rounds int
	begun  bool
	cs     CollectiveState
}

func (p *barrierRank) Step(e *Env, _ any) (any, bool) {
	for ; p.rounds > 0; p.rounds-- {
		if !p.begun {
			p.cs.BeginBarrier()
			p.begun = true
		}
		done, park, err := e.World().CollectiveStep(&p.cs)
		if !done {
			return park, false
		}
		if err != nil {
			panic(err)
		}
		p.begun = false
	}
	e.Finalize()
	return nil, true
}

// BenchmarkUnexpectedMatching measures the indexed unexpected-queue path:
// many queued envelopes, receives posted afterwards.
func BenchmarkUnexpectedMatching(b *testing.B) {
	const queued = 512
	iters := b.N
	w := benchWorld(b, 2)
	b.ResetTimer()
	if _, err := w.Run(func(e *Env) {
		defer e.Finalize()
		c := e.World()
		for i := 0; i < iters; i++ {
			if e.Rank() == 0 {
				for m := 0; m < queued; m++ {
					if _, err := c.IsendN(1, m%8, 16); err != nil {
						b.Error(err)
					}
				}
				// Per-iteration ack keeps the unexpected queue bounded.
				if _, err := c.Recv(1, 100); err != nil {
					b.Error(err)
				}
			} else {
				e.Sleep(vclock.Millisecond)
				for m := 0; m < queued; m++ {
					if _, err := c.Recv(0, m%8); err != nil {
						b.Error(err)
					}
				}
				if err := c.SendN(0, 100, 0); err != nil {
					b.Error(err)
				}
			}
		}
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(queued*iters)/b.Elapsed().Seconds(), "matches/s")
}
