package heat

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// benchGrids maps a rank count to its process grid and global grid
// (2×2×2 points per rank, so modelled state stays tiny and the measured
// footprint is the simulator's own cost, not the workload's).
var benchGrids = map[int]struct{ px, py, pz, nx, ny, nz int }{
	4096:    {16, 16, 16, 32, 32, 32},
	65536:   {64, 64, 16, 128, 128, 32},
	262144:  {64, 64, 64, 128, 128, 128},
	1048576: {128, 128, 64, 256, 256, 128},
}

// benchConfig is the checkpointing scale workload, shaped like the
// paper's Table II loop: modelled compute every iteration, and a halo
// exchange, 1 MiB modelled checkpoint, global barrier, and checkpoint
// delete every CheckpointInterval — two full checkpoint rounds over four
// iterations. ms samples twice. Its burst sample is taken inside the first
// halo exchange, when the last rank has posted its receives and sends and
// every message of the all-ranks burst is in flight. Its mid sample is
// taken by rank 0 at the start of iteration 3, right after it leaves the
// first checkpoint's barrier, when every other rank is parked inside it —
// the steady state between checkpoint rounds, with the exchanges drained.
func benchConfig(n int, ms *memSampler) Config {
	g, ok := benchGrids[n]
	if !ok {
		panic(fmt.Sprintf("heat bench: no grid for %d ranks", n))
	}
	return Config{
		NX: g.nx, NY: g.ny, NZ: g.nz,
		PX: g.px, PY: g.py, PZ: g.pz,
		Iterations:         4,
		ExchangeInterval:   2,
		CheckpointInterval: 2,
		PointCost:          1000,
		CheckpointPayload:  1 << 20,
		onPhase: func(rank, iter int) {
			if rank == 0 && iter == 3 {
				settle(&ms.mid)
			}
		},
		// The world runs on one partition, so the ranks post one at a time.
		onHaloPosted: func(int) {
			if ms.posted++; ms.posted == n {
				settle(&ms.burst)
			}
		},
	}
}

// benchWorld builds a world sized for the scale benchmarks: tree
// collectives (the barrier per iteration must not be O(n)) and an
// in-memory checkpoint store with the free I/O model.
func benchWorld(b testing.TB, n int) *mpi.World {
	b.Helper()
	eng, err := core.New(core.Config{NumVPs: n})
	if err != nil {
		b.Fatal(err)
	}
	net := &netmodel.Model{
		Topo:           topology.NewFullyConnected(n),
		System:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		OnNode:         netmodel.LinkParams{Latency: vclock.Microsecond, Bandwidth: 1e9, DetectionTimeout: 10 * vclock.Millisecond},
		EagerThreshold: 256 * 1024,
	}
	w, err := mpi.NewWorld(eng, mpi.WorldConfig{
		Net: net, Proc: fastProc,
		FSStore:     fsmodel.NewStore(),
		Collectives: mpi.Tree,
	})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// memSampler reads the baseline before the world is built; the mid-run
// samples (taken from a rank while all others are parked) record the live
// heap+stack after a GC. The delta is the simulation's resident footprint
// — in closure mode it includes every parked rank's goroutine stack, in
// program mode only the parked state machines.
type memSampler struct {
	before, burst, mid, after runtime.MemStats
	// posted counts the halo exchanges posted so far, over all ranks.
	posted int
}

// settle runs two collections so the second cycle finishes sweeping the
// first cycle's garbage: after one GC, HeapInuse still counts lazily
// swept spans and overstates the live footprint.
func settle(into *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(into)
}

func (m *memSampler) baseline() { settle(&m.before) }

// final records the post-run footprint (world and checkpoint store still
// live): the retained cost once every rank has finished — the accounting
// the ci.sh memory gates use, matching mpi.BenchmarkBytesPerVP.
func (m *memSampler) final() { settle(&m.after) }

// inusePerVP is the growth of heap spans plus goroutine stacks
// (HeapInuse + StackInuse) from the baseline to a mid-run sample. Spans
// count whole 8 KiB pages, so this includes the allocator geometry the
// simulation occupies while it runs — the honest "does it fit in RAM"
// number. At the burst sample it is the halo exchange's peak (burstPerVP);
// at the mid sample, the footprint between checkpoint rounds (bytesPerVP),
// which still holds the spans the drained burst left behind.
func (m *memSampler) inusePerVP(at *runtime.MemStats, n int) float64 {
	grew := (at.HeapInuse + at.StackInuse) - (m.before.HeapInuse + m.before.StackInuse)
	return float64(grew) / float64(n)
}

func (m *memSampler) burstPerVP(n int) float64 { return m.inusePerVP(&m.burst, n) }

func (m *memSampler) bytesPerVP(n int) float64 { return m.inusePerVP(&m.mid, n) }

// retainedPerVP is the post-run live footprint: reachable bytes plus
// stacks (HeapAlloc + StackInuse). It deliberately excludes span
// geometry — after a run, partially-filled spans pinned by the halo
// exchange's request churn are reusable capacity for the next
// simulation, not per-rank state — so this is the number that scales
// with the rank count and the one the ci.sh gate holds.
func (m *memSampler) retainedPerVP(n int) float64 {
	grew := (m.after.HeapAlloc + m.after.StackInuse) - (m.before.HeapAlloc + m.before.StackInuse)
	return float64(grew) / float64(n)
}

// BenchmarkHeatCkptBytesPerVP measures the per-rank resident memory and
// throughput of the checkpointing heat workload, closure vs program
// mode. ci.sh gates the program-mode 262144-rank point: it must stay
// within the memory budget that makes the 256k–1M experiments feasible.
func BenchmarkHeatCkptBytesPerVP(b *testing.B) {
	const iters = 4
	measure := func(b *testing.B, n int, run func(w *mpi.World, cfg Config) error) {
		for i := 0; i < b.N; i++ {
			var ms memSampler
			cfg := benchConfig(n, &ms)
			ms.baseline()
			w := benchWorld(b, n)
			start := b.Elapsed()
			if err := run(w, cfg); err != nil {
				b.Fatal(err)
			}
			elapsed := (b.Elapsed() - start).Seconds()
			ms.final()
			b.ReportMetric(ms.burstPerVP(n), "burst-bytes/vp")
			b.ReportMetric(ms.bytesPerVP(n), "bytes/vp")
			b.ReportMetric(ms.retainedPerVP(n), "retained-bytes/vp")
			b.ReportMetric(float64(n)*float64(iters)/elapsed, "rankstep/s")
			runtime.KeepAlive(w)
		}
	}
	for _, n := range []int{4096, 65536} {
		n := n
		b.Run(fmt.Sprintf("closure/ranks=%d", n), func(b *testing.B) {
			measure(b, n, func(w *mpi.World, cfg Config) error {
				_, err := w.Run(func(e *mpi.Env) { Run(e, &cfg) })
				return err
			})
		})
	}
	for _, n := range []int{4096, 65536, 262144, 1048576} {
		n := n
		b.Run(fmt.Sprintf("prog/ranks=%d", n), func(b *testing.B) {
			measure(b, n, func(w *mpi.World, cfg Config) error {
				_, err := w.RunProgs(NewProg(cfg))
				return err
			})
		})
	}
}

// runOutOfLine is Run called through a variable, so that Run keeps the
// frame it has when the workload calls it from another package
// (xsim.RunHeat), where it is not inlined; inlined, it would make every
// carrier 184 bytes shallower than the workload's.
var runOutOfLine = Run

// BenchmarkHaloStackPerVP measures the goroutine stack a closure-mode rank
// holds mid-run, in the shape of the xsim-bench halo-16k-closure workload:
// the paper's workload on its torus network at 16,384 ranks (32×32×16),
// exchanging halos every iteration. A rank's carrier stack is sized by the
// deepest call the rank ever makes, and the send path (Isend → Ctx.Emit →
// route → the event queue's push) runs a few hundred bytes above the
// point where the runtime doubles a 4 KiB stack — for every rank at once,
// +64 MiB at this scale. ci.sh gates stack-bytes/vp: the StackInuse growth
// over the rank count, read at rank 0's third compute phase, when every
// rank has sent. No collection runs until the read, forced or not: one
// shrinks the stacks of ranks parked shallow, so a reading after it would
// depend on when it ran.
func BenchmarkHaloStackPerVP(b *testing.B) {
	const px, py, pz = 32, 32, 16
	const n = px * py * pz
	b.Run(fmt.Sprintf("closure/ranks=%d", n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var before, mid runtime.MemStats
			cfg := PaperWorkload()
			cfg.PX, cfg.PY, cfg.PZ = px, py, pz
			cfg.NX, cfg.NY, cfg.NZ = 16*px, 16*py, 16*pz
			cfg.Iterations, cfg.ExchangeInterval, cfg.CheckpointInterval = 4, 1, 4
			cfg.onPhase = func(rank, iter int) {
				if rank == 0 && iter == 3 {
					runtime.ReadMemStats(&mid)
				}
			}
			settle(&before)
			gc := debug.SetGCPercent(-1)
			eng, err := core.New(core.Config{NumVPs: n})
			if err != nil {
				b.Fatal(err)
			}
			net := netmodel.Paper()
			net.Topo = topology.NewTorus3D(px, py, pz)
			w, err := mpi.NewWorld(eng, mpi.WorldConfig{
				Net: net, Proc: procmodel.Paper(), FSStore: fsmodel.NewStore(),
				CallOverhead: 2900 * vclock.Microsecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			_, err = w.Run(func(e *mpi.Env) { runOutOfLine(e, &cfg) })
			debug.SetGCPercent(gc)
			if err != nil {
				b.Fatal(err)
			}
			if mid.StackInuse == 0 {
				b.Fatal("rank 0 never reached its third compute phase")
			}
			b.ReportMetric(float64(mid.StackInuse-before.StackInuse)/n, "stack-bytes/vp")
		}
	})
}
