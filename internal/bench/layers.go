package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"time"

	"xsim"
	"xsim/internal/checkpoint"
	"xsim/internal/core"
	"xsim/internal/fsmodel"
	"xsim/internal/jobstore"
	"xsim/internal/mpi"
	"xsim/internal/runner"
	"xsim/internal/service"
	"xsim/internal/trace"
	"xsim/internal/vclock"
)

// The per-layer drivers time calls into each layer's public functions
// from here, outside the layers: in-program tracing is a later change.
// Each returns host nanoseconds (or a rate) for a fixed, seed-independent
// amount of work; runLayers collects them under the names layerMetrics
// declares. The quick scale shrinks worlds, never the shape of the work.

// layerScale holds the sizes the drivers run at.
type layerScale struct {
	ranks4k, ranks32k, ranks64k int
	rounds                      int // ping-style repetitions
	steps                       int // exchange steps at 4k ranks
	iters                       int // modelled heat iterations
}

func scaleFor(quick bool) layerScale {
	if quick {
		return layerScale{ranks4k: 512, ranks32k: 512, ranks64k: 4096, rounds: 2000, steps: 5, iters: 100}
	}
	return layerScale{ranks4k: 4096, ranks32k: 32768, ranks64k: 65536, rounds: 100000, steps: 50, iters: 1000}
}

// best returns the shortest of n timings of f: the run least disturbed
// by the host.
func best(n int, f func() (time.Duration, error)) (time.Duration, error) {
	var min time.Duration
	for i := 0; i < n; i++ {
		d, err := f()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < min {
			min = d
		}
	}
	return min, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// settledMem collects twice, so the second cycle finishes sweeping what
// the first freed, and reads the heap.
func settledMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms
}

func perOp(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }

func runLayers(in inputs) (map[string]float64, error) {
	sc := scaleFor(in.Quick)
	out := make(map[string]float64)
	for _, group := range []func(layerScale, inputs, map[string]float64) error{
		coreLayers, mpiLayers, storageLayers, heatLayers, runnerLayers, serviceLayers, traceLayers,
	} {
		if err := group(sc, in, out); err != nil {
			return nil, err
		}
		runtime.GC()
	}
	return out, nil
}

// --- core ------------------------------------------------------------------

const kindPing = core.FirstUserKind

// registerPing installs the wake-the-target handler the bare-engine
// drivers use for their ping events.
func registerPing(eng *core.Engine) {
	eng.RegisterHandler(kindPing, func(s *core.SchedCtx, ev *core.Event) {
		if s.Alive(ev.Target) && s.Blocked(ev.Target) {
			s.Wake(ev.Target, ev.Time, nil)
		}
	})
}

// sleepProg parks on a timer left times: one event per park.
type sleepProg struct{ left int }

func (p *sleepProg) Step(c *core.Ctx, _ any) (any, bool) {
	if p.left == 0 {
		return nil, true
	}
	p.left--
	park, _ := c.SleepPark(vclock.Microsecond)
	return park, false
}

// exchangeProg pings peer, parks until it is pinged, and repeats. Rank
// order and equal clocks keep all ranks in lockstep, so a ping always
// finds its target parked. The answering side of a pair parks first and
// is done once it has sent its last ping.
type exchangeProg struct {
	peer, left int
	delay      vclock.Duration
	answer     bool
	started    bool
}

func (p *exchangeProg) Step(c *core.Ctx, _ any) (any, bool) {
	if p.answer && !p.started {
		p.started = true
		return "ping", false
	}
	if p.left == 0 {
		return nil, true
	}
	p.left--
	c.Emit(core.Event{Time: c.NowQuiet().Add(p.delay), Kind: kindPing, Target: p.peer})
	return "ping", p.answer && p.left == 0
}

type doneProg struct{}

func (doneProg) Step(*core.Ctx, any) (any, bool) { return nil, true }

func timeEngine(cfg core.Config, run func(*core.Engine) (*core.Result, error)) (time.Duration, error) {
	eng, err := core.New(cfg)
	if err != nil {
		return 0, err
	}
	registerPing(eng)
	t0 := time.Now()
	_, err = run(eng)
	return time.Since(t0), err
}

func coreLayers(sc layerScale, _ inputs, out map[string]float64) error {
	// Dispatch: ranks4k program VPs parking on a timer; every park is one
	// event through the heap and one step.
	sleeps := sc.iters / 4
	d, err := best(3, func() (time.Duration, error) {
		return timeEngine(core.Config{NumVPs: sc.ranks4k}, func(e *core.Engine) (*core.Result, error) {
			return e.RunPrograms(func(*core.Ctx) core.Program { return &sleepProg{left: sleeps} })
		})
	})
	if err != nil {
		return err
	}
	out["core.dispatch_ns_per_event"] = perOp(d, sc.ranks4k*sleeps)

	// Step: two program VPs pinging each other; one park/wake per step.
	d, err = best(3, func() (time.Duration, error) {
		return timeEngine(core.Config{NumVPs: 2}, func(e *core.Engine) (*core.Result, error) {
			return e.RunPrograms(func(c *core.Ctx) core.Program {
				return &exchangeProg{peer: 1 - c.Rank(), left: sc.rounds, delay: vclock.Microsecond, answer: c.Rank() == 1}
			})
		})
	})
	if err != nil {
		return err
	}
	out["core.step_ns"] = perOp(d, 2*sc.rounds)

	// Handoff: the same ping between two closure VPs; every block/wake is
	// a goroutine handoff. One operation is a round trip.
	var allocs uint64
	d, err = best(3, func() (time.Duration, error) {
		before := mallocs()
		d, err := timeEngine(core.Config{NumVPs: 2}, func(e *core.Engine) (*core.Result, error) {
			return e.Run(func(c *core.Ctx) {
				peer := 1 - c.Rank()
				for i := 0; i < sc.rounds; i++ {
					if c.Rank() == 1 {
						c.Block("ping")
					}
					c.Emit(core.Event{Time: c.NowQuiet().Add(vclock.Microsecond), Kind: kindPing, Target: peer})
					if c.Rank() == 0 {
						c.Block("pong")
					}
				}
			})
		})
		allocs = mallocs() - before
		return d, err
	})
	if err != nil {
		return err
	}
	out["core.handoff_ns"] = perOp(d, sc.rounds)
	// Building the engine allocates a fixed few dozen objects; per round
	// trip that rounds to the steady-state count.
	out["core.handoff_allocs"] = float64(allocs / uint64(sc.rounds))

	// Spawn: build, run and tear down ranks64k VPs that do nothing.
	for _, spawn := range []struct {
		mode string
		run  func(*core.Engine) (*core.Result, error)
	}{
		{"closure", func(e *core.Engine) (*core.Result, error) { return e.Run(func(*core.Ctx) {}) }},
		{"prog", func(e *core.Engine) (*core.Result, error) {
			return e.RunPrograms(func(*core.Ctx) core.Program { return doneProg{} })
		}},
	} {
		d, err := best(3, func() (time.Duration, error) {
			t0 := time.Now()
			eng, err := core.New(core.Config{NumVPs: sc.ranks64k})
			if err != nil {
				return 0, err
			}
			_, err = spawn.run(eng)
			return time.Since(t0), err
		})
		if err != nil {
			return err
		}
		out["core.spawn_ns_per_vp."+spawn.mode] = perOp(d, sc.ranks64k)
	}

	if runtime.GOMAXPROCS(0) < 2 {
		return nil // no parallel-engine numbers from one processor
	}
	// Parallel windows on the bare engine: a ring exchange (every rank
	// pings its right neighbour each round) at Workers 1 and 2.
	ring := func(workers int) (time.Duration, error) {
		return best(2, func() (time.Duration, error) {
			return timeEngine(core.Config{NumVPs: sc.ranks4k, Workers: workers, Lookahead: vclock.Microsecond},
				func(e *core.Engine) (*core.Result, error) {
					return e.RunPrograms(func(c *core.Ctx) core.Program {
						return &exchangeProg{peer: (c.Rank() + 1) % sc.ranks4k, left: 4 * sc.steps, delay: vclock.Microsecond}
					})
				})
		})
	}
	w1, err := ring(1)
	if err != nil {
		return err
	}
	w2, err := ring(2)
	if err != nil {
		return err
	}
	out["core.par_speedup_w2"] = w1.Seconds() / w2.Seconds()

	// The same question on the paper's workload: one Table II E1 run
	// (1,000 modelled iterations, one checkpoint round) at ranks32k.
	e1 := func(workers int) (time.Duration, error) {
		hc, err := xsim.HeatWorkloadFor(sc.ranks32k)
		if err != nil {
			return 0, err
		}
		hc.Iterations = sc.iters
		hc.ExchangeInterval, hc.CheckpointInterval = sc.iters, sc.iters
		sim, err := xsim.New(xsim.Config{Ranks: sc.ranks32k, Workers: workers, CallOverhead: xsim.PaperCallOverhead})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		res, err := sim.RunProgs(xsim.RunHeatProg(hc))
		if err == nil {
			err = res.Err()
		}
		return time.Since(t0), err
	}
	if w1, err = e1(1); err != nil {
		return err
	}
	if w2, err = e1(2); err != nil {
		return err
	}
	out["core.par_speedup_w2.table2"] = w1.Seconds() / w2.Seconds()
	return nil
}

// --- mpi -------------------------------------------------------------------

// smallEagerNet is the paper's network with a 1 KiB eager threshold, so a
// 4 KiB payload takes the rendezvous path without the drivers copying
// hundreds of kilobytes per message.
func smallEagerNet(n int) xsim.Config {
	net := xsim.DefaultNet(n)
	net.EagerThreshold = 1024
	return xsim.Config{Ranks: n, Net: net}
}

// runApp builds a world from cfg and times app (closure mode).
func runApp(cfg xsim.Config, app xsim.App) (time.Duration, error) {
	sim, err := xsim.New(cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := sim.Run(app)
	d := time.Since(t0)
	if err == nil {
		err = res.Err()
	}
	return d, err
}

// runProgs is runApp in program mode.
func runProgs(cfg xsim.Config, newProg func(rank int) xsim.Prog) (time.Duration, error) {
	sim, err := xsim.New(cfg)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	res, err := sim.RunProgs(newProg)
	d := time.Since(t0)
	if err == nil {
		err = res.Err()
	}
	return d, err
}

// appErr collects the first error an application body hits; bodies run
// one at a time on a sequential engine, so it needs no lock.
type appErr struct{ err error }

func (a *appErr) note(err error) {
	if err != nil && a.err == nil {
		a.err = err
	}
}

// pingPong times rounds payload round trips between two ranks and
// returns the time and heap objects allocated per round trip.
func pingPong(size, rounds int, tr *xsim.TraceBuffer) (ns float64, allocs float64, err error) {
	payload := make([]byte, size)
	var objs uint64
	d, err := best(3, func() (time.Duration, error) {
		cfg := smallEagerNet(2)
		cfg.Trace = tr
		var ae appErr
		before := mallocs()
		d, err := runApp(cfg, func(e *xsim.Env) {
			defer e.Finalize()
			c := e.World()
			for i := 0; i < rounds; i++ {
				if e.Rank() == 0 {
					ae.note(c.Send(1, 0, payload))
				}
				msg, err := c.Recv(1-e.Rank(), 0)
				ae.note(err)
				if e.Rank() == 1 {
					ae.note(c.Send(0, 0, payload))
				}
				msg.Release()
			}
		})
		objs = mallocs() - before
		if err == nil {
			err = ae.err
		}
		return d, err
	})
	return perOp(d, rounds), float64(objs) / float64(rounds), err
}

// torusNeighbours returns rank's six neighbours on a periodic side³ grid.
func torusNeighbours(rank, side int) [6]int {
	x, y, z := rank%side, rank/side%side, rank/(side*side)
	at := func(x, y, z int) int {
		return (x+side)%side + (y+side)%side*side + (z+side)%side*side*side
	}
	return [6]int{at(x-1, y, z), at(x+1, y, z), at(x, y-1, z), at(x, y+1, z), at(x, y, z-1), at(x, y, z+1)}
}

// cubeSide returns the side of the cube holding n ranks (n is 8³ or 16³).
func cubeSide(n int) int {
	side := 1
	for side*side*side < n {
		side++
	}
	return side
}

const haloBytes = 512

// haloProg is the six-neighbour exchange as a program: post six receives,
// send six faces, park until all arrived.
type haloProg struct {
	nb      [6]int
	steps   int
	waiting bool
	reqs    [6]*xsim.Request
	ws      xsim.WaitState
	ae      *appErr
}

func (p *haloProg) Step(e *xsim.Env, _ any) (any, bool) {
	c := e.World()
	for {
		if !p.waiting {
			if p.steps == 0 {
				e.Finalize()
				return nil, true
			}
			p.steps--
			for i, nb := range p.nb {
				r, err := c.Irecv(nb, 0)
				p.ae.note(err)
				p.reqs[i] = r
			}
			for _, nb := range p.nb {
				p.ae.note(c.SendN(nb, 0, haloBytes))
			}
			p.ws.Begin(p.reqs[:]...)
			p.waiting = true
		}
		done, park, err := c.WaitallStep(&p.ws)
		if !done {
			return park, false
		}
		p.ae.note(err)
		for _, r := range p.reqs {
			c.Free(r)
		}
		p.waiting = false
	}
}

// collectiveProg runs rounds barriers (or 8-double allreduces) as a
// program.
type collectiveProg struct {
	rounds    int
	allreduce bool
	armed     bool
	cs        xsim.CollectiveState
	ae        *appErr
}

var allreduceContrib = []float64{1, 2, 3, 4, 5, 6, 7, 8}

func (p *collectiveProg) Step(e *xsim.Env, _ any) (any, bool) {
	c := e.World()
	for {
		if !p.armed {
			if p.rounds == 0 {
				e.Finalize()
				return nil, true
			}
			p.rounds--
			if p.allreduce {
				p.cs.BeginAllreduce(allreduceContrib, xsim.OpSum)
			} else {
				p.cs.BeginBarrier()
			}
			p.armed = true
		}
		done, park, err := c.CollectiveStep(&p.cs)
		if !done {
			return park, false
		}
		p.ae.note(err)
		p.armed = false
	}
}

// sampledProg wraps rank 0's program and reads the settled heap on a few
// of its steps, keeping the largest: the mid-run footprint while every
// other rank is parked.
type sampledProg struct {
	inner xsim.Prog
	step  int
	peak  *uint64
}

func (p *sampledProg) Step(e *xsim.Env, wake any) (any, bool) {
	p.step++
	if p.step%2 == 0 && p.step <= 8 {
		if ms := settledMem(); ms.HeapInuse+ms.StackInuse > *p.peak {
			*p.peak = ms.HeapInuse + ms.StackInuse
		}
	}
	return p.inner.Step(e, wake)
}

func mpiLayers(sc layerScale, _ inputs, out map[string]float64) error {
	rounds := sc.rounds / 2
	var err error
	if out["mpi.pingpong_eager_ns"], out["mpi.pingpong_eager_allocs"], err = pingPong(64, rounds, nil); err != nil {
		return err
	}
	if out["mpi.pingpong_rdv_ns"], out["mpi.pingpong_rdv_allocs"], err = pingPong(4096, rounds, nil); err != nil {
		return err
	}

	// Wildcard matching: the receiver lets 1,024 messages pile up in its
	// unexpected queue, then drains them with fully wild receives.
	const depth = 1024
	storms := sc.rounds / 2000
	d, err := best(3, func() (time.Duration, error) {
		var ae appErr
		d, err := runApp(xsim.Config{Ranks: 2}, func(e *xsim.Env) {
			defer e.Finalize()
			c := e.World()
			for s := 0; s < storms; s++ {
				if e.Rank() == 0 {
					for m := 0; m < depth; m++ {
						ae.note(c.SendN(1, m%8, 16))
					}
					_, err := c.Recv(1, 100)
					ae.note(err)
				} else {
					e.Sleep(xsim.Millisecond)
					for m := 0; m < depth; m++ {
						msg, err := c.Recv(xsim.AnySource, xsim.AnyTag)
						ae.note(err)
						msg.Release()
					}
					ae.note(c.SendN(0, 100, 0))
				}
			}
		})
		if err == nil {
			err = ae.err
		}
		return d, err
	})
	if err != nil {
		return err
	}
	out["mpi.wildcard_match_ns"] = perOp(d, storms*depth)

	// Six-neighbour halo exchange at ranks4k, both modes.
	n, side := sc.ranks4k, cubeSide(sc.ranks4k)
	var ae appErr
	d, err = runApp(xsim.Config{Ranks: n}, func(e *xsim.Env) {
		defer e.Finalize()
		c := e.World()
		nb := torusNeighbours(e.Rank(), side)
		var reqs [6]*xsim.Request
		for s := 0; s < sc.steps; s++ {
			for i, peer := range nb {
				r, err := c.Irecv(peer, 0)
				ae.note(err)
				reqs[i] = r
			}
			for _, peer := range nb {
				ae.note(c.SendN(peer, 0, haloBytes))
			}
			ae.note(c.Waitall(reqs[:]))
			for _, r := range reqs {
				c.Free(r)
			}
		}
	})
	if err == nil {
		err = ae.err
	}
	if err != nil {
		return err
	}
	out["mpi.halo_step_ns_per_rank.closure"] = perOp(d, n*sc.steps)
	d, err = runProgs(xsim.Config{Ranks: n}, func(rank int) xsim.Prog {
		return &haloProg{nb: torusNeighbours(rank, side), steps: sc.steps, ae: &ae}
	})
	if err == nil {
		err = ae.err
	}
	if err != nil {
		return err
	}
	out["mpi.halo_step_ns_per_rank.prog"] = perOp(d, n*sc.steps)
	out["mpi.msgs_per_s.prog"] = float64(6*n*sc.steps) / d.Seconds()

	// Collectives at ranks4k: the paper's linear barrier and the tree
	// allreduce, through Comm and through CollectiveState.
	collRounds := sc.steps / 5
	for _, coll := range []struct {
		name      string
		allreduce bool
		algo      mpi.CollectiveAlgo
	}{
		{"mpi.barrier_ns_per_rank", false, 0},
		{"mpi.allreduce_tree_ns_per_rank", true, mpi.Tree},
	} {
		cfg := xsim.Config{Ranks: n, Collectives: coll.algo, CallOverhead: xsim.PaperCallOverhead}
		d, err = runApp(cfg, func(e *xsim.Env) {
			defer e.Finalize()
			for r := 0; r < collRounds; r++ {
				if coll.allreduce {
					_, err := e.World().Allreduce(allreduceContrib, xsim.OpSum)
					ae.note(err)
				} else {
					ae.note(e.World().Barrier())
				}
			}
		})
		if err == nil {
			err = ae.err
		}
		if err != nil {
			return err
		}
		out[coll.name+".closure"] = perOp(d, n*collRounds)
		d, err = runProgs(cfg, func(int) xsim.Prog {
			return &collectiveProg{rounds: collRounds, allreduce: coll.allreduce, ae: &ae}
		})
		if err == nil {
			err = ae.err
		}
		if err != nil {
			return err
		}
		out[coll.name+".prog"] = perOp(d, n*collRounds)
	}

	// Footprint per VP: the checkpointing heat loop (2³ points per rank,
	// halo exchange, 1 MiB modelled checkpoint, tree barrier and delete
	// every second iteration, four iterations) at ranks64k program ranks.
	n = sc.ranks64k
	hc, err := xsim.HeatWorkloadFor(n)
	if err != nil {
		return err
	}
	hc.NX, hc.NY, hc.NZ = 2*hc.PX, 2*hc.PY, 2*hc.PZ
	hc.Iterations, hc.ExchangeInterval, hc.CheckpointInterval = 4, 2, 2
	hc.CheckpointPayload = 1 << 20
	before := settledMem()
	sim, err := xsim.New(xsim.Config{Ranks: n, Collectives: mpi.Tree})
	if err != nil {
		return err
	}
	peak := before.HeapInuse + before.StackInuse
	newProg := xsim.RunHeatProg(hc)
	res, err := sim.RunProgs(func(rank int) xsim.Prog {
		if rank == 0 {
			return &sampledProg{inner: newProg(0), peak: &peak}
		}
		return newProg(rank)
	})
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		return err
	}
	after := settledMem()
	out["mpi.bytes_per_vp_peak"] = float64(peak-(before.HeapInuse+before.StackInuse)) / float64(n)
	out["mpi.bytes_per_vp_retained"] = float64(int64(after.HeapAlloc+after.StackInuse)-int64(before.HeapAlloc+before.StackInuse)) / float64(n)
	runtime.KeepAlive(sim)
	return nil
}

// --- checkpoint and fsmodel ------------------------------------------------

func storageLayers(sc layerScale, _ inputs, out map[string]float64) error {
	// 64 ranks each write, read back and delete 1 MiB modelled checkpoints
	// through the tiered hierarchy. The calls only advance virtual clocks
	// (the hour of idling lets every drain land, so no read waits), so a
	// host-time stopwatch around each call times that call alone.
	const ranks, perRank = 64, 50
	var write, read, del time.Duration
	var ae appErr
	_, err := runApp(xsim.Config{Ranks: ranks, FSHierarchy: xsim.PaperTieredFS()}, func(e *xsim.Env) {
		defer e.Finalize()
		fs, err := xsim.NewCheckpointFS(e)
		if err != nil {
			ae.note(err)
			return
		}
		for it := 1; it <= perRank; it++ {
			t0 := time.Now()
			err := fs.WriteSized("layer", xsim.CheckpointMeta{Iteration: it, Rank: e.Rank()}, 1<<20)
			write += time.Since(t0)
			ae.note(err)
		}
		e.Elapse(xsim.Hour)
		for it := 1; it <= perRank; it++ {
			t0 := time.Now()
			err := fs.ChargeRestore("layer", e.Rank(), it)
			read += time.Since(t0)
			ae.note(err)
		}
		for it := 1; it <= perRank; it++ {
			t0 := time.Now()
			fs.Delete("layer", it, e.Rank())
			del += time.Since(t0)
		}
	})
	if err == nil {
		err = ae.err
	}
	if err != nil {
		return err
	}
	out["checkpoint.write_us"] = perOp(write, ranks*perRank) / 1e3
	out["checkpoint.read_us"] = perOp(read, ranks*perRank) / 1e3
	out["checkpoint.delete_us"] = perOp(del, ranks*perRank) / 1e3

	// Newest-complete-set scan, as the restart cleanup does it: ranks32k
	// ranks × 8 generations, every set complete.
	const generations = 8
	store := xsim.NewStore()
	_, err = runApp(xsim.Config{Ranks: 1, Store: store}, func(e *xsim.Env) {
		defer e.Finalize()
		fs, err := xsim.NewCheckpointFS(e)
		if err != nil {
			ae.note(err)
			return
		}
		for it := 1; it <= generations; it++ {
			for r := 0; r < sc.ranks32k; r++ {
				ae.note(fs.WriteSized("scan", xsim.CheckpointMeta{Iteration: it, Rank: r}, 1<<20))
			}
		}
	})
	if err == nil {
		err = ae.err
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	removed := checkpoint.CleanIncompleteSets(store, "scan", sc.ranks32k)
	out["checkpoint.latest_scan_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	if len(removed) != 0 {
		return fmt.Errorf("bench: scan removed complete checkpoint sets %v", removed)
	}

	// Codec: encode and decode real 1 MiB payloads.
	const codecRounds = 32
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	d, err := runApp(xsim.Config{Ranks: 1}, func(e *xsim.Env) {
		defer e.Finalize()
		fs, err := xsim.NewCheckpointFS(e)
		if err != nil {
			ae.note(err)
			return
		}
		for it := 1; it <= codecRounds; it++ {
			ae.note(fs.Write("codec", xsim.CheckpointMeta{Iteration: it}, payload))
			_, got, err := fs.Read("codec", it, 0)
			ae.note(err)
			if err == nil && len(got) != len(payload) {
				ae.note(fmt.Errorf("bench: codec read back %d of %d bytes", len(got), len(payload)))
			}
			fs.Delete("codec", it, 0)
		}
	})
	if err == nil {
		err = ae.err
	}
	if err != nil {
		return err
	}
	out["checkpoint.codec_mb_per_s"] = float64(2*codecRounds*len(payload)) / 1e6 / d.Seconds()

	// fsmodel directly.
	const files = 1 << 16
	names := make([]string, files)
	for i := range names {
		names[i] = checkpoint.FileName("fs", i/64, i%64)
	}
	raw := fsmodel.NewStore()
	writers := make([]*fsmodel.Writer, files)
	t0 = time.Now()
	for i, name := range names {
		writers[i] = raw.CreateAt(name, 0, i%64, 4096)
	}
	out["fsmodel.create_ns"] = perOp(time.Since(t0), files)

	// One tiered commit: publish the file, then schedule its drains to
	// the two deeper tiers.
	header := make([]byte, 48)
	t0 = time.Now()
	for i, w := range writers {
		if _, err := w.Write(header); err != nil {
			return err
		}
		if err := w.Commit(); err != nil {
			return err
		}
		raw.AddDrain(names[i], 1, vclock.Time(i))
		raw.AddDrain(names[i], 2, vclock.Time(2*i))
	}
	out["fsmodel.tiered_commit_ns"] = perOp(time.Since(t0), files)

	block := make([]byte, 4096)
	const appendFiles, appendBlocks = 256, 256
	d, err = best(3, func() (time.Duration, error) {
		t0 := time.Now()
		for f := 0; f < appendFiles; f++ {
			w := raw.Create(names[f])
			for b := 0; b < appendBlocks; b++ {
				if _, err := w.Write(block); err != nil {
					return 0, err
				}
			}
			if err := w.Commit(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	out["fsmodel.writer_append_mb_per_s"] = float64(appendFiles*appendBlocks*len(block)) / 1e6 / d.Seconds()
	return nil
}

// --- heat and xsim ---------------------------------------------------------

func heatLayers(sc layerScale, _ inputs, out map[string]float64) error {
	// Modelled compute with no communication until the final round:
	// Env.Compute → procmodel → vclock, ranks4k × iters times.
	hc, err := xsim.HeatWorkloadFor(sc.ranks4k)
	if err != nil {
		return err
	}
	hc.Iterations = sc.iters
	hc.ExchangeInterval, hc.CheckpointInterval = sc.iters, sc.iters
	d, err := best(2, func() (time.Duration, error) {
		return runProgs(xsim.Config{Ranks: sc.ranks4k}, xsim.RunHeatProg(hc))
	})
	if err != nil {
		return err
	}
	out["heat.compute_iter_ns"] = perOp(d, sc.ranks4k*sc.iters)

	d, err = best(3, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := xsim.New(xsim.Config{Ranks: 32768})
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	out["xsim.new_ms_32k"] = float64(d.Nanoseconds()) / 1e6
	return nil
}

// --- runner ----------------------------------------------------------------

// spin burns a fixed amount of CPU.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

func runnerLayers(sc layerScale, _ inputs, out map[string]float64) error {
	pool := func(pool, tasks, work int) (time.Duration, error) {
		ts := make([]runner.Task[float64], tasks)
		for i := range ts {
			ts[i] = runner.Task[float64]{
				Spec: runner.Spec{Index: i},
				Run:  func(context.Context) (float64, error) { return spin(work), nil },
			}
		}
		t0 := time.Now()
		_, _, err := runner.Run(context.Background(), runner.Config{Pool: pool}, ts)
		return time.Since(t0), err
	}
	noops := sc.rounds / 10
	d, err := best(3, func() (time.Duration, error) { return pool(2, noops, 0) })
	if err != nil {
		return err
	}
	out["runner.task_overhead_us"] = perOp(d, noops) / 1e3

	if runtime.GOMAXPROCS(0) < 2 {
		return nil
	}
	work := 40 * sc.rounds // ~10 ms per task at the full scale
	p1, err := best(2, func() (time.Duration, error) { return pool(1, 16, work) })
	if err != nil {
		return err
	}
	p2, err := best(2, func() (time.Duration, error) { return pool(2, 16, work) })
	if err != nil {
		return err
	}
	out["runner.pool_speedup_p2"] = p1.Seconds() / p2.Seconds()
	return nil
}

// --- wire, jobstore and service --------------------------------------------

func serviceLayers(sc layerScale, in inputs, out map[string]float64) error {
	// wire: mean over the served workload's distinct specs.
	specs := serviceSpecs(in.Seed, in.Quick)
	docs := make([][]byte, len(specs))
	for i, s := range specs {
		var err error
		if docs[i], err = json.Marshal(s); err != nil {
			return err
		}
	}
	const wireRounds = 20
	t0 := time.Now()
	for r := 0; r < wireRounds; r++ {
		for _, doc := range docs {
			s, err := xsim.DecodeCampaignSpec(doc)
			if err == nil {
				err = s.Validate()
			}
			if err != nil {
				return err
			}
		}
	}
	out["wire.decode_validate_us"] = perOp(time.Since(t0), wireRounds*len(docs)) / 1e3
	t0 = time.Now()
	for r := 0; r < wireRounds; r++ {
		for _, s := range specs {
			if _, err := s.Canonical(); err != nil {
				return err
			}
		}
	}
	out["wire.canonical_us"] = perOp(time.Since(t0), wireRounds*len(specs)) / 1e3

	// Direct runs of the quick-scale specs give outcomes to encode and
	// the baseline the served cold latency is compared with.
	small := serviceSpecs(in.Seed, true)
	direct := make([]time.Duration, len(small))
	outcomes := make([]*xsim.CampaignOutcome, len(small))
	for i, s := range small {
		t0 := time.Now()
		o, err := s.RunWith(context.Background(), xsim.RunOptions{})
		direct[i] = time.Since(t0)
		if err != nil {
			return err
		}
		outcomes[i] = o
	}
	t0 = time.Now()
	for r := 0; r < wireRounds; r++ {
		for _, o := range outcomes {
			if _, err := o.Canonical(); err != nil {
				return err
			}
		}
	}
	out["wire.outcome_canonical_us"] = perOp(time.Since(t0), wireRounds*len(outcomes)) / 1e3

	// jobstore: 4 KiB results under 1,000 keys.
	dir, err := os.MkdirTemp(in.Scratch, "layers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := jobstore.NewDir(dir)
	if err != nil {
		return err
	}
	const keys = 1000
	result := make([]byte, 4096)
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("%064x", k)
	}
	for _, st := range []struct {
		name  string
		store jobstore.Store
	}{{"mem", jobstore.NewMem()}, {"dir", disk}} {
		t0 := time.Now()
		for _, key := range names {
			if err := st.store.Put(key, result); err != nil {
				return err
			}
		}
		out["jobstore."+st.name+"_put_us"] = perOp(time.Since(t0), keys) / 1e3
		t0 = time.Now()
		for _, key := range names {
			if _, ok, err := st.store.Get(key); err != nil || !ok {
				return fmt.Errorf("bench: jobstore %s lost key %.8s…: %v", st.name, key, err)
			}
		}
		out["jobstore."+st.name+"_get_us"] = perOp(time.Since(t0), keys) / 1e3
	}

	// service: cold and cached submissions, in process and over HTTP.
	svc := service.New(service.Config{Workers: 1, Store: disk})
	srv := httptest.NewServer(svc.Handler())
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Drain(ctx) // idle by now; Drain only stops the executor
	}()
	client := &serviceClient{base: srv.URL, http: &http.Client{}}
	var overhead time.Duration
	smallDocs := make([][]byte, len(small))
	for i, s := range small {
		if smallDocs[i], err = json.Marshal(s); err != nil {
			return err
		}
		_, _, lat, err := client.roundTrip(-1, smallDocs[i])
		if err != nil {
			return err
		}
		overhead += lat - direct[i]
	}
	out["service.cold_overhead_ms"] = float64(overhead.Nanoseconds()) / 1e6 / float64(len(small))

	hits := sc.rounds / 50
	t0 = time.Now()
	for h := 0; h < hits; h++ {
		st, err := svc.Submit("", small[h%len(small)])
		if err != nil {
			return err
		}
		if _, ok, err := svc.Result(st.ID); err != nil || !ok {
			return fmt.Errorf("bench: cached submission %s has no result: %v", st.ID, err)
		}
	}
	submitHit := perOp(time.Since(t0), hits) / 1e3
	out["service.submit_hit_us"] = submitHit
	lats := make([]float64, 0, hits/4)
	for h := 0; h < hits/4; h++ {
		_, _, lat, err := client.roundTrip(-1, smallDocs[h%len(small)])
		if err != nil {
			return err
		}
		lats = append(lats, float64(lat.Nanoseconds())/1e3)
	}
	sort.Float64s(lats)
	out["service.http_overhead_us"] = lats[len(lats)/2] - submitHit
	return nil
}

// --- trace -----------------------------------------------------------------

func traceLayers(sc layerScale, _ inputs, out map[string]float64) error {
	buf := trace.New(1 << 16)
	records := 10 * sc.rounds
	t0 := time.Now()
	for i := 0; i < records; i++ {
		buf.Record(trace.Event{At: vclock.Time(i), Rank: int32(i & 63), Peer: 1, Kind: trace.KindSend, Size: 64})
	}
	out["trace.record_ns"] = perOp(time.Since(t0), records)

	// "Zero cost when off": the eager ping-pong with a trace buffer
	// attached against the same run without one.
	rounds := sc.rounds / 2
	plain, _, err := pingPong(64, rounds, nil)
	if err != nil {
		return err
	}
	traced, _, err := pingPong(64, rounds, xsim.NewTrace(1<<16))
	if err != nil {
		return err
	}
	out["trace.pingpong_overhead_share"] = (traced - plain) / plain
	return nil
}
