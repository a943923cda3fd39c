// Package xsim is a simulation-based performance/resilience investigation
// toolkit for hardware/software co-design of high-performance computing
// systems — a from-scratch Go reproduction of the system described in
// "Toward a Performance/Resilience Tool for Hardware/Software Co-Design of
// High-Performance Computing Systems" (Engelmann & Naughton, ICPP 2013).
//
// Applications written against the simulated MPI layer run as virtual
// processes with their own virtual clocks inside a deterministic
// discrete-event engine, against configurable processor, network and file
// system models. The resilience features of the paper are all available:
// MPI process failure injection (explicit schedules or random failures
// drawn from a system MTTF), purely timeout-based failure detection with
// simulator-internal notification, simulated MPI abort, and
// application-level checkpoint/restart with continuous virtual time across
// restarts.
//
// A minimal simulation looks like:
//
//	sim, err := xsim.New(xsim.Config{Ranks: 64})
//	if err != nil { ... }
//	res, err := sim.Run(func(env *xsim.Env) {
//	    world := env.World()
//	    if env.Rank() == 0 {
//	        world.Send(1, 0, []byte("hello"))
//	    } else if env.Rank() == 1 {
//	        msg, _ := world.Recv(0, 0)
//	        env.Logf("got %q", msg.Data)
//	    }
//	    env.Finalize()
//	})
//	fmt.Println("simulated time:", res.SimTime)
package xsim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"xsim/internal/core"
	"xsim/internal/fault"
	"xsim/internal/fsmodel"
	"xsim/internal/heat"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/procmodel"
	"xsim/internal/stats"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// Re-exported simulation types: applications only ever import this
// package.
type (
	// Env is the per-process handle passed to the application.
	Env = mpi.Env
	// Comm is a simulated MPI communicator.
	Comm = mpi.Comm
	// Message is a received message.
	Message = mpi.Message
	// Request is a nonblocking operation handle.
	Request = mpi.Request
	// ProcFailedError reports a detected process failure.
	ProcFailedError = mpi.ProcFailedError
	// Time is a virtual timestamp.
	Time = vclock.Time
	// Duration is a virtual time span.
	Duration = vclock.Duration
	// Schedule is a failure-injection schedule (rank@time pairs).
	Schedule = fault.Schedule
	// Injection is one scheduled process failure.
	Injection = fault.Injection
	// Store is the simulated parallel file system's persistent contents.
	Store = fsmodel.Store
	// Prog is a program-mode rank: a resumable step function instead of
	// a goroutine-backed closure. See Sim.RunProgs.
	Prog = mpi.Prog
	// WaitState, SleepState, RecvState, SendState, ProbeState and
	// CollectiveState are the resumable blocking-operation states a Prog
	// parks on; the corresponding closure-mode calls drive the same step
	// functions on states of their own.
	WaitState       = mpi.WaitState
	SleepState      = mpi.SleepState
	RecvState       = mpi.RecvState
	SendState       = mpi.SendState
	ProbeState      = mpi.ProbeState
	CollectiveState = mpi.CollectiveState
	// ClosureOnlyError is the typed panic value raised when a program
	// VP enters a closure-mode call that has to block (Env.Block).
	ClosureOnlyError = mpi.ClosureOnlyError
)

// Wildcards and error handlers, re-exported.
const (
	AnySource      = mpi.AnySource
	AnyTag         = mpi.AnyTag
	ErrorsAreFatal = mpi.ErrorsAreFatal
	ErrorsReturn   = mpi.ErrorsReturn
)

// Virtual-time units, re-exported.
const (
	Microsecond = vclock.Microsecond
	Millisecond = vclock.Millisecond
	Second      = vclock.Second
	Minute      = vclock.Minute
	Hour        = vclock.Hour
)

// Reduction operators, re-exported.
var (
	OpSum = mpi.OpSum
	OpMax = mpi.OpMax
	OpMin = mpi.OpMin
)

// Never is the sentinel virtual time for "not scheduled" (e.g. the
// predicted failure time of a run in which no failure was drawn).
const Never = vclock.Never

// Seconds converts float seconds to a virtual duration.
func Seconds(s float64) Duration { return vclock.FromSeconds(s) }

// ParseSchedule reads a failure schedule in "rank@seconds,..." syntax.
func ParseSchedule(s string) (Schedule, error) { return fault.Parse(s) }

// NewStore returns an empty simulated parallel file system, shared across
// simulation runs to support checkpoint/restart.
func NewStore() *Store { return fsmodel.NewStore() }

// App is a simulated MPI application: the function runs once per rank.
type App = func(*Env)

// Config parameterises a simulation.
type Config struct {
	// Ranks is the number of simulated MPI processes (required).
	Ranks int
	// Workers is the number of engine partitions executing virtual
	// processes concurrently under conservative synchronisation; 0 or 1
	// runs sequentially. Results are identical either way.
	Workers int
	// Net is the network model; nil uses the paper's link parameters
	// (1 µs links, 32 GB/s, 256 kB eager threshold) on a torus sized to
	// Ranks (the paper's 32×32×32 torus when Ranks is 32,768).
	Net *netmodel.Model
	// Proc is the processor model; the zero value uses the paper's
	// (a node 1000× slower than a 1.7 GHz Opteron core).
	Proc procmodel.Model
	// Store is the simulated parallel file system shared across runs;
	// nil means the simulation gets a fresh private one.
	Store *Store
	// FSHierarchy is the checkpoint storage and its cost model: one tier
	// for a flat file system (PaperPFS), several (node-local memory →
	// burst buffer → PFS, PaperTieredFS) for staged writes and
	// asynchronous drains. Empty means one free tier, matching the
	// paper's Table II configuration.
	FSHierarchy fsmodel.Hierarchy
	// Failures is an explicit failure-injection schedule.
	Failures Schedule
	// StartClock initialises the virtual clocks, for restarts (the
	// restart helpers manage it automatically).
	StartClock Time
	// CallOverhead is the per-MPI-call CPU cost (simulated MPI software
	// overhead); it dominates large linear collectives.
	CallOverhead Duration
	// Collectives selects linear (default, as in the paper) or
	// binomial-tree collective algorithms.
	Collectives mpi.CollectiveAlgo
	// Logf, when set, receives the simulator's informational messages
	// (failure injections, aborts, shutdown statistics).
	Logf func(format string, args ...any)
	// Trace, when set, records one event per MPI operation for timeline
	// analysis (see NewTrace).
	Trace *TraceBuffer
	// Validate compiles the simulator's internal invariant checks into
	// the run: engine-level (per-VP clock monotonicity, no event emitted
	// before its emitter's current time, parallel-window horizon safety)
	// and MPI-level (posted-receive index consistency, unexpected-queue
	// conservation, pending-request sweep at Finalize). A violation stops
	// the run with a diagnostic naming the rank, event, and virtual time.
	// When false — the default — the checks cost nothing.
	Validate bool
}

// DefaultNet returns the paper's network parameters on a torus sized for n
// ranks: the paper's 32×32×32 torus when it fits n exactly, otherwise a
// near-cubic torus with exactly n nodes.
func DefaultNet(n int) *netmodel.Model {
	net := netmodel.Paper()
	if n != net.Topo.Nodes() {
		x, y, z := factor3(n)
		net.Topo = topology.NewTorus3D(x, y, z)
	}
	return net
}

// factor3 splits n into three factors x >= y >= z as close to cubic as
// possible: z is the largest divisor at most the cube root, y the largest
// divisor of the remainder at most its square root.
func factor3(n int) (x, y, z int) {
	z = 1
	for d := 1; d*d*d <= n; d++ {
		if n%d == 0 {
			z = d
		}
	}
	rest := n / z
	y = 1
	for d := 1; d*d <= rest; d++ {
		if rest%d == 0 {
			y = d
		}
	}
	x = rest / y
	// Order the factors (the remainder split can undercut z, e.g.
	// 1057 = 151×1×7).
	if y < z {
		y, z = z, y
	}
	if x < y {
		x, y = y, x
	}
	if y < z {
		y, z = z, y
	}
	return x, y, z
}

// Sim is one configured simulation run.
type Sim struct {
	cfg   Config
	world *mpi.World
}

// Result summarises one simulation run.
type Result struct {
	// SimTime is the simulated time of the application exit: the
	// maximum simulated MPI process time, which restarts persist for
	// continuous virtual timing.
	SimTime Time
	// MinTime and AvgTime complete the per-process timing statistics
	// (minimum, maximum, average) the simulator prints at shutdown.
	MinTime, AvgTime Time
	// Completed, Failed and Aborted count ranks by how they terminated.
	Completed, Failed, Aborted int
	// PerRank holds each rank's final virtual clock.
	PerRank []Time
	// Deaths holds each rank's termination reason ("completed", "failed",
	// "aborted", "killed", "panicked"), indexed by rank.
	Deaths []string
	// Busy and Waited hold each rank's virtual time spent executing and
	// blocked, respectively; the power model turns them into energy.
	Busy, Waited []Duration
	// StartClock is the virtual time the run began at (non-zero for
	// restarts).
	StartClock Time
	// WallTime is the native execution time of the simulation itself.
	WallTime time.Duration
	// Engine holds the discrete-event engine's counters (events
	// dispatched, pool hits/misses, heap high-water depths, parallel
	// window statistics).
	Engine EngineMetrics
	// MPI holds the simulated MPI layer's counters (traffic by protocol,
	// collectives, unexpected-queue high-water, failure detection
	// latencies).
	MPI MPIMetrics
}

// EngineMetrics is the discrete-event engine's counter snapshot.
type EngineMetrics = core.MetricsSnapshot

// MPIMetrics is the simulated MPI layer's counter snapshot.
type MPIMetrics = mpi.MetricsSnapshot

// FailureMetric reports one injected failure's detection behaviour.
type FailureMetric = mpi.FailureMetric

// Energy evaluates a power model over the run: per-node compute/idle
// draws applied to each rank's busy/wait time — the
// performance/resilience/power view the paper works toward.
func (r *Result) Energy(m PowerModel) PowerReport {
	return m.SystemEnergy(r.Busy, r.Waited, r.SimTime.Sub(r.StartClock))
}

// Success reports whether every rank finished cleanly.
func (r *Result) Success() bool { return r.Failed == 0 && r.Aborted == 0 }

// New validates cfg and builds a simulation. A Sim runs exactly once.
func New(cfg Config) (*Sim, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("xsim: Ranks must be positive, got %d", cfg.Ranks)
	}
	if cfg.Net == nil {
		cfg.Net = DefaultNet(cfg.Ranks)
	}
	if (cfg.Proc == procmodel.Model{}) {
		cfg.Proc = procmodel.Paper()
	}
	if cfg.Store == nil {
		cfg.Store = NewStore()
	}
	lookahead := Duration(0)
	if cfg.Workers > 1 {
		lookahead = min(cfg.Net.System.Latency, cfg.Net.OnNode.Latency)
		if lookahead <= 0 {
			return nil, fmt.Errorf("xsim: Workers > 1 requires positive network latencies for conservative synchronisation")
		}
	}
	eng, err := core.New(core.Config{
		NumVPs:     cfg.Ranks,
		Workers:    cfg.Workers,
		Lookahead:  lookahead,
		StartClock: cfg.StartClock,
		Logf:       cfg.Logf,
		Validate:   cfg.Validate,
	})
	if err != nil {
		return nil, err
	}
	wcfg := mpi.WorldConfig{
		Net:          cfg.Net,
		Proc:         cfg.Proc,
		CallOverhead: cfg.CallOverhead,
		Collectives:  cfg.Collectives,
		FSStore:      cfg.Store,
		FSHierarchy:  cfg.FSHierarchy,
		Tracer:       cfg.Trace,
	}
	world, err := mpi.NewWorld(eng, wcfg)
	if err != nil {
		return nil, err
	}
	if err := fault.Apply(eng, cfg.Failures); err != nil {
		return nil, err
	}
	return &Sim{cfg: cfg, world: world}, nil
}

// Run executes app on every rank and drives the simulation to completion.
// It is RunContext without cancellation.
func (s *Sim) Run(app App) (*Result, error) {
	return s.RunContext(context.Background(), app)
}

// RunContext executes app on every rank and drives the simulation to
// completion, honouring ctx: when the context is cancelled (or a deadline
// passes), the discrete-event engine stops cooperatively at the next
// simulation window boundary, tears the surviving virtual processes down,
// and RunContext returns the partial Result alongside an error wrapping
// ErrCancelled. A deadlocked simulation likewise returns its partial
// Result with an error wrapping ErrDeadlock.
func (s *Sim) RunContext(ctx context.Context, app App) (*Result, error) {
	return s.runContext(ctx, func() (*core.Result, error) { return s.world.Run(app) })
}

// RunProgs executes one program-mode rank per virtual process: newProg is
// called once per rank and the returned Prog is stepped to completion.
// Program mode trades the per-rank goroutine (and its stack) for a few
// hundred bytes of parked state, which is what makes 256k–1M-rank
// experiments practical; the same Prog run in closure mode (Env.RunProg)
// is observationally identical.
func (s *Sim) RunProgs(newProg func(rank int) Prog) (*Result, error) {
	return s.RunProgsContext(context.Background(), newProg)
}

// RunProgsContext is RunProgs honouring ctx the way RunContext does.
func (s *Sim) RunProgsContext(ctx context.Context, newProg func(rank int) Prog) (*Result, error) {
	return s.runContext(ctx, func() (*core.Result, error) { return s.world.RunProgs(newProg) })
}

func (s *Sim) runContext(ctx context.Context, run func() (*core.Result, error)) (*Result, error) {
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%w before the run started: %v", ErrCancelled, context.Cause(ctx))
	}
	wallStart := time.Now()
	if ctx.Done() != nil {
		// The watcher forwards the context's cancellation to the engine's
		// cooperative stop flag; closing watchDone on return reclaims it.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				s.world.Engine().Cancel()
			case <-watchDone:
			}
		}()
	}
	res, err := run()
	if err != nil && res == nil {
		return nil, err
	}
	deaths := make([]string, len(res.Deaths))
	for i, d := range res.Deaths {
		deaths[i] = d.String()
	}
	result := &Result{
		SimTime:    res.MaxClock,
		MinTime:    res.MinClock,
		AvgTime:    res.AvgClock,
		Completed:  res.Completed,
		Failed:     res.Failed,
		Aborted:    res.Aborted,
		PerRank:    res.FinalClocks,
		Deaths:     deaths,
		Busy:       res.Busy,
		Waited:     res.Waited,
		StartClock: s.cfg.StartClock,
		WallTime:   time.Since(wallStart),
		Engine:     s.world.Engine().Metrics(),
		MPI:        s.world.Metrics(),
	}
	if s.cfg.Trace != nil {
		// Export the VP-lifecycle gauges as Chrome-trace counter tracks so
		// a loaded timeline graphs the run's carrier and scheduler
		// high-water marks alongside the per-rank events.
		for _, c := range []struct {
			name  string
			value float64
		}{
			{"carriers-spawned", float64(result.Engine.CarriersSpawned)},
			{"carriers-hi", float64(result.Engine.CarriersHighWater)},
			{"ready-hi", float64(result.Engine.ReadyHeapHighWater)},
			{"program-steps", float64(result.Engine.ProgramSteps)},
		} {
			s.cfg.Trace.RecordCounter(c.name, result.SimTime, c.value)
		}
	}
	switch {
	case err == nil:
		return result, nil
	case errors.Is(err, core.ErrStopped):
		return result, fmt.Errorf("%w at %v: %v", ErrCancelled, result.SimTime, context.Cause(ctx))
	default:
		// Deadlocks (wrapping ErrDeadlock), clock overflows (wrapping
		// ErrClockOverflow) and VP panics pass through with the partial
		// result attached.
		return result, err
	}
}

// MetricsReport renders the run's engine and MPI counters as fixed-width
// tables in the style of the simulator's shutdown statistics.
func (r *Result) MetricsReport() string {
	var sb strings.Builder
	sb.WriteString("engine:\n")
	sb.WriteString(stats.Table(
		[]string{"events", "resumes", "eventq-stores", "eventq-chunks", "eventq-run-share", "cross-events", "eventq-hi", "ready-hi", "rounds", "avg-window"},
		[][]string{{
			fmt.Sprint(r.Engine.EventsDispatched),
			fmt.Sprint(r.Engine.Resumes),
			fmt.Sprint(r.Engine.PoolHits + r.Engine.PoolMisses),
			fmt.Sprint(r.Engine.PoolMisses),
			fmt.Sprintf("%.3f", r.Engine.EventRunShare()),
			fmt.Sprint(r.Engine.CrossEvents),
			fmt.Sprint(r.Engine.EventHeapHighWater),
			fmt.Sprint(r.Engine.ReadyHeapHighWater),
			fmt.Sprint(r.Engine.BarrierRounds),
			r.Engine.AvgWindowWidth().String(),
		}},
	))
	sb.WriteString("vp lifecycle:\n")
	sb.WriteString(stats.Table(
		[]string{"carriers-spawned", "carriers-hi", "carriers-live", "program-steps"},
		[][]string{{
			fmt.Sprint(r.Engine.CarriersSpawned),
			fmt.Sprint(r.Engine.CarriersHighWater),
			fmt.Sprint(r.Engine.CarriersLive),
			fmt.Sprint(r.Engine.ProgramSteps),
		}},
	))
	sb.WriteString("mpi:\n")
	sb.WriteString(stats.Table(
		[]string{"eager-msgs", "eager-bytes", "rdv-msgs", "rdv-bytes", "collectives", "unexpected-hi"},
		[][]string{{
			fmt.Sprint(r.MPI.EagerMsgs),
			fmt.Sprint(r.MPI.EagerBytes),
			fmt.Sprint(r.MPI.RendezvousMsgs),
			fmt.Sprint(r.MPI.RendezvousBytes),
			fmt.Sprint(r.MPI.CollectiveOps),
			fmt.Sprint(r.MPI.UnexpectedMax),
		}},
	))
	if len(r.MPI.Failures) > 0 {
		sb.WriteString("failures:\n")
		rows := make([][]string, 0, len(r.MPI.Failures))
		for _, f := range r.MPI.Failures {
			lat := "undetected"
			if f.Detections > 0 {
				lat = f.DetectionLatency().String()
			}
			rows = append(rows, []string{
				fmt.Sprint(f.Rank),
				f.FailedAt.String(),
				f.NotifiedAt.String(),
				fmt.Sprint(f.Detections),
				lat,
			})
		}
		sb.WriteString(stats.Table(
			[]string{"rank", "failed-at", "notified-at", "detections", "detection-latency"},
			rows,
		))
	}
	return sb.String()
}

// HeatConfig is the heat-equation application configuration (the paper's
// targeted application), re-exported.
type HeatConfig = heat.Config

// HeatTracker records the heat application's per-rank progress and
// phases, re-exported.
type HeatTracker = heat.Tracker

// HeatWorkloadFor scales the paper's workload to n ranks, keeping 16³
// grid points per rank so the per-rank compute and checkpoint sizes match
// the paper's.
func HeatWorkloadFor(n int) (HeatConfig, error) {
	if n <= 0 {
		return HeatConfig{}, fmt.Errorf("xsim: rank count %d must be positive", n)
	}
	cfg := heat.PaperWorkload()
	x, y, z := factor3(n)
	cfg.PX, cfg.PY, cfg.PZ = x, y, z
	cfg.NX, cfg.NY, cfg.NZ = 16*x, 16*y, 16*z
	return cfg, nil
}

// RunHeat executes the heat application under cfg on closure VPs.
func RunHeat(hc HeatConfig) App {
	return func(e *Env) { heat.Run(e, hc) }
}

// RunHeatProg is RunHeat in program mode: the per-rank factory passed to
// Sim.RunProgs. It is the same state machine RunHeat drives on a
// goroutine (same checkpoints, barriers, halo traffic and virtual
// timeline), stepped by the scheduler instead, so a parked rank costs a
// few hundred bytes instead of a goroutine stack.
func RunHeatProg(hc HeatConfig) func(rank int) Prog {
	return heat.NewProg(hc)
}

// NewHeatTracker sizes a tracker for n ranks.
func NewHeatTracker(n int) *HeatTracker { return heat.NewTracker(n) }
