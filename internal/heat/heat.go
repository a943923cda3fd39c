// Package heat implements the paper's targeted application: an iterative
// solver for the heat equation on a regular 3-D grid, decomposed into
// cubes distributed across the MPI ranks. Each rank performs the same
// total number of iterations, updating every data point from its
// neighbours; a halo exchange between neighbouring cubes runs at a
// configurable iteration interval, and a checkpoint is written at a
// configurable interval, followed by a global barrier after which the
// previous checkpoint is deleted safely. On restart the application
// automatically loads the last checkpoint (deleting corrupted ones).
//
// Two fidelity modes are supported:
//
//   - Real compute: the grid is allocated and the 7-point stencil actually
//     runs, halo faces and checkpoints carry real data. Used by the
//     correctness tests and small examples.
//
//   - Modelled compute (RealCompute=false): compute phases charge
//     processor-model time for the same number of point updates, halos are
//     payload-free messages of the real face sizes, and checkpoints are
//     synthetic files of the real size. This is how the 32,768-rank
//     experiments of the paper are reproduced on a laptop: xSim likewise
//     scales time by a processor model rather than simulating cycles.
package heat

import (
	"encoding/binary"
	"fmt"
	"math"

	"xsim/internal/mpi"
	"xsim/internal/vclock"
)

// Config parameterises the heat application.
type Config struct {
	// NX, NY, NZ is the global grid (the paper uses 512×512×512).
	NX, NY, NZ int
	// PX, PY, PZ is the process grid (the paper uses 32×32×32); the
	// product must equal the world size and each dimension must divide
	// the corresponding grid dimension.
	PX, PY, PZ int
	// Iterations is the total iteration count (the paper uses 1,000).
	Iterations int
	// ExchangeInterval is the halo-exchange interval in iterations. The
	// paper sets it equal to the checkpoint interval so a halo exchange
	// takes place right before a checkpoint.
	ExchangeInterval int
	// CheckpointInterval is the checkpoint interval in iterations; the
	// final iteration always writes a checkpoint (the baseline run's
	// single result checkpoint).
	CheckpointInterval int
	// RealCompute selects real grids and stencils over modelled time.
	RealCompute bool
	// PointCost is the modelled work per point update in reference-core
	// cycles; see PaperWorkload for the calibration.
	PointCost float64
	// Tracker, when set, records per-rank progress and phases for the
	// failure-mode analysis (§V-D of the paper).
	Tracker *Tracker
	// OnFinal, when set, receives each rank's total heat after the last
	// iteration (real compute mode only) — used by correctness tests and
	// examples to check conservation.
	OnFinal func(rank int, totalHeat float64)
	// CheckpointPayload, when positive, overrides the modelled checkpoint
	// payload size in bytes (modelled compute only). The I/O ablation
	// uses it to model production-scale state per rank — the 16³-points
	// cube of the paper's workload is ~32 KB, far too small for
	// checkpoint I/O to matter at any bandwidth.
	CheckpointPayload int
	// DeltaFraction, when positive (modelled compute only), enables
	// incremental checkpointing: between full checkpoints each cadence
	// point writes a delta of DeltaFraction × payload bytes, and every
	// FullEvery-th checkpoint is full, bounding the restore chain.
	DeltaFraction float64
	// FullEvery bounds the incremental chain length (default 4); only
	// meaningful with DeltaFraction > 0.
	FullEvery int
	// onPhase, when set, is called at the top of every compute phase with
	// the rank and the 1-based number of the phase's first iteration. It
	// is package-private: the scale benchmarks use it to sample the
	// simulator's resident footprint at a deterministic mid-run point.
	onPhase func(rank, iter int)
	// onHaloPosted, when set, is called with the rank once it has posted
	// every receive and send of a halo exchange. Package-private like
	// onPhase: the scale benchmarks sample the all-ranks message burst with
	// it.
	onHaloPosted func(rank int)
	// ProactiveTrigger, when non-zero, makes every rank write one extra
	// off-interval checkpoint at the first iteration boundary at or past
	// this virtual time — proactive fault tolerance driven by a failure
	// predictor (the campaign sets it to the predicted failure time
	// minus the prediction lead). vclock.Never means "proactive mode
	// without a trigger this run": no extra checkpoint is written, but
	// restarts still consider the off-cadence checkpoints earlier runs
	// may have left behind.
	ProactiveTrigger vclock.Time
}

// PaperWorkload returns the paper's Table II workload: a 512³ grid over
// 32,768 ranks in 32³ cubes (16³ points per rank), 1,000 iterations,
// modelled compute. PointCost is calibrated so one iteration takes about
// 5.25 simulated seconds on the paper's processor model (a node 1000×
// slower than a 1.7 GHz Opteron core), matching the paper's no-failure
// baseline of 5,248 s for 1,000 iterations.
func PaperWorkload() Config {
	return Config{
		NX: 512, NY: 512, NZ: 512,
		PX: 32, PY: 32, PZ: 32,
		Iterations:         1000,
		ExchangeInterval:   1000,
		CheckpointInterval: 1000,
		PointCost:          2178, // 4096 points × 2178 cycles / 1.7e6 Hz ≈ 5.25 s/iteration
	}
}

// Validate reports a configuration error, if any.
func (c *Config) Validate(worldSize int) error {
	if c.NX <= 0 || c.NY <= 0 || c.NZ <= 0 {
		return fmt.Errorf("heat: grid %dx%dx%d must be positive", c.NX, c.NY, c.NZ)
	}
	if c.PX <= 0 || c.PY <= 0 || c.PZ <= 0 {
		return fmt.Errorf("heat: process grid %dx%dx%d must be positive", c.PX, c.PY, c.PZ)
	}
	if c.PX*c.PY*c.PZ != worldSize {
		return fmt.Errorf("heat: process grid %dx%dx%d needs %d ranks, world has %d",
			c.PX, c.PY, c.PZ, c.PX*c.PY*c.PZ, worldSize)
	}
	if c.NX%c.PX != 0 || c.NY%c.PY != 0 || c.NZ%c.PZ != 0 {
		return fmt.Errorf("heat: grid %dx%dx%d not divisible by process grid %dx%dx%d",
			c.NX, c.NY, c.NZ, c.PX, c.PY, c.PZ)
	}
	if c.Iterations <= 0 {
		return fmt.Errorf("heat: Iterations must be positive")
	}
	if c.ExchangeInterval <= 0 || c.CheckpointInterval <= 0 {
		return fmt.Errorf("heat: intervals must be positive")
	}
	if c.PointCost < 0 {
		return fmt.Errorf("heat: PointCost must be non-negative")
	}
	if c.CheckpointPayload < 0 {
		return fmt.Errorf("heat: CheckpointPayload must be non-negative")
	}
	if err := CheckDeltaFraction(c.DeltaFraction); err != nil {
		return err
	}
	if c.RealCompute && (c.CheckpointPayload > 0 || c.DeltaFraction > 0) {
		return fmt.Errorf("heat: CheckpointPayload and DeltaFraction are modelled-compute knobs")
	}
	if c.FullEvery < 0 {
		return fmt.Errorf("heat: FullEvery must be non-negative")
	}
	return nil
}

// CheckDeltaFraction reports whether f is a share of the payload an
// incremental checkpoint can write: 0 (off) up to, not including, the
// whole payload. It is Validate's rule for Config.DeltaFraction, exported
// so a layer that accepts the fraction from outside refuses what the
// application would.
func CheckDeltaFraction(f float64) error {
	if !(f >= 0 && f < 1) {
		return fmt.Errorf("heat: DeltaFraction %g outside [0, 1)", f)
	}
	return nil
}

// ClockRangeError reports a configuration whose modelled compute alone
// would run the virtual clock out of its range. A compute phase costs the
// host the same whatever its length, so nothing else stops such a run: it
// would finish at once with a wrapped clock.
type ClockRangeError struct {
	// Iterations of PerIteration modelled compute each, starting at Start.
	Iterations   int
	PerIteration vclock.Duration
	Start        vclock.Time
	// Max is the largest iteration count that fits.
	Max int
}

func (e *ClockRangeError) Error() string {
	return fmt.Sprintf("heat: %d iterations of %v modelled compute from %v overrun the virtual clock (at most %d fit)",
		e.Iterations, e.PerIteration, e.Start, e.Max)
}

// CheckClockRange returns a *ClockRangeError when Iterations iterations of
// perIteration modelled compute, on a clock that starts at start, take more
// than vclock.Room(start).
func (c *Config) CheckClockRange(start vclock.Time, perIteration vclock.Duration) error {
	if perIteration <= 0 {
		return nil
	}
	if fit := int64(vclock.Room(start) / perIteration); int64(c.Iterations) > fit {
		return &ClockRangeError{Iterations: c.Iterations, PerIteration: perIteration, Start: start, Max: int(fit)}
	}
	return nil
}

// Local returns the per-rank cube dimensions.
func (c *Config) Local() (nx, ny, nz int) {
	return c.NX / c.PX, c.NY / c.PY, c.NZ / c.PZ
}

// PointsPerRank returns the number of grid points each rank owns.
func (c *Config) PointsPerRank() int {
	nx, ny, nz := c.Local()
	return nx * ny * nz
}

// iterationTime returns the modelled compute time of one iteration on the
// world's processor model.
func (c *Config) iterationTime(env *mpi.Env) vclock.Duration {
	return env.ComputeTime(float64(c.PointsPerRank()) * c.PointCost)
}

// CheckpointBytes returns the per-rank checkpoint payload size: the cube's
// data points as float64 plus the application configuration the paper's
// checkpoint includes.
func (c *Config) CheckpointBytes() int { return 8*c.PointsPerRank() + 64 }

// payloadBytes returns the modelled checkpoint payload: the override when
// set, the real grid size otherwise.
func (c *Config) payloadBytes() int {
	if !c.RealCompute && c.CheckpointPayload > 0 {
		return c.CheckpointPayload
	}
	return c.CheckpointBytes()
}

// deltaBytes returns the modelled incremental-checkpoint payload.
func (c *Config) deltaBytes() int {
	d := int(c.DeltaFraction * float64(c.payloadBytes()))
	if d < 1 {
		d = 1
	}
	return d
}

// fullEvery returns the configured or default full-checkpoint period of
// the incremental chain.
func (c *Config) fullEvery() int {
	if c.FullEvery > 0 {
		return c.FullEvery
	}
	return 4
}

// prefix names the checkpoint files.
const prefix = "heat"

// alpha is the diffusion coefficient of the explicit update (real compute
// mode), at the stability limit of 1/6.
const alpha = 1.0 / 6.0

// Phase identifies where in its cycle a rank currently is; the paper's
// "first impressions" analysis classifies failures and detections by
// phase (computation, halo exchange, checkpoint, barrier, delete).
type Phase int32

// Application phases.
const (
	PhaseInit Phase = iota
	PhaseCompute
	PhaseHalo
	PhaseCheckpoint
	PhaseBarrier
	PhaseDelete
	PhaseDone
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseInit:
		return "init"
	case PhaseCompute:
		return "compute"
	case PhaseHalo:
		return "halo-exchange"
	case PhaseCheckpoint:
		return "checkpoint"
	case PhaseBarrier:
		return "barrier"
	case PhaseDelete:
		return "delete-old-checkpoint"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int32(p))
	}
}

// Tracker records per-rank progress across a run. Each rank writes only
// its own slots while the simulation runs; read it after Run returns.
type Tracker struct {
	phases    []Phase
	iters     []int
	ckpts     []int
	startIter []int
}

// NewTracker sizes a tracker for n ranks.
func NewTracker(n int) *Tracker {
	return &Tracker{
		phases:    make([]Phase, n),
		iters:     make([]int, n),
		ckpts:     make([]int, n),
		startIter: make([]int, n),
	}
}

// PhaseOf returns the last phase rank entered.
func (t *Tracker) PhaseOf(rank int) Phase { return t.phases[rank] }

// IterOf returns the last iteration rank started.
func (t *Tracker) IterOf(rank int) int { return t.iters[rank] }

// CheckpointsOf returns the checkpoints rank completed.
func (t *Tracker) CheckpointsOf(rank int) int { return t.ckpts[rank] }

// StartIterOf returns the iteration rank restarted from (0 = fresh).
func (t *Tracker) StartIterOf(rank int) int { return t.startIter[rank] }

// PhaseCounts histograms the ranks' last phases.
func (t *Tracker) PhaseCounts() map[Phase]int {
	out := make(map[Phase]int)
	for _, p := range t.phases {
		out[p]++
	}
	return out
}

func (t *Tracker) setPhase(rank int, p Phase) {
	if t != nil {
		t.phases[rank] = p
	}
}

// Run executes the heat application inside one simulated MPI process (a
// closure VP). It is the paper's application loop: restart from the last
// valid checkpoint if one exists, then iterate with compute,
// halo-exchange, checkpoint, barrier and delete phases, and finalise
// cleanly. The loop itself is written once, as the resumable heatRunner
// (prog.go) that NewProg hands to program mode; Run drives the same runner
// to completion on the calling VP. As under NewProg, every rank of a world
// shares the one read-only cfg.
func Run(env *mpi.Env, cfg *Config) {
	env.RunProg(&heatRunner{state: state{cfg: cfg}})
}

// state holds one rank's geometry and, in real mode, behind one pointer,
// its grid. It is a value inside the rank's heatRunner, whose every byte a
// million parked ranks pay, so its rank and coordinates are 32-bit.
type state struct {
	cfg        *Config
	rank       int32
	px, py, pz int32 // this rank's coordinates in the process grid
	*grid            // nil in modelled mode
}

// grid is one rank's ghosted cube of real-compute data.
type grid struct {
	nx, ny, nz int // local cube dimensions
	cur, next  []float64
}

// newState builds the per-rank state; real mode initialises the grid with
// a deterministic hot spot per rank so heat actually flows.
func newState(cfg *Config, rank int) state {
	s := state{cfg: cfg, rank: int32(rank),
		px: int32(rank % cfg.PX), py: int32(rank / cfg.PX % cfg.PY), pz: int32(rank / (cfg.PX * cfg.PY))}
	if cfg.RealCompute {
		nx, ny, nz := cfg.Local()
		// Ghost layers on every side: (nx+2)(ny+2)(nz+2).
		n := (nx + 2) * (ny + 2) * (nz + 2)
		s.grid = &grid{nx: nx, ny: ny, nz: nz, cur: make([]float64, n), next: make([]float64, n)}
		s.cur[s.idx(1+rank%nx, 1+rank%ny, 1+rank%nz)] = 1000
	}
	return s
}

// idx addresses the ghosted local grid; interior points are 1..n.
func (s *grid) idx(i, j, k int) int {
	return i + j*(s.nx+2) + k*(s.nx+2)*(s.ny+2)
}

// neighbor returns the world rank of the process-grid neighbour in the
// given direction (periodic); each offset is -1, 0 or 1.
func (s *state) neighbor(dx, dy, dz int) int {
	cfg := s.cfg
	x := wrapStep(int(s.px)+dx, cfg.PX)
	y := wrapStep(int(s.py)+dy, cfg.PY)
	z := wrapStep(int(s.pz)+dz, cfg.PZ)
	return x + y*cfg.PX + z*cfg.PX*cfg.PY
}

// wrapStep wraps a coordinate at most one step outside [0, n) back into
// it, by comparison rather than a division.
func wrapStep(c, n int) int {
	switch {
	case c < 0:
		return c + n
	case c >= n:
		return c - n
	}
	return c
}

// stencil runs one sweep of the explicit update over the cube (real
// compute); the runner has already charged its modelled time.
func (s *grid) stencil() {
	for k := 1; k <= s.nz; k++ {
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				c := s.idx(i, j, k)
				u := s.cur[c]
				s.next[c] = u + alpha*(s.cur[c-1]+s.cur[c+1]+
					s.cur[c-(s.nx+2)]+s.cur[c+(s.nx+2)]+
					s.cur[c-(s.nx+2)*(s.ny+2)]+s.cur[c+(s.nx+2)*(s.ny+2)]-6*u)
			}
		}
	}
	s.cur, s.next = s.next, s.cur
}

// direction describes one of the six halo faces.
type direction struct {
	dx, dy, dz int
	tag        int
}

// directions lists the six face exchanges; tags pair opposite directions
// so a rank's send in +x matches its neighbour's receive in -x.
var directions = [...]direction{
	{+1, 0, 0, 0}, {-1, 0, 0, 1},
	{0, +1, 0, 2}, {0, -1, 0, 3},
	{0, 0, +1, 4}, {0, 0, -1, 5},
}

// oppositeTag returns the tag the neighbour uses for the reverse direction.
func oppositeTag(tag int) int { return tag ^ 1 }

// faceSize returns the byte size of the face payload in a direction.
func (s *state) faceSize(d direction) int {
	nx, ny, nz := s.cfg.Local()
	switch {
	case d.dx != 0:
		return 8 * ny * nz
	case d.dy != 0:
		return 8 * nx * nz
	default:
		return 8 * nx * ny
	}
}

// forFace calls visit with the flat index of every cell of the face
// plane toward d, in the order both ends of an exchange agree on. The
// plane is this rank's outermost interior plane facing d, or with ghost
// the ghost plane just beyond it.
func (s *grid) forFace(d direction, ghost bool, visit func(x int)) {
	// plane picks the layer along an axis of n interior cells toward
	// delta (±1): the first or last interior layer, or its ghost.
	plane := func(delta, n int) int {
		p := 1
		if delta > 0 {
			p = n
		}
		if ghost {
			p += delta
		}
		return p
	}
	switch {
	case d.dx != 0:
		i := plane(d.dx, s.nx)
		for k := 1; k <= s.nz; k++ {
			for j := 1; j <= s.ny; j++ {
				visit(s.idx(i, j, k))
			}
		}
	case d.dy != 0:
		j := plane(d.dy, s.ny)
		for k := 1; k <= s.nz; k++ {
			for i := 1; i <= s.nx; i++ {
				visit(s.idx(i, j, k))
			}
		}
	default:
		k := plane(d.dz, s.nz)
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				visit(s.idx(i, j, k))
			}
		}
	}
}

// packFace serialises the boundary layer the neighbour in direction d
// needs (this rank's outermost interior plane facing d).
func (s *state) packFace(d direction) []byte {
	buf := make([]byte, 0, s.faceSize(d))
	s.forFace(d, false, func(x int) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.cur[x]))
	})
	return buf
}

// unpackFace stores a received face into the ghost layer on the side the
// message came from. The neighbour in direction d sent its face toward us,
// so it fills our ghost plane on that side.
func (s *state) unpackFace(d direction, data []byte) {
	n := 0
	s.forFace(d, true, func(x int) {
		s.cur[x] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*n:]))
		n++
	})
}

// encode serialises the interior grid for a checkpoint (configuration
// header plus the current data, per the paper).
func (s *state) encode() []byte {
	buf := make([]byte, 0, 8*s.cfg.PointsPerRank()+64)
	for _, v := range []int{s.cfg.NX, s.cfg.NY, s.cfg.NZ, s.cfg.PX, s.cfg.PY, s.cfg.PZ, int(s.rank), s.cfg.Iterations} {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	for k := 1; k <= s.nz; k++ {
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.cur[s.idx(i, j, k)]))
			}
		}
	}
	return buf
}

// restore loads a checkpoint payload produced by encode.
func (s *state) restore(payload []byte) {
	if len(payload) != 64+8*s.cfg.PointsPerRank() {
		panic(fmt.Sprintf("heat: checkpoint payload is %d bytes, want %d", len(payload), 64+8*s.cfg.PointsPerRank()))
	}
	off := 64
	for k := 1; k <= s.nz; k++ {
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				s.cur[s.idx(i, j, k)] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
				off += 8
			}
		}
	}
}

// TotalHeat sums the interior grid (a conserved quantity under the
// periodic stencil); the correctness tests check it.
func (s *grid) TotalHeat() float64 {
	var sum float64
	for k := 1; k <= s.nz; k++ {
		for j := 1; j <= s.ny; j++ {
			for i := 1; i <= s.nx; i++ {
				sum += s.cur[s.idx(i, j, k)]
			}
		}
	}
	return sum
}
