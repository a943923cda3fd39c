package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"xsim"
	"xsim/internal/runner"
)

// DefaultSeed is the seed the goldens under testdata were taken at (the
// paper-reproduction seed the repository uses everywhere).
const DefaultSeed = 133

// workload is one set of inputs the benchmark runs. New generates the
// inputs from the seed — the simulator only ever sees the generated
// configs and specs — at full scale or at the quick scale the unit tests
// and the warm-up run use.
type workload struct {
	Name string
	Why  string
	// Parallel marks a workload that measures the parallel engine.
	Parallel bool
	New      func(in inputs) (instance, error)
}

// inputs is everything a workload is generated from.
type inputs struct {
	Seed  int64 `json:"seed"`
	Quick bool  `json:"quick"`
	// Scratch is a directory the workload may create files under (the
	// served workload's result store); the harness keeps it inside the
	// working directory and removes it afterwards.
	Scratch string `json:"scratch"`
}

// instance is a generated workload, ready to repeat.
type instance interface {
	// Rep runs the workload once and checks its outputs. tr is nil when
	// tracing is off.
	Rep(tr *Tracer) (*repResult, error)
}

// repResult is what one repetition produced.
type repResult struct {
	// Outcome is the canonical simulated outcome; its digest must repeat
	// exactly from repetition to repetition and run to run.
	Outcome any
	// Attempted and Failed count operations: simulation runs, output
	// checks, served requests.
	Attempted, Failed int
	// Notes describe the failed operations.
	Notes  []string
	Counts counts
	// Extra holds workload metrics measured inside the repetition.
	Extra map[string]float64
}

// fail records one failed operation.
func (r *repResult) fail(format string, args ...any) {
	r.Failed++
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// check counts one output check, failing it when ok is false.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// counts are the exact counters a repetition's results carry; the traced
// pass turns them into per-layer metrics and the attribution estimate.
type counts struct {
	Events        uint64 `json:"events"`
	EventPoolHits uint64 `json:"event_pool_hits"`
	EventPoolMiss uint64 `json:"event_pool_misses"`
	CrossEvents   uint64 `json:"cross_events"`
	BarrierRounds uint64 `json:"barrier_rounds"`
	EagerMsgs     uint64 `json:"eager_msgs"`
	UnexpectedMax int    `json:"unexpected_max"`
	MsgPoolHits   uint64 `json:"msg_pool_hits"`
	MsgPoolMiss   uint64 `json:"msg_pool_misses"`
	Collectives   uint64 `json:"collectives"`
	// RankIters is rank × modelled compute iterations executed; WorldVPs
	// the virtual processes built over all worlds of the repetition.
	RankIters uint64 `json:"rank_iters"`
	WorldVPs  uint64 `json:"world_vps"`
	Closure   bool   `json:"closure"`
	// Checkpoint operations the repetition's configuration implies.
	CkptWrites  uint64 `json:"ckpt_writes"`
	CkptReads   uint64 `json:"ckpt_reads"`
	CkptDeletes uint64 `json:"ckpt_deletes"`
	// Campaign-pool accounting (runner.Stats).
	PoolSlots int           `json:"pool_slots"`
	PoolWall  time.Duration `json:"pool_wall_ns"`
	RunWall   time.Duration `json:"run_wall_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	PoolRuns  int           `json:"pool_runs"`
	// Service counters (service.Metrics).
	CacheHits  int `json:"cache_hits"`
	SimRuns    int `json:"sim_runs"`
	DedupJoins int `json:"dedup_joins"`
}

func (c *counts) addSim(e xsim.EngineMetrics, m xsim.MPIMetrics) {
	c.Events += e.EventsDispatched
	c.EventPoolHits += e.PoolHits
	c.EventPoolMiss += e.PoolMisses
	c.CrossEvents += e.CrossEvents
	c.BarrierRounds += e.BarrierRounds
	c.EagerMsgs += m.EagerMsgs
	if m.UnexpectedMax > c.UnexpectedMax {
		c.UnexpectedMax = m.UnexpectedMax
	}
	c.MsgPoolHits += m.PoolHits
	c.MsgPoolMiss += m.PoolMisses
	c.Collectives += m.CollectiveOps
}

// digestOf hashes an outcome's canonical JSON (encoding/json sorts map
// keys and struct fields keep declaration order, so the bytes depend on
// the values alone).
func digestOf(outcome any) (string, []byte, error) {
	data, err := json.Marshal(outcome)
	if err != nil {
		return "", nil, fmt.Errorf("bench: encoding outcome: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), data, nil
}

// subSeed derives the k-th independent value from the workload seed.
func subSeed(seed int64, k int) int64 { return runner.DeriveSeed(seed, k) }

// callOverhead is the paper's per-MPI-call cost plus a seed-derived
// sub-microsecond offset. It shifts every simulated timestamp, so each
// seed has its own digest, but no event count and no control flow: the
// host cost of a workload is the same at every seed, which is what lets
// runs at different seeds be compared.
func callOverhead(seed int64) xsim.Duration {
	return xsim.PaperCallOverhead + xsim.Duration(uint64(subSeed(seed, 0))%1000)
}

// workloads is the fixed set, in reporting order.
var workloads = []workload{
	{
		Name: "table2-32k-prog",
		Why:  "Paper Table II at 32,768 ranks in program mode, Pool=2: heat compute stepping, mpi, core dispatch, restart chain and runner pool all share the work.",
		New:  newTable2,
	},
	{
		Name:     "halo-64k-prog-w2",
		Why:      "65,536-rank halo exchange every iteration on Workers=2: mpi matching and core parallel windows do nearly all the work; the multi-core and footprint number.",
		Parallel: true,
		New:      func(in inputs) (instance, error) { return newHalo(in, false) },
	},
	{
		Name: "halo-16k-closure",
		Why:  "The same exchange through closure mode at 16,384 ranks: every block/wake is a goroutine handoff, so a change that trades closure speed for program speed shows here only.",
		New:  func(in inputs) (instance, error) { return newHalo(in, true) },
	},
	{
		Name: "ckpt-32k-prog",
		Why:  "Checkpoint every iteration (1 MiB, tiered storage) at 32,768 ranks with one failure and restart: checkpoint, fsmodel and the per-checkpoint barrier dominate; halo traffic is ~0.",
		New:  newCkpt,
	},
	{
		Name: "service-mix",
		Why:  "48 cold campaigns then 4,000 cache-hit resubmissions through the HTTP service, closed loop, 2 clients: wire, service, jobstore and HTTP do the work in the hit phase.",
		New:  newServiceMix,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// parallelWorkload reports whether name is a workload that measures the
// parallel engine.
func parallelWorkload(name string) bool {
	w, ok := workloadByName(name)
	return ok && w.Parallel
}
