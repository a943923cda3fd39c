// Package mpitest generates seeded random MPI workloads and runs them
// under different engine configurations so their results can be
// cross-checked: the windowed parallel engine must be bit-identical to
// the sequential one for every workload shape the simulated MPI layer
// supports — p2p bursts with AnySource/AnyTag wildcards, nonblocking
// storms, linear and tree collectives, probes, cancels, and random
// failure schedules.
//
// A Workload is pure data: Generate derives everything from the seed,
// script compiles it into each rank's flat op list, and Run (closure mode)
// and RunProg (program mode) walk that one list at any worker count. Each
// rank folds every observation it makes (matched sources and tags, payload
// bytes, collective results, probe outcomes, errors, clock samples) into
// an order-sensitive FNV digest, so any divergence in matching, timing, or
// failure detection shows up as a digest mismatch even when the final
// clocks happen to agree.
//
// Deadlock freedom by construction: wildcard receives either carry a tag
// that is unique per destination (source-only wildcard) or live in a
// storm phase where every receive is fully wild (any match is a valid
// match); phases are separated by barriers so late traffic cannot leak
// into a later phase's matching; and a rank that observes any error bails
// by returning without Finalize — a simulated process failure, which
// releases every peer blocked on it through the timeout-based detection
// path.
package mpitest

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"xsim"
	"xsim/internal/mpi"
	"xsim/internal/netmodel"
	"xsim/internal/topology"
	"xsim/internal/vclock"
)

// phaseKind enumerates the workload phase shapes.
type phaseKind int

const (
	phaseP2P     phaseKind = iota // burst of point-to-point messages, mixed wildcards
	phaseStorm                    // nonblocking storm into fully-wild receives
	phaseColl                     // sequence of collectives
	phaseCompute                  // Elapse/Sleep mix
	phaseProbe                    // blocking probes + receives against scripted senders
	phaseCancel                   // receives nobody matches, then cancelled
	numPhaseKinds
)

func (k phaseKind) String() string {
	return [...]string{"p2p", "storm", "coll", "compute", "probe", "cancel"}[k]
}

// p2pMsg is one scripted message. In a p2p phase wild receives match the
// source only (the tag is unique per destination); in storm and probe
// phases the flags below select the fully-wild and probed variants.
type p2pMsg struct {
	src, dst  int
	tag, size int
	payload   bool            // carry real bytes (vs size-only)
	wildSrc   bool            // receiver posts AnySource
	anyTag    bool            // receiver posts AnyTag (storm phases only)
	pre       vclock.Duration // sender-side Elapse before this send
}

// collKind enumerates collective operations.
type collKind int

const (
	collBarrier collKind = iota
	collBcast
	collReduce
	collAllreduce
	collGather
	collScatter
	collAllgather
	collAlltoall
	numCollKinds
)

// collOp is one scripted collective.
type collOp struct {
	kind collKind
	root int
	size int // payload bytes, or float64 element count for reductions
	op   int // 0 sum, 1 max, 2 min
}

// computeStep is one scripted local-activity step.
type computeStep struct {
	d     vclock.Duration
	sleep bool
}

// phase is one phase of the workload; which fields are used depends on
// kind.
type phase struct {
	kind    phaseKind
	msgs    []p2pMsg
	colls   []collOp
	steps   [][]computeStep // per rank
	cancels int             // unmatched receives per rank
}

// Workload is a seeded random MPI program plus the simulation parameters
// it runs under. It is pure data: running it at any worker count executes
// exactly the same per-rank program.
type Workload struct {
	Seed       int64
	Ranks      int
	Tree       bool // tree collectives instead of linear
	NetVariant int  // 0 plain, 1 endpoint contention, 2 ring torus, 3 rendezvous-heavy
	Failures   xsim.Schedule

	callOverhead vclock.Duration
	phases       []phase
}

// String summarises the workload for failure reports.
func (w *Workload) String() string {
	kinds := make([]string, len(w.phases))
	for i, p := range w.phases {
		kinds[i] = p.kind.String()
	}
	algo := "linear"
	if w.Tree {
		algo = "tree"
	}
	return fmt.Sprintf("seed=%d ranks=%d net=%d coll=%s phases=[%s] failures=%q",
		w.Seed, w.Ranks, w.NetVariant, algo, strings.Join(kinds, " "), w.Failures.String())
}

// tagBase returns the tag namespace of phase pi; phases never share tags.
func tagBase(pi int) int { return (pi + 1) * 1_000_000 }

// Generate derives a workload from the seed.
func Generate(seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	w := &Workload{
		Seed:       seed,
		Ranks:      2 + rng.Intn(7), // 2..8
		Tree:       rng.Intn(2) == 1,
		NetVariant: rng.Intn(4),
	}
	if rng.Intn(3) == 0 {
		w.callOverhead = vclock.Duration(1+rng.Intn(5)) * 100 * vclock.Nanosecond
	}
	nPhases := 2 + rng.Intn(3)
	for pi := 0; pi < nPhases; pi++ {
		w.phases = append(w.phases, w.genPhase(rng, pi))
	}
	// Just under half the seeds inject one or two failures somewhere in
	// (or after) the run, exercising detection, wild-receive timeouts and
	// the bail-without-Finalize cascade.
	if rng.Intn(100) < 45 {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			w.Failures = append(w.Failures, xsim.Injection{
				Rank: rng.Intn(w.Ranks),
				At:   xsim.Time(rng.Int63n(int64(300 * vclock.Microsecond))),
			})
		}
	}
	return w
}

// genPhase builds one phase. Tags are unique per destination within a
// phase (except storm phases, where every receive is fully wild and tags
// are free to collide).
func (w *Workload) genPhase(rng *rand.Rand, pi int) phase {
	base := tagBase(pi)
	switch k := phaseKind(rng.Intn(int(numPhaseKinds))); k {
	case phaseP2P, phaseStorm:
		ph := phase{kind: k}
		tagCount := make([]int, w.Ranks)
		for n := w.Ranks * (2 + rng.Intn(3)); n > 0; n-- {
			src := rng.Intn(w.Ranks)
			dst := rng.Intn(w.Ranks - 1)
			if dst >= src {
				dst++
			}
			m := p2pMsg{
				src:     src,
				dst:     dst,
				tag:     base + tagCount[dst],
				size:    msgSize(rng),
				payload: rng.Intn(2) == 0,
				pre:     vclock.Duration(rng.Intn(20)) * vclock.Microsecond,
			}
			tagCount[dst]++
			if k == phaseStorm {
				m.wildSrc, m.anyTag = true, true
				if rng.Intn(2) == 0 {
					m.tag = base + rng.Intn(4) // colliding tags are fine when fully wild
				}
			} else {
				m.wildSrc = rng.Intn(100) < 30
			}
			if m.payload && m.size > 4096 {
				m.size = 4096
			}
			ph.msgs = append(ph.msgs, m)
		}
		return ph
	case phaseColl:
		ph := phase{kind: phaseColl}
		for n := 2 + rng.Intn(4); n > 0; n-- {
			ph.colls = append(ph.colls, collOp{
				kind: collKind(rng.Intn(int(numCollKinds))),
				root: rng.Intn(w.Ranks),
				size: 1 + rng.Intn(200),
				op:   rng.Intn(3),
			})
		}
		return ph
	case phaseCompute:
		ph := phase{kind: phaseCompute, steps: make([][]computeStep, w.Ranks)}
		for r := range ph.steps {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				ph.steps[r] = append(ph.steps[r], computeStep{
					d:     vclock.Duration(1+rng.Intn(50)) * vclock.Microsecond,
					sleep: rng.Intn(3) == 0,
				})
			}
		}
		return ph
	case phaseProbe:
		// Disjoint sender→receiver pairs: a probe-phase rank is either a
		// sender or a receiver, never both, so blocking Send/Probe chains
		// cannot form cycles.
		ph := phase{kind: phaseProbe}
		perm := rng.Perm(w.Ranks)
		tags := 0
		for i := 0; i+1 < len(perm) && i < 4; i += 2 {
			snd, rcv := perm[i], perm[i+1]
			for n := 1 + rng.Intn(3); n > 0; n-- {
				ph.msgs = append(ph.msgs, p2pMsg{
					src:     snd,
					dst:     rcv,
					tag:     base + tags,
					size:    msgSize(rng),
					payload: rng.Intn(2) == 0,
					pre:     vclock.Duration(rng.Intn(10)) * vclock.Microsecond,
				})
				tags++
			}
		}
		return ph
	default:
		return phase{kind: phaseCancel, cancels: 1 + rng.Intn(3)}
	}
}

// msgSize draws a payload size spanning the eager/rendezvous split of
// every net variant (thresholds 256 and 32).
func msgSize(rng *rand.Rand) int {
	switch rng.Intn(3) {
	case 0:
		return rng.Intn(64)
	case 1:
		return 64 + rng.Intn(512)
	default:
		return 1024 + rng.Intn(8192)
	}
}

// net builds the workload's network model.
func (w *Workload) net() *netmodel.Model {
	m := &netmodel.Model{
		Topo: topology.NewFullyConnected(w.Ranks),
		System: netmodel.LinkParams{
			Latency:          vclock.Microsecond,
			Bandwidth:        1e9,
			DetectionTimeout: 500 * vclock.Microsecond,
		},
		OnNode: netmodel.LinkParams{
			Latency:          vclock.Microsecond,
			Bandwidth:        1e9,
			DetectionTimeout: 500 * vclock.Microsecond,
		},
		EagerThreshold: 256,
	}
	switch w.NetVariant {
	case 1:
		// Endpoint contention: concurrent transfers serialise at the NICs,
		// making same-virtual-time handler ordering observable.
		m.InjectBandwidth, m.EjectBandwidth = 2e9, 2e9
	case 2:
		// Ring (degenerate torus): multi-hop latencies.
		m.Topo = topology.NewTorus3D(w.Ranks, 1, 1)
	case 3:
		// Rendezvous-heavy: tiny eager threshold plus software overhead.
		m.EagerThreshold = 32
		m.SoftwareOverhead = 200 * vclock.Nanosecond
	}
	return m
}

// Outcome is everything a run must reproduce bit-identically at any
// worker count.
type Outcome struct {
	SimTime, MinTime, AvgTime  xsim.Time
	Completed, Failed, Aborted int
	PerRank                    []xsim.Time
	Deaths                     []string
	Busy, Waited               []xsim.Duration
	Digests                    []uint64
	Errs                       []string

	EagerMsgs, EagerBytes, RdvMsgs, RdvBytes, CollectiveOps uint64
	UnexpectedMax                                           int
	Failures                                                []xsim.FailureMetric
}

// simConfig builds the simulation configuration shared by the closure
// and program execution modes.
func (w *Workload) simConfig(workers int) xsim.Config {
	cfg := xsim.Config{
		Ranks:        w.Ranks,
		Workers:      workers,
		Net:          w.net(),
		Failures:     w.Failures,
		CallOverhead: w.callOverhead,
		Validate:     true,
	}
	if w.Tree {
		cfg.Collectives = mpi.Tree
	}
	return cfg
}

// outcome folds a run's result and the per-rank observations into the
// comparable Outcome.
func (w *Workload) outcome(res *xsim.Result, digests []uint64, errs []string) *Outcome {
	return &Outcome{
		SimTime: res.SimTime, MinTime: res.MinTime, AvgTime: res.AvgTime,
		Completed: res.Completed, Failed: res.Failed, Aborted: res.Aborted,
		PerRank: res.PerRank, Deaths: res.Deaths,
		Busy: res.Busy, Waited: res.Waited,
		Digests: digests, Errs: errs,
		EagerMsgs: res.MPI.EagerMsgs, EagerBytes: res.MPI.EagerBytes,
		RdvMsgs: res.MPI.RendezvousMsgs, RdvBytes: res.MPI.RendezvousBytes,
		CollectiveOps: res.MPI.CollectiveOps,
		UnexpectedMax: res.MPI.UnexpectedMax,
		Failures:      res.MPI.Failures,
	}
}

// Run executes the workload in closure mode at the given worker count,
// with invariant checks enabled, and returns its outcome.
func (w *Workload) Run(workers int) (*Outcome, error) { return w.run(workers, false) }

// RunProg executes the workload in program mode: the same per-rank script
// as Run, walked by a resumable state machine instead of goroutine-blocking
// calls. A correct engine produces a bit-identical Outcome from both, so
// Diff(Run(...), RunProg(...)) == "" checks the two drivers (Env.Block on a
// goroutine, the scheduler stepping a parked program) against each other.
func (w *Workload) RunProg(workers int) (*Outcome, error) { return w.run(workers, true) }

// run builds the simulation, walks every rank's script in one of the two
// modes, and folds the result into the comparable Outcome.
func (w *Workload) run(workers int, prog bool) (*Outcome, error) {
	sim, err := xsim.New(w.simConfig(workers))
	if err != nil {
		return nil, err
	}
	digests := make([]uint64, w.Ranks)
	errs := make([]string, w.Ranks)
	newRank := func(rank int) *rankRun {
		return &rankRun{w: w, rank: rank, ops: w.script(rank), d: newDigest(), digests: digests, errs: errs}
	}
	var res *xsim.Result
	if prog {
		res, err = sim.RunProgs(func(rank int) xsim.Prog { return newRank(rank) })
	} else {
		res, err = sim.Run(func(e *xsim.Env) { newRank(e.Rank()).runClosure(e) })
	}
	if err != nil {
		return nil, err
	}
	return w.outcome(res, digests, errs), nil
}

// Diff compares two outcomes field by field and describes the first
// difference, or returns "" when they are identical.
func Diff(a, b *Outcome) string {
	if d := cmpTimes("SimTime", a.SimTime, b.SimTime); d != "" {
		return d
	}
	if d := cmpTimes("MinTime", a.MinTime, b.MinTime); d != "" {
		return d
	}
	if d := cmpTimes("AvgTime", a.AvgTime, b.AvgTime); d != "" {
		return d
	}
	if a.Completed != b.Completed || a.Failed != b.Failed || a.Aborted != b.Aborted {
		return fmt.Sprintf("termination counts differ: %d/%d/%d vs %d/%d/%d (completed/failed/aborted)",
			a.Completed, a.Failed, a.Aborted, b.Completed, b.Failed, b.Aborted)
	}
	for r := range a.PerRank {
		if a.PerRank[r] != b.PerRank[r] {
			return fmt.Sprintf("rank %d final clock differs: %v vs %v", r, a.PerRank[r], b.PerRank[r])
		}
		if a.Deaths[r] != b.Deaths[r] {
			return fmt.Sprintf("rank %d termination differs: %s vs %s", r, a.Deaths[r], b.Deaths[r])
		}
		if a.Busy[r] != b.Busy[r] || a.Waited[r] != b.Waited[r] {
			return fmt.Sprintf("rank %d busy/waited differ: %v/%v vs %v/%v",
				r, a.Busy[r], a.Waited[r], b.Busy[r], b.Waited[r])
		}
		if a.Digests[r] != b.Digests[r] {
			return fmt.Sprintf("rank %d observation digest differs: %#x vs %#x (errs %q vs %q)",
				r, a.Digests[r], b.Digests[r], a.Errs[r], b.Errs[r])
		}
		if a.Errs[r] != b.Errs[r] {
			return fmt.Sprintf("rank %d error differs: %q vs %q", r, a.Errs[r], b.Errs[r])
		}
	}
	if a.EagerMsgs != b.EagerMsgs || a.EagerBytes != b.EagerBytes ||
		a.RdvMsgs != b.RdvMsgs || a.RdvBytes != b.RdvBytes ||
		a.CollectiveOps != b.CollectiveOps || a.UnexpectedMax != b.UnexpectedMax {
		return fmt.Sprintf("MPI metrics differ: eager %d/%d rdv %d/%d coll %d unexp %d vs eager %d/%d rdv %d/%d coll %d unexp %d",
			a.EagerMsgs, a.EagerBytes, a.RdvMsgs, a.RdvBytes, a.CollectiveOps, a.UnexpectedMax,
			b.EagerMsgs, b.EagerBytes, b.RdvMsgs, b.RdvBytes, b.CollectiveOps, b.UnexpectedMax)
	}
	if len(a.Failures) != len(b.Failures) {
		return fmt.Sprintf("failure metric counts differ: %d vs %d", len(a.Failures), len(b.Failures))
	}
	for i := range a.Failures {
		if a.Failures[i] != b.Failures[i] {
			return fmt.Sprintf("failure metric %d differs: %+v vs %+v", i, a.Failures[i], b.Failures[i])
		}
	}
	return ""
}

func cmpTimes(name string, a, b xsim.Time) string {
	if a != b {
		return fmt.Sprintf("%s differs: %v vs %v", name, a, b)
	}
	return ""
}

// digest folds a rank's observations into an order-sensitive hash.
type digest struct {
	h   interface{ Sum64() uint64 }
	buf [8]byte
	w   interface{ Write([]byte) (int, error) }
}

func newDigest() *digest {
	h := fnv.New64a()
	return &digest{h: h, w: h}
}

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.buf[i] = byte(v >> (8 * i))
	}
	d.w.Write(d.buf[:])
}
func (d *digest) num(v int)          { d.u64(uint64(int64(v))) }
func (d *digest) time(t vclock.Time) { d.u64(uint64(t)) }
func (d *digest) bool(b bool)        { d.num(map[bool]int{false: 0, true: 1}[b]) }
func (d *digest) bytes(b []byte)     { d.num(len(b)); d.w.Write(b) }
func (d *digest) str(s string)       { d.bytes([]byte(s)) }
func (d *digest) floats(vs []float64) {
	d.num(len(vs))
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}
func (d *digest) msg(m *xsim.Message) { d.num(m.Src); d.num(m.Tag); d.num(m.Size); d.bytes(m.Data) }
func (d *digest) sum() uint64         { return d.h.Sum64() }

// fill produces deterministic payload bytes.
func fill(seed, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 12345
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// fillF64 produces a deterministic reduction contribution.
func fillF64(seed, n int) []float64 {
	out := make([]float64, n)
	x := uint32(seed)*2654435761 + 99991
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = float64(int32(x)) / 65536.0
	}
	return out
}

// permFor returns the deterministic wait-order permutation of rank's
// requests in phase pi — a function of the workload only, so every worker
// count replays the same wait order.
func permFor(seed int64, pi, rank, n int) []int {
	h := seed*1000003 + int64(pi)*8191 + int64(rank)*131 + 7
	return rand.New(rand.NewSource(h)).Perm(n)
}
