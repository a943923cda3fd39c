package bench

import (
	_ "embed" // testdata/golden.json
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// options are the knobs of one harness invocation.
type options struct {
	Seed    int64
	Seconds int
	Quick   bool
	Trace   bool
	// Scratch is the directory for the served workload's result store.
	Scratch string
	Stderr  io.Writer
}

func (o options) inputs() inputs {
	return inputs{Seed: o.Seed, Quick: o.Quick, Scratch: o.Scratch}
}

//go:embed testdata/golden.json
var goldenJSON []byte

// golden is one workload's expected outcome at DefaultSeed.
type golden struct {
	Digest  string          `json:"digest"`
	Outcome json.RawMessage `json:"outcome"`
}

// goldenFile maps scale ("full", "quick") and workload to its golden.
type goldenFile map[string]map[string]golden

func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

func loadGoldens() (goldenFile, error) {
	var g goldenFile
	if err := decodeStrict(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: testdata/golden.json: %w", err)
	}
	return g, nil
}

// checkGolden compares a digest taken at DefaultSeed with the golden,
// counting the comparison as one more checked operation.
func checkGolden(res *WorkloadResult, quick bool) error {
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	want, ok := g[scaleName(quick)][res.Name]
	res.Attempted++
	if !ok {
		res.Failed++
		return fmt.Errorf("%s: no %s-scale golden at seed %d", res.Name, scaleName(quick), DefaultSeed)
	}
	if want.Digest != res.SimDigest {
		res.Failed++
		return fmt.Errorf("%s: sim_digest %.16s… differs from the seed-%d golden %.16s…", res.Name, res.SimDigest, DefaultSeed, want.Digest)
	}
	return nil
}

// repetitions is what the children of one pass measured.
type repetitions []*childReport

func (rs repetitions) column(f func(*childReport) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func (rs repetitions) walls() []float64 {
	return rs.column(func(r *childReport) float64 { return r.WallS })
}

func medianSample(unit string, values []float64) Sample {
	return Sample{Value: median(values), Unit: unit, Values: values}
}

// repeat runs the workload in fresh children until their timed regions
// add up to budget seconds (at least once). With traced set, every
// untraced child is followed by a traced one, so the two sides see the
// same host conditions. It folds the children's checks into res and
// requires every repetition's digest to be the same.
func repeat(w workload, opt options, budget float64, traced bool, res *WorkloadResult) (plain, withSpans repetitions, err error) {
	fold := func(r *childReport) {
		res.Attempted += r.Attempted + 1 // the digest comparison is one more check
		res.Failed += r.Failed
		for _, note := range r.Notes {
			fmt.Fprintf(opt.Stderr, "xsim-bench: %s\n", note)
		}
		if res.SimDigest == "" {
			res.SimDigest = r.Digest
		} else if r.Digest != res.SimDigest {
			res.Failed++
			fmt.Fprintf(opt.Stderr, "xsim-bench: %s: sim_digest changed between repetitions: %.16s… then %.16s…\n", w.Name, res.SimDigest, r.Digest)
		}
	}
	job := childJob{Mode: "workload", Workload: w.Name, Inputs: opt.inputs(), Verify: true}
	for measured := 0.0; len(plain) == 0 || measured < budget; {
		job.Trace = false
		r, err := runChild(job, opt.Stderr)
		if err != nil {
			return nil, nil, err
		}
		fold(r)
		plain = append(plain, r)
		measured += r.WallS
		job.Verify = false // once per pass is enough
		if traced {
			job.Trace = true
			if r, err = runChild(job, opt.Stderr); err != nil {
				return nil, nil, err
			}
			fold(r)
			withSpans = append(withSpans, r)
		}
	}
	if opt.Seed == DefaultSeed {
		if err := checkGolden(res, opt.Quick); err != nil {
			fmt.Fprintf(opt.Stderr, "xsim-bench: %v\n", err)
		}
	}
	return plain, withSpans, nil
}

// workloadSamples are the end-to-end metrics that exist on this workload
// only, from its untraced repetitions.
func workloadSamples(reps repetitions, res *WorkloadResult) map[string]Sample {
	out := map[string]Sample{
		"failed_share": {Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"},
	}
	last := reps[len(reps)-1]
	if last.Counts.Events > 0 {
		out["sim_events_per_s"] = medianSample("1/s", reps.column(func(r *childReport) float64 {
			return float64(r.Counts.Events) / r.WallS
		}))
	}
	for _, d := range workloadMetrics {
		if _, ok := last.Extra[d.Name]; ok {
			out[d.Name] = medianSample(d.Unit, reps.column(func(r *childReport) float64 { return r.Extra[d.Name] }))
		}
	}
	return out
}

// measureEndToEnd runs one workload's end-to-end pass, tracing off.
func measureEndToEnd(w workload, opt options) (*WorkloadResult, error) {
	res := &WorkloadResult{Name: w.Name}
	reps, _, err := repeat(w, opt, float64(opt.Seconds), false, res)
	if err != nil {
		return nil, err
	}
	res.EndToEnd = map[string]Sample{
		"wall_s":      medianSample("s", reps.walls()),
		"setup_s":     medianSample("s", reps.column(func(r *childReport) float64 { return r.SetupS })),
		"cpu_s":       medianSample("s", reps.column(func(r *childReport) float64 { return r.CPUS })),
		"peak_rss_mb": medianSample("MiB", reps.column(func(r *childReport) float64 { return r.PeakRSSMiB })),
	}
	for name, s := range workloadSamples(reps, res) {
		res.EndToEnd[name] = s
	}
	return res, nil
}

// measureLayers runs the per-layer drivers in a child of their own.
func measureLayers(opt options) (map[string]float64, error) {
	report, err := runChild(childJob{Mode: "layers", Inputs: opt.inputs()}, opt.Stderr)
	if err != nil {
		return nil, err
	}
	return report.Layers, nil
}

// measureTraced runs one workload's traced pass — untraced and traced
// children alternating over half the run's seconds — and combines it
// with the layer drivers' unit costs into the per-layer metrics. It
// returns the spans of the last traced repetition.
func measureTraced(w workload, opt options, layers map[string]float64) (*WorkloadResult, []Span, error) {
	res := &WorkloadResult{Name: w.Name, EndToEnd: map[string]Sample{}}
	reps, tracedReps, err := repeat(w, opt, float64(opt.Seconds)/2, true, res)
	if err != nil {
		return nil, nil, err
	}

	per := make(map[string]Sample)
	set := func(name string, v float64) {
		d := metricByName[name]
		if d.Parallel && runtime.GOMAXPROCS(0) < 2 {
			return
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		per[name] = Sample{Value: v, Unit: d.Unit}
	}
	// Every declared metric is reported; one that does not apply to this
	// workload (latencies on a simulation, pool counters on a single run)
	// reads 0.
	for _, d := range perLayerMetrics() {
		set(d.Name, 0)
	}
	for name, v := range layers {
		set(name, v)
	}
	for name, s := range workloadSamples(reps, res) {
		per[name] = s
	}
	c := reps[len(reps)-1].Counts
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	set("core.events_dispatched", float64(c.Events))
	set("core.event_pool_hit_ratio", ratio(c.EventPoolHits, c.EventPoolMiss))
	set("core.barrier_rounds", float64(c.BarrierRounds))
	if c.BarrierRounds > 0 {
		set("core.events_per_window", float64(c.Events)/float64(c.BarrierRounds))
		set("core.cross_event_share", float64(c.CrossEvents)/float64(c.Events))
	}
	set("mpi.eager_msgs", float64(c.EagerMsgs))
	set("mpi.unexpected_max", float64(c.UnexpectedMax))
	set("mpi.msg_pool_hit_ratio", ratio(c.MsgPoolHits, c.MsgPoolMiss))
	set("service.cache_hits", float64(c.CacheHits))
	set("service.sim_runs", float64(c.SimRuns))
	set("service.dedup_joins", float64(c.DedupJoins))

	wall := median(reps.walls())
	cpu := median(reps.column(func(r *childReport) float64 { return r.CPUS }))
	set("bench.trace_overhead_share", (median(tracedReps.walls())-wall)/wall)
	if c.RankIters > 0 {
		set("heat.rank_iters_per_s", float64(c.RankIters)/wall)
	}
	if c.PoolSlots > 0 && c.PoolRuns > 0 {
		set("runner.queue_wait_share", c.QueueWait.Seconds()/(c.QueueWait+c.RunWall).Seconds())
		set("runner.pool_efficiency", c.RunWall.Seconds()/(float64(c.PoolSlots)*c.PoolWall.Seconds()))
	}
	if c.Events > 0 {
		set("bench.attributed_share", attributedSeconds(c, layers)/cpu)
	}
	res.PerLayer = per
	spans := tracedReps[len(tracedReps)-1].Spans
	res.Spans = summarizeSpans(spans)
	return res, spans, nil
}

// attributedSeconds prices a repetition's exact counts at the layer
// drivers' unit costs: the CPU seconds the per-layer rows explain. What
// remains of cpu_s is garbage collection, scheduling and whatever no row
// covers.
func attributedSeconds(c counts, layers map[string]float64) float64 {
	mode := ".prog"
	if c.Closure {
		mode = ".closure"
	}
	// A linear barrier is two messages per rank; the rest of the eager
	// traffic is halo faces, priced at a sixth of a six-neighbour step.
	collMsgs := 2 * c.Collectives
	if collMsgs > c.EagerMsgs {
		collMsgs = c.EagerMsgs
	}
	timers := uint64(0)
	if c.Events > c.EagerMsgs {
		timers = c.Events - c.EagerMsgs
	}
	ns := float64(c.EagerMsgs-collMsgs)*layers["mpi.halo_step_ns_per_rank"+mode]/6 +
		float64(c.Collectives)*layers["mpi.barrier_ns_per_rank"+mode] +
		float64(timers)*layers["core.dispatch_ns_per_event"] +
		float64(c.RankIters)*layers["heat.compute_iter_ns"] +
		float64(c.WorldVPs)*layers["core.spawn_ns_per_vp"+mode] +
		1e3*(float64(c.CkptWrites)*layers["checkpoint.write_us"]+
			float64(c.CkptReads)*layers["checkpoint.read_us"]+
			float64(c.CkptDeletes)*layers["checkpoint.delete_us"])
	return ns / 1e9
}

// withScratch creates the scratch directory under the working directory
// (the benchmark writes nowhere else), runs f, and removes it.
func withScratch(f func(dir string) error) error {
	dir, err := os.MkdirTemp(".", ".xsim-bench-")
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(dir)
	return f(dir)
}
