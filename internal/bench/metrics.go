package bench

// MetricDef declares one metric the harness reports.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which the metric may
	// worsen before -compare calls it worse; 0 for metrics that are only
	// reported.
	Bound float64
	// Floor is an absolute change, in the metric's unit, below which a
	// worsening is never called a regression (set-up times are a fraction
	// of a second, where a quarter is scheduling noise).
	Floor float64
	// Exact marks counts the simulator makes itself: they must repeat
	// exactly between two runs of the same inputs, and -compare fails on
	// any difference.
	Exact bool
	// Parallel marks metrics that describe the parallel engine or the
	// campaign pool; the harness refuses to emit them when GOMAXPROCS < 2.
	Parallel bool
}

// endToEndMetrics are measured with tracing off on every workload; they
// are BENCHMARK.json's end_to_end list. The bounds are three times the
// run-to-run spread seen on the two-processor sandbox, whose speed drifts
// by several percent over minutes whatever the harness does.
var endToEndMetrics = []MetricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.1},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
}

// workloadMetrics are end-to-end quantities that exist on some workloads
// only (events/s on the simulation workloads, latencies on the served
// one). The driver wants every end_to_end metric from every workload, so
// BENCHMARK.json lists these under per_layer, where a workload they do
// not apply to reports 0; -compare still holds them to their bounds on
// the workloads that have them.
var workloadMetrics = []MetricDef{
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "cold_campaigns_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "cold_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "hit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "hit_p99_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "hits_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
}

// layerMetrics are measured by timing calls into each layer's public
// functions (layers.go) or read from the counters a workload's result
// carries. Names are <module>.<metric>.
var layerMetrics = []MetricDef{
	{Name: "core.dispatch_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.step_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "core.handoff_allocs", Unit: "count", Better: "lower"},
	{Name: "core.spawn_ns_per_vp.closure", Unit: "ns", Better: "lower"},
	{Name: "core.spawn_ns_per_vp.prog", Unit: "ns", Better: "lower"},
	{Name: "core.par_speedup_w2", Unit: "ratio", Better: "higher", Parallel: true},
	{Name: "core.par_speedup_w2.table2", Unit: "ratio", Better: "higher", Parallel: true},
	{Name: "core.events_per_window", Unit: "count", Better: "higher"},
	{Name: "core.barrier_rounds", Unit: "count", Better: "lower"},
	{Name: "core.cross_event_share", Unit: "ratio", Better: "lower"},
	{Name: "core.events_dispatched", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.event_pool_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "mpi.pingpong_eager_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_rdv_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.pingpong_eager_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.pingpong_rdv_allocs", Unit: "count", Better: "lower"},
	{Name: "mpi.wildcard_match_ns", Unit: "ns", Better: "lower"},
	{Name: "mpi.halo_step_ns_per_rank.closure", Unit: "ns", Better: "lower"},
	{Name: "mpi.halo_step_ns_per_rank.prog", Unit: "ns", Better: "lower"},
	{Name: "mpi.msgs_per_s.prog", Unit: "1/s", Better: "higher"},
	{Name: "mpi.barrier_ns_per_rank.closure", Unit: "ns", Better: "lower"},
	{Name: "mpi.barrier_ns_per_rank.prog", Unit: "ns", Better: "lower"},
	{Name: "mpi.allreduce_tree_ns_per_rank.closure", Unit: "ns", Better: "lower"},
	{Name: "mpi.allreduce_tree_ns_per_rank.prog", Unit: "ns", Better: "lower"},
	{Name: "mpi.bytes_per_vp_peak", Unit: "B", Better: "lower"},
	{Name: "mpi.bytes_per_vp_retained", Unit: "B", Better: "lower"},
	{Name: "mpi.eager_msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.unexpected_max", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.msg_pool_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "checkpoint.write_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.read_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.delete_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.latest_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.codec_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "fsmodel.create_ns", Unit: "ns", Better: "lower"},
	{Name: "fsmodel.writer_append_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "fsmodel.tiered_commit_ns", Unit: "ns", Better: "lower"},

	{Name: "heat.compute_iter_ns", Unit: "ns", Better: "lower"},
	{Name: "heat.rank_iters_per_s", Unit: "1/s", Better: "higher"},

	{Name: "xsim.new_ms_32k", Unit: "ms", Better: "lower"},

	{Name: "runner.task_overhead_us", Unit: "us", Better: "lower"},
	{Name: "runner.pool_speedup_p2", Unit: "ratio", Better: "higher", Parallel: true},
	{Name: "runner.queue_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "runner.pool_efficiency", Unit: "ratio", Better: "higher"},

	{Name: "wire.decode_validate_us", Unit: "us", Better: "lower"},
	{Name: "wire.canonical_us", Unit: "us", Better: "lower"},
	{Name: "wire.outcome_canonical_us", Unit: "us", Better: "lower"},

	{Name: "jobstore.mem_put_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.mem_get_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.dir_put_us", Unit: "us", Better: "lower"},
	{Name: "jobstore.dir_get_us", Unit: "us", Better: "lower"},

	{Name: "service.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.cold_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hits", Unit: "count", Better: "higher", Exact: true},
	{Name: "service.sim_runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "service.dedup_joins", Unit: "count", Better: "lower", Exact: true},

	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.pingpong_overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.attributed_share", Unit: "ratio", Better: "higher"},
}

// metricByName indexes every declared metric.
var metricByName = func() map[string]MetricDef {
	m := make(map[string]MetricDef)
	for _, set := range [][]MetricDef{endToEndMetrics, workloadMetrics, layerMetrics} {
		for _, d := range set {
			m[d.Name] = d
		}
	}
	return m
}()

// perLayerMetrics is BENCHMARK.json's per_layer list: the workload-only
// end-to-end metrics followed by the layer metrics.
func perLayerMetrics() []MetricDef {
	return append(append([]MetricDef(nil), workloadMetrics...), layerMetrics...)
}

// buildManifest renders the registry as BENCHMARK.json.
func buildManifest(runSeconds int) *Manifest {
	m := &Manifest{
		Command:    []string{"go", "run", "./cmd/xsim-bench"},
		Paths:      []string{"cmd/xsim-bench", "internal/bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, ManifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEndMetrics {
		m.EndToEnd = append(m.EndToEnd, ManifestBounded{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayerMetrics() {
		m.PerLayer = append(m.PerLayer, ManifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
