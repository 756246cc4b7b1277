package main

import "tenways/internal/core"

// perLayer is the traced run's metric set, the same for every workload: a
// layer the workload does not exercise reads 0. README.md maps each one to
// the end-to-end metric and workload it should move.
func perLayer() []metric {
	ids := core.NewLab().IDs()
	out := make([]metric, 0, len(ids)+len(layerMetrics))
	for _, id := range ids {
		out = append(out, metric{"exp." + id + "_s", "s", "lower"})
	}
	return append(out, layerMetrics...)
}

var layerMetrics = []metric{
	// internal/core and its substrates, on suite-full.
	{"mem.wall_s", "s", "lower"},
	{"pgas.wall_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"pdes.suite_wall_s", "s", "lower"},
	{"pdes.suite_ns_per_event", "ns", "lower"},
	{"tune.wall_s", "s", "lower"},
	{"tune.evaluations", "count", "lower"},
	{"tune.ms_per_eval", "ms", "lower"},
	{"lint.wall_s", "s", "lower"},
	{"core.selfprof_s", "s", "lower"},
	// internal/pdes, on pdes-phold.
	{"pdes.windows", "count", "lower"},
	{"pdes.stall_frac", "frac", "lower"},
	{"pdes.cross_frac", "frac", "lower"},
	{"pdes.events_per_window", "count", "higher"},
	{"pdes.cross_batches", "count", "lower"},
	{"pdes.chunk_allocs", "count", "lower"},
	{"pdes.ladder_respreads", "count", "lower"},
	{"pdes.ns_per_event", "ns", "lower"},
	{"pdes.speedup_w1", "x", "higher"},
	// internal/serve, internal/cache and internal/obs, on daemon-zipf.
	{"serve.hit_frac", "frac", "higher"},
	{"serve.coalesced", "count", "higher"},
	{"serve.rejected_429", "count", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_tail_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_tail_ms", "ms", "lower"},
	{"lab.runs", "count", "lower"},
	{"lab.runs_per_miss", "count", "lower"},
	{"lab.run_p50_ms", "ms", "lower"},
	{"lab.run_tail_ms", "ms", "lower"},
	{"serve.self_p50_ms", "ms", "lower"},
	{"serve.queue_wait_tail_ms", "ms", "lower"},
	{"gen.late_tail_ms", "ms", "lower"},
	// Whole process and the tracer itself, on every workload.
	{"proc.peak_rss_mb", "MB", "lower"},
	{"fail_frac", "frac", "lower"},
	{"trace.spans", "count", "lower"},
	{"traced.p50_ms", "ms", "lower"},
	{"traced.mean_ms", "ms", "lower"},
	{"traced.tail_ms", "ms", "lower"},
	{"traced.ops_per_s", "1/s", "higher"},
}
