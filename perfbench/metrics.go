package main

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run (--trace 0): what a user of
// the optimizer sees.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"requests_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"ok_frac", "share"},
	{"allocs_per_req", "count"},
	{"mem_mib", "MiB"},
	{"plan_ec_mean", "pages"},
	{"lec_lsc_io_ratio", "ratio"},
}

// layerSpec is a per-layer metric with what it should move: the
// end-to-end metrics ("none" for a health or overhead figure) and the
// workload where the effect shows.
type layerSpec struct {
	metricSpec
	moves, on string
}

// perLayer are the metrics of a traced run (--trace 1): one layer each.
// A layer a workload does not call reads 0 on it.
var perLayer = []layerSpec{
	{metricSpec{"sqlmini.parse_us", "us"}, "latency_p99_us requests_per_s", "hit-heavy"},
	{metricSpec{"query.canonical_us", "us"}, "latency_p50_us requests_per_s allocs_per_req", "hit-heavy"},
	{metricSpec{"plancache.key_us", "us"}, "latency_p50_us requests_per_s allocs_per_req", "hit-heavy"},
	{metricSpec{"plancache.key_allocs", "count"}, "allocs_per_req", "hit-heavy"},
	{metricSpec{"plancache.probe_us", "us"}, "latency_p50_us requests_per_s", "hit-heavy"},
	{metricSpec{"core.overhead_us", "us"}, "latency_p50_us requests_per_s allocs_per_req", "hit-heavy"},
	{metricSpec{"optimizer.dp_us", "us"}, "latency_p50_us latency_p99_us requests_per_s", "miss-heavy"},
	{metricSpec{"optimizer.dp_p99_us", "us"}, "latency_p99_us", "miss-heavy"},
	{metricSpec{"optimizer.dp_allocs", "count"}, "allocs_per_req", "miss-heavy"},
	{metricSpec{"optimizer.candidates", "count"}, "latency_p50_us requests_per_s", "miss-heavy"},
	{metricSpec{"optimizer.lsc_dp_us", "us"}, "none (same-run base of optimizer.lec_over_lsc)", "miss-heavy"},
	{metricSpec{"optimizer.lec_over_lsc", "ratio"}, "none (the paper's LEC-over-LSC constant factor)", "miss-heavy"},
	// plan.clone_us times a Clone the benchmark replays: the optimizer
	// clones its plan out of its arena inside optimizer.dp_us, and the
	// handle makes no clone of its own.
	{metricSpec{"plan.clone_us", "us"}, "latency_p50_us allocs_per_req", "miss-heavy"},
	{metricSpec{"plan.nodes", "count"}, "latency_p50_us allocs_per_req", "miss-heavy"},
	{metricSpec{"plancache.put_us", "us"}, "latency_p50_us allocs_per_req", "miss-heavy"},
	{metricSpec{"plancache.evictions", "1/req"}, "latency_p50_us allocs_per_req", "miss-heavy"},
	{metricSpec{"plancache.hit_rate", "share"}, "none (counter health; Observe writes lower it)", "serve-feedback"},
	{metricSpec{"core.cache_hit_share", "share"}, "none (counter health)", "serve-feedback"},
	{metricSpec{"core.uncounted_hits", "count"}, "none (cross-layer counter gap)", "hit-heavy"},
	{metricSpec{"core.batch_us", "us"}, "latency_p50_us requests_per_s", "serve-feedback"},
	{metricSpec{"core.batch_dedup_share", "share"}, "latency_p50_us requests_per_s", "serve-feedback"},
	{metricSpec{"envsim.sample_us", "us"}, "latency_p50_us requests_per_s", "serve-feedback"},
	{metricSpec{"storage.drop_us", "us"}, "latency_p50_us requests_per_s", "serve-feedback"},
	{metricSpec{"engine.exec_us", "us"}, "latency_p50_us latency_p99_us requests_per_s", "serve-feedback"},
	{metricSpec{"engine.exec_p99_us", "us"}, "latency_p99_us", "serve-feedback"},
	{metricSpec{"engine.io_pages", "pages"}, "lec_lsc_io_ratio (must not move under a pure speed-up)", "serve-feedback"},
	{metricSpec{"engine.grace_fallbacks", "count"}, "lec_lsc_io_ratio (must not move under a pure speed-up)", "serve-feedback"},
	{metricSpec{"buffer.reads", "pages"}, "lec_lsc_io_ratio (must not move under a pure speed-up)", "serve-feedback"},
	{metricSpec{"buffer.writes", "pages"}, "lec_lsc_io_ratio (must not move under a pure speed-up)", "serve-feedback"},
	{metricSpec{"buffer.hit_rate", "share"}, "lec_lsc_io_ratio (must not move under a pure speed-up)", "serve-feedback"},
	{metricSpec{"feedback.observe_us", "us"}, "requests_per_s", "serve-feedback"},
	{metricSpec{"feedback.queries", "count"}, "requests_per_s", "serve-feedback"},
	{metricSpec{"feedback.observations", "count"}, "requests_per_s", "serve-feedback"},
	{metricSpec{"storage.build_s", "s"}, "setup_s", "serve-feedback"},
	{metricSpec{"core.elapsed_share", "share"}, "none (how much of a request Response.Elapsed covers)", "all"},
	{metricSpec{"runtime.gc_cycles", "1/kreq"}, "latency_p99_us", "miss-heavy"},
	{metricSpec{"runtime.gc_pause_ms", "ms/kreq"}, "latency_p99_us", "miss-heavy"},
	{metricSpec{"trace.overhead_frac", "share"}, "none (traced over untraced time per request)", "all"},
}
