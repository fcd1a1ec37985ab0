package main

// metricDef is a metric name and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run with tracing off prints, on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"goodput_rps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"cost_ratio", "ratio"},
}

// spanNames are the spans the program already records; the traced run
// reports each one's total and self time per operation.
var spanNames = []string{
	"trace.decode",
	"graph.freeze.build",
	"graph.canon.build",
	"graph.delta.apply",
	"core.anneal.chain",
	"sim.run",
	"serve.job.run",
	"serve.wal.append",
	"serve.stream.append",
	"bench.experiment",
}

// perLayer are the metrics the traced run prints, on every workload. A
// layer that the workload's operations never reach reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, name := range benchLayers() {
		defs = append(defs, metricDef{name, "s"})
	}
	defs = append(defs,
		metricDef{"core.insertion_ms", "ms"},
		metricDef{"core.portaware_ms", "ms"},
		metricDef{"core.propose_ms", "ms"},
		metricDef{"core.anneal_ms", "ms"},
		metricDef{"core.anneal.iterations_per_op", "count"},
		metricDef{"core.session_append_ms", "ms"},
		metricDef{"core.session.rounds_per_op", "count"},
		metricDef{"cost.linear_us", "us"},
		metricDef{"cost.multiport_us", "us"},
		metricDef{"sim.run_ms", "ms"},
		metricDef{"graph.build_ms", "ms"},
		metricDef{"graph.canon_ms", "ms"},
		metricDef{"graph.apply_deltas_us", "us"},
		metricDef{"trace.decode_ms", "ms"},
		metricDef{"placecache.get_us", "us"},
		metricDef{"placecache.hit_ratio", "ratio"},
		metricDef{"wal.fsync_ms", "ms"},
		metricDef{"wal.appends_per_op", "count"},
		metricDef{"serve.queue_wait_ms", "ms"},
		metricDef{"serve.job_wall_ms", "ms"},
		metricDef{"serve.stream_append_ms", "ms"},
		metricDef{"serve.residual_ms", "ms"},
		metricDef{"client.submit_ms", "ms"},
		metricDef{"client.poll_ms", "ms"},
		metricDef{"client.polls_per_op", "count"},
		metricDef{"client.append_ms", "ms"},
		metricDef{"client.retries", "count"},
		metricDef{"obs.trace_overhead_pct", "%"},
		metricDef{"obs.spans_dropped", "count"},
	)
	for _, s := range spanNames {
		defs = append(defs,
			metricDef{"span." + s + ".ms_per_op", "ms"},
			metricDef{"span." + s + ".self_ms_per_op", "ms"})
	}
	return defs
}()
