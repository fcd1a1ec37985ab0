package main

// Per-layer attribution from the traced pass: span totals and self
// times, the daemon's /metrics diff, and the client's own timings.

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// spanTotals is the summed duration and self time per span name, in ns.
type spanTotals struct {
	count      int
	total, own float64
}

// aggregateSpans sums each span name's duration and self time: its
// duration minus the part of its interval its child spans cover.
func aggregateSpans(spans []obs.SpanRecord) map[string]*spanTotals {
	children := make(map[uint64][]obs.SpanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanTotals)
	for _, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.count++
		t.total += float64(s.DurNS)
		t.own += float64(s.DurNS - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	lo, hi := parent.StartNS, parent.StartNS+parent.DurNS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNS, lo), min(k.StartNS+k.DurNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// addSpanLayers writes span.<name>.ms_per_op and .self_ms_per_op for
// every listed span name (0 where the pass recorded none).
func addSpanLayers(l map[string]float64, spans []obs.SpanRecord, ops float64) {
	agg := aggregateSpans(spans)
	for _, name := range spanNames {
		var total, own float64
		if t := agg[name]; t != nil && ops > 0 {
			total, own = t.total/ops/1e6, t.own/ops/1e6
		}
		l["span."+name+".ms_per_op"] = total
		l["span."+name+".self_ms_per_op"] = own
	}
}

// Series of the daemon's /metrics exposition the traced serve pass
// reads. Each must be present in the scrape: a renamed series would
// otherwise read as 0 and pass for a layer the workload never reached.
const (
	seriesJobWallCount   = "dwm_serve_job_wall_count"
	seriesJobWallNS      = "dwm_serve_job_wall_total_ns"
	seriesQueueWaitCount = "dwm_serve_job_queue_wait_count"
	seriesQueueWaitNS    = "dwm_serve_job_queue_wait_total_ns"
	seriesCacheHits      = "dwm_placecache_hits"
	seriesCacheMisses    = "dwm_placecache_misses"
	seriesWALAppends     = "dwm_serve_wal_appends"
	seriesAnnealIters    = "dwm_core_anneal_iterations"
	seriesSessionRounds  = "dwm_core_session_rounds"
)

var serverSeries = []string{
	seriesJobWallCount, seriesJobWallNS, seriesQueueWaitCount, seriesQueueWaitNS,
	seriesCacheHits, seriesCacheMisses, seriesWALAppends, seriesAnnealIters, seriesSessionRounds,
}

// serverLayers derives the daemon-side and client-side layer metrics of
// a traced serve pass. The residual is the client's mean latency minus
// the server time the daemon accounts for: queue wait plus job wall for
// place requests, the append handler's span for stream appends.
func serverLayers(o *outcome, stream bool, ph *phase) {
	l, m := o.layer, ph.metrics
	for _, name := range serverSeries {
		if _, ok := m[name]; !ok {
			o.problemf("/metrics has no series %s", name)
		}
	}
	var lats, submits, waits []float64
	waited := 0
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		lats = append(lats, s.latMS)
		submits = append(submits, s.submitMS)
		waits = append(waits, s.waitMS)
		if s.waited {
			waited++
		}
	}
	ops := float64(len(lats))
	if ops == 0 {
		return
	}
	per := func(series string) float64 { return m[series] / ops }
	if n := m[seriesJobWallCount]; n > 0 {
		l["serve.job_wall_ms"] = m[seriesJobWallNS] / n / 1e6
	}
	if n := m[seriesQueueWaitCount]; n > 0 {
		l["serve.queue_wait_ms"] = m[seriesQueueWaitNS] / n / 1e6
	}
	if h, ms := m[seriesCacheHits], m[seriesCacheMisses]; h+ms > 0 {
		l["placecache.hit_ratio"] = h / (h + ms)
	}
	l["wal.appends_per_op"] = per(seriesWALAppends)
	l["core.anneal.iterations_per_op"] = per(seriesAnnealIters)
	l["core.session.rounds_per_op"] = per(seriesSessionRounds)
	if stream {
		var appendMS float64
		if t := aggregateSpans(ph.spans)["serve.stream.append"]; t != nil && t.count > 0 {
			appendMS = t.total / float64(t.count) / 1e6
		}
		l["serve.stream_append_ms"] = appendMS
		l["client.append_ms"] = mean(lats)
		l["serve.residual_ms"] = mean(lats) - appendMS
		return
	}
	server := (m[seriesJobWallNS] + m[seriesQueueWaitNS]) / 1e6 / ops
	l["serve.residual_ms"] = mean(lats) - server
	l["client.submit_ms"] = mean(submits)
	l["client.poll_ms"] = mean(waits)
	l["client.polls_per_op"] = (float64(ph.polls) + float64(waited)) / ops
}

// layerChecks is what each workload's traced run, or traced pass, must
// show. moving are the layers its operations reach: each must read above
// 0, so a source that went missing or was renamed fails the run instead
// of reading as "not on this path". exact are layers with a known value.
var layerChecks = map[string]struct {
	moving []string
	exact  map[string]float64
}{
	"suite": {moving: append(benchLayers(),
		"core.insertion_ms", "core.portaware_ms", "core.propose_ms", "core.anneal_ms",
		"core.anneal.iterations_per_op", "cost.linear_us", "cost.multiport_us", "sim.run_ms",
		"graph.build_ms", "span.bench.experiment.ms_per_op", "span.core.anneal.chain.ms_per_op",
		"span.sim.run.ms_per_op", "span.graph.freeze.build.ms_per_op")},
	"serve-place": {moving: []string{
		"trace.decode_ms", "graph.build_ms", "graph.canon_ms", "placecache.get_us", "cost.linear_us",
		"core.insertion_ms", "core.propose_ms", "core.anneal_ms", "core.anneal.iterations_per_op",
		"wal.fsync_ms", "wal.appends_per_op", "serve.queue_wait_ms", "serve.job_wall_ms",
		"serve.residual_ms", "client.submit_ms", "client.poll_ms", "client.polls_per_op",
		"span.trace.decode.ms_per_op", "span.graph.canon.build.ms_per_op",
		"span.core.anneal.chain.ms_per_op", "span.serve.job.run.ms_per_op", "span.serve.wal.append.ms_per_op"},
		exact: map[string]float64{"placecache.hit_ratio": 0}},
	"serve-hot": {moving: []string{
		"trace.decode_ms", "graph.build_ms", "graph.canon_ms", "placecache.get_us", "cost.linear_us",
		"wal.fsync_ms", "wal.appends_per_op", "serve.residual_ms", "client.submit_ms",
		"span.trace.decode.ms_per_op", "span.graph.canon.build.ms_per_op", "span.serve.wal.append.ms_per_op"},
		exact: map[string]float64{"placecache.hit_ratio": 1, "core.anneal.iterations_per_op": 0}},
	"serve-stream": {moving: []string{
		"core.session_append_ms", "core.session.rounds_per_op", "core.anneal.iterations_per_op",
		"graph.apply_deltas_us", "wal.fsync_ms", "wal.appends_per_op", "serve.stream_append_ms",
		"serve.residual_ms", "client.append_ms", "span.graph.delta.apply.ms_per_op",
		"span.serve.stream.append.ms_per_op", "span.serve.wal.append.ms_per_op"}},
}

// passLayers are, per serve spec without an end-to-end run of its own,
// the layers only its operations reach. serve-stream's journal-bound
// figures spread past any usable bound on a shared disk, so the stream
// pass runs only inside serve-hot's traced run, which reports these
// layers from it; the layers both passes reach come from serve-hot.
var passLayers = map[string][]string{
	"serve-stream": {
		"core.session_append_ms", "core.session.rounds_per_op", "graph.apply_deltas_us",
		"serve.stream_append_ms", "client.append_ms",
		"span.graph.delta.apply.ms_per_op", "span.graph.delta.apply.self_ms_per_op",
		"span.serve.stream.append.ms_per_op", "span.serve.stream.append.self_ms_per_op",
	},
}

// checkLayers records a problem for every layer the workload's traced
// run should have moved but read 0, or that missed its known value.
func checkLayers(o *outcome, workload string) {
	c := layerChecks[workload]
	for _, name := range c.moving {
		if v := o.layer[name]; !(v > 0) {
			o.problemf("layer %s reads %g; %s reaches it, so its source is missing", name, v, workload)
		}
	}
	for name, want := range c.exact {
		switch v, ok := o.layer[name]; {
		case !ok:
			o.problemf("layer %s was not measured", name)
		case v != want:
			o.problemf("layer %s reads %g, want %g", name, v, want)
		}
	}
}

// benchLayers are bench.E1_s … bench.E22_s.
func benchLayers() []string {
	var names []string
	for i := 1; i <= suiteExperiments; i++ {
		names = append(names, fmt.Sprintf("bench.E%d_s", i))
	}
	return names
}
