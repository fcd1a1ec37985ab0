package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// benchmarkFile is the part of ../BENCHMARK.json dwmperf must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// metricNameRE and unitRE are the grammars BENCHMARK.json's names and
// units must satisfy.
var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricNameRE.MatchString(d.name) {
			t.Errorf("metric name %q breaks [A-Za-z0-9_.-]+", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for w := range workloads {
		if !metricNameRE.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, dwmperf runs %d workloads", names, len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, dwmperf %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, dwmperf %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, dwmperf %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, dwmperf %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// promisedLayers are the per-layer metrics the benchmark promises, with
// the end-to-end metric each should move listed in README.md.
var promisedLayers = []string{
	"core.insertion_ms", "core.portaware_ms", "core.propose_ms", "core.anneal_ms",
	"core.anneal.iterations_per_op", "core.session_append_ms", "core.session.rounds_per_op",
	"cost.linear_us", "cost.multiport_us", "sim.run_ms",
	"graph.build_ms", "graph.canon_ms", "graph.apply_deltas_us", "trace.decode_ms",
	"placecache.get_us", "placecache.hit_ratio", "wal.fsync_ms", "wal.appends_per_op",
	"serve.queue_wait_ms", "serve.job_wall_ms", "serve.stream_append_ms", "serve.residual_ms",
	"client.submit_ms", "client.poll_ms", "client.polls_per_op", "client.append_ms",
	"obs.trace_overhead_pct",
}

// TestTracedRunEmitsEveryLayer builds a traced result from the pieces a
// traced serve pass fills and checks every per-layer name comes out,
// including the listed layers and bench.E1_s … bench.E22_s.
func TestTracedRunEmitsEveryLayer(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	ph := &phase{
		samples: []opSample{{latMS: 10, submitMS: 2, waitMS: 8, waited: true}},
		metrics: map[string]float64{
			seriesJobWallCount: 1, seriesJobWallNS: 6e6,
			seriesQueueWaitCount: 1, seriesQueueWaitNS: 1e6,
			seriesCacheHits: 0, seriesCacheMisses: 1, seriesWALAppends: 3,
			seriesAnnealIters: 20000, seriesSessionRounds: 0,
		},
		spans: []obs.SpanRecord{
			{ID: 1, Name: "serve.job.run", StartNS: 0, DurNS: 6e6},
			{ID: 2, Parent: 1, Name: "core.anneal.chain", StartNS: 1e6, DurNS: 4e6},
		},
		polls: 3,
	}
	addSpanLayers(o.layer, ph.spans, 1)
	serverLayers(o, false, ph)
	if len(o.problems) != 0 {
		t.Fatalf("problems: %v", o.problems)
	}
	res, err := buildResult(&config{trace: true}, o)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string(nil), promisedLayers...)
	for i := 1; i <= 22; i++ {
		want = append(want, "bench.E"+strconv.Itoa(i)+"_s")
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("traced result lacks %s", name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced result has %d metrics, perLayer lists %d", len(res.Metrics), len(perLayer))
	}
	checks := map[string]float64{
		"serve.residual_ms":                     3, // 10 ms client − 1 ms queue − 6 ms job
		"client.polls_per_op":                   4, // 3 sleeps + the first status read
		"span.serve.job.run.self_ms_per_op":     2,
		"span.core.anneal.chain.ms_per_op":      4,
		"placecache.hit_ratio":                  0,
		"wal.appends_per_op":                    3,
		"span.serve.stream.append.ms_per_op":    0,
		"span.serve.job.run.ms_per_op":          6,
		"span.core.anneal.chain.self_ms_per_op": 4,
	}
	for name, v := range checks {
		if got := res.Metrics[name].Value; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

func TestBuildResultRejectsUnlistedMetric(t *testing.T) {
	o := newOutcome()
	o.attempted = 1
	o.layer["core.typo_ms"] = 1
	if _, err := buildResult(&config{trace: true}, o); err == nil {
		t.Fatal("an unlisted per-layer metric was accepted")
	}
	o = newOutcome()
	o.attempted = 1
	if _, err := buildResult(&config{}, o); err == nil {
		t.Fatal("an end-to-end result without its metrics was accepted")
	}
}

func TestServerLayersReportMissingSeries(t *testing.T) {
	o := newOutcome()
	ph := &phase{
		samples: []opSample{{latMS: 10}},
		metrics: map[string]float64{seriesJobWallCount: 1, seriesJobWallNS: 6e6},
	}
	serverLayers(o, false, ph)
	if len(o.problems) != len(serverSeries)-2 {
		t.Errorf("%d problems for %d missing series: %v", len(o.problems), len(serverSeries)-2, o.problems)
	}
}

func TestCheckLayersFlagsUnmovedLayer(t *testing.T) {
	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for w, names := range passLayers {
		if workloads[w] != nil {
			t.Errorf("%s has an end-to-end run and also reports through passLayers", w)
		}
		for _, name := range names {
			if !known[name] {
				t.Errorf("%s: passLayers names unknown layer %s", w, name)
			}
		}
	}
	for w, c := range layerChecks {
		if workloads[w] == nil && passLayers[w] == nil {
			t.Errorf("layerChecks names unknown workload %s", w)
		}
		for _, name := range c.moving {
			if !known[name] {
				t.Errorf("%s: layerChecks names unknown layer %s", w, name)
			}
		}
		for name := range c.exact {
			if !known[name] {
				t.Errorf("%s: layerChecks names unknown layer %s", w, name)
			}
		}
	}
	for w := range workloads {
		if len(layerChecks[w].moving) == 0 {
			t.Errorf("workload %s has no layer it must move", w)
		}
	}
	o := newOutcome()
	for _, name := range layerChecks["serve-hot"].moving {
		o.layer[name] = 1
	}
	o.layer["placecache.hit_ratio"] = 1
	o.layer["core.anneal.iterations_per_op"] = 0
	checkLayers(o, "serve-hot")
	if len(o.problems) != 0 {
		t.Fatalf("complete layers flagged: %v", o.problems)
	}
	o.layer["graph.canon_ms"] = 0
	o.layer["placecache.hit_ratio"] = 0.5
	checkLayers(o, "serve-hot")
	if len(o.problems) != 2 {
		t.Errorf("want 2 problems (canon 0, hit ratio 0.5), got %v", o.problems)
	}
}
