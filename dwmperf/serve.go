package main

// The serve workloads, and the stream pass serve-hot's traced run adds.
// Each runs a closed loop of `clients` callers against a dwmserved
// started fresh for the run: a caller sends its next operation only
// after the previous one answered, like a compile tool waiting for a
// placement.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

// clients is the number of concurrent callers, one connection each.
const clients = 2

// pollInterval is the callers' job-status poll cadence. At the client's
// 50 ms default a place request's latency is a whole number of polls and
// one poll more or less sets the tail.
const pollInterval = time.Millisecond

// setupRepeats is how many times a serve run starts its daemon (and
// warms it, for serve-hot); setup_s is the median.
const setupRepeats = 7

// eventRing is the span ring of the traced daemon, and drainEvery the
// cadence at which the traced run empties it; at the traced workloads'
// span rates the ring holds tens of seconds, so nothing is dropped.
const (
	eventRing  = 1 << 16
	drainEvery = 100 * time.Millisecond
)

// loadClient is the benchmark's API client: at most `clients` connections,
// 1 ms polls, retries and polls counted.
type loadClient struct {
	cli     *client.Client
	hc      *http.Client
	retries atomic.Int64
	polls   atomic.Int64
}

func newLoadClient(base string) *loadClient {
	lc := &loadClient{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}}
	lc.cli = client.New(client.Options{
		BaseURL:      base,
		HTTP:         lc.hc,
		PollInterval: pollInterval,
		// serve-hot replays identical requests on purpose: the daemon's
		// placement cache, not the client's idempotency key, must absorb
		// them.
		DisableIdempotency: true,
		OnRetry:            func(client.RetryInfo) { lc.retries.Add(1) },
		Sleep: func(ctx context.Context, d time.Duration) error {
			if d == pollInterval {
				lc.polls.Add(1)
			}
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	return lc
}

func (lc *loadClient) close() { lc.hc.CloseIdleConnections() }

// segments is how many equal parts a timed pass is cut into. Each part
// is its own closed loop, timed on its own; wall_s and goodput_rps take
// the median part, so a burst of contention from outside the benchmark
// that slows one part does not move them.
const segments = 5

// closedLoop runs jobs 0..n-1 on `clients` callers, each taking the next
// index when its previous job returned, one segment after another, and
// returns each segment's wall time. Segment k holds the jobs
// [k*n/segments, (k+1)*n/segments).
func closedLoop(ctx context.Context, n int, job func(ctx context.Context, i int)) []time.Duration {
	walls := make([]time.Duration, 0, segments)
	for k := 0; k < segments; k++ {
		lo, hi := k*n/segments, (k+1)*n/segments
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi || ctx.Err() != nil {
						return
					}
					job(ctx, i)
				}
			}()
		}
		wg.Wait()
		walls = append(walls, time.Since(start))
	}
	return walls
}

// opSample is one timed operation: a place request from submit to
// result, or one stream append.
type opSample struct {
	latMS    float64
	submitMS float64 // place: the POST; stream: unused
	waitMS   float64 // place: polling until done
	waited   bool    // place: the submit did not answer with the result
	err      error   // transport, API or correctness failure
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// place runs one request to completion.
func (lc *loadClient) place(ctx context.Context, req serve.PlaceRequest) (opSample, serve.JobStatus) {
	t0 := time.Now()
	js, err := lc.cli.Submit(ctx, req)
	t1 := time.Now()
	waited := err == nil && js.Status != "done" && js.Status != "failed"
	if waited {
		js, err = lc.cli.Wait(ctx, js.ID)
	}
	t2 := time.Now()
	s := opSample{latMS: ms(t2.Sub(t0)), submitMS: ms(t1.Sub(t0)), waitMS: ms(t2.Sub(t1)), waited: waited, err: err}
	if err == nil && js.Status != "done" {
		s.err = fmt.Errorf("job %s %s: %s", js.ID, js.Status, js.Error)
	}
	return s, js
}

// checkPlacement verifies p is a permutation of [0, n).
func checkPlacement(p []int, n int) error {
	if len(p) != n {
		return fmt.Errorf("placement covers %d items, trace has %d", len(p), n)
	}
	return layout.Placement(p).Validate(n)
}

// checkResult verifies a place result against the benchmark's own
// evaluation of the submitted trace: a permutation, the cost the
// objective gives it, never worse than program order.
func checkResult(tr *trace.Trace, res *serve.Result) (ratio float64, err error) {
	if res == nil {
		return 0, errors.New("done job without result")
	}
	if res.Partial {
		return 0, errors.New("partial result")
	}
	if err := checkPlacement(res.Placement, tr.NumItems); err != nil {
		return 0, err
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		return 0, err
	}
	c, err := cost.Linear(g, res.Placement)
	if err != nil {
		return 0, err
	}
	po, err := core.ProgramOrder(tr)
	if err != nil {
		return 0, err
	}
	base, err := cost.Linear(g, po)
	if err != nil {
		return 0, err
	}
	switch {
	case c != res.Cost:
		return 0, fmt.Errorf("reported cost %d, placement costs %d", res.Cost, c)
	case base != res.BaselineCost:
		return 0, fmt.Errorf("reported baseline %d, program order costs %d", res.BaselineCost, base)
	case c > base:
		return 0, fmt.Errorf("cost %d worse than baseline %d", c, base)
	}
	return float64(c) / float64(base), nil
}

// parallel runs f(i) for i in [0, n) on `clients` goroutines.
func parallel(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// phase is one timed pass of a serve workload against one daemon.
type phase struct {
	samples []opSample
	walls   []time.Duration // per segment
	wall    time.Duration   // sum of walls
	cpuS    float64         // daemon CPU time over the timed pass
	rssMB   float64
	retries int64
	polls   int64
	metrics map[string]float64 // /metrics diff over the timed pass (traced pass only)
	spans   []obs.SpanRecord   // drained spans (traced pass only)
	dropped int64
}

// serveSpec describes one serve workload to the shared runner.
type serveSpec struct {
	name string
	// ops is the number of timed operations in an end-to-end run.
	ops int
	// limitMS is the latency limit of goodput_rps.
	limitMS float64
	// appends marks a workload whose operations are stream appends.
	appends bool
	// warm runs before the timed pass and counts toward setup_s.
	warm func(ctx context.Context, lc *loadClient) error
	// drive runs n timed operations through closedLoop and returns one
	// sample per operation, failed checks included, and the segments'
	// wall times.
	drive func(ctx context.Context, lc *loadClient, n int) (samples []opSample, walls []time.Duration)
	// quality is the workload's cost_ratio, from the results drive saw.
	quality func() float64
	// layers adds the in-process stage timings to the traced run's
	// outcome, and the checks only an in-process replay can make.
	layers func(ctx context.Context, cfg *config, o *outcome) error
}

// runPhase starts a daemon (setupRepeats times when measuring setup),
// runs the timed pass on the last one and stops it.
func runPhase(ctx context.Context, cfg *config, sp *serveSpec, n, starts int, traced bool) (*phase, []float64, error) {
	events := 0
	if traced {
		events = eventRing
	}
	var setups []float64
	var d *daemon
	var lc *loadClient
	for k := 0; k < starts; k++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%v-%d", sp.name, traced, k))
		t0 := time.Now()
		dk, err := startDaemon(ctx, cfg.bin, dir, events)
		if err != nil {
			return nil, nil, err
		}
		lck := newLoadClient(dk.base)
		if sp.warm != nil {
			if err := sp.warm(ctx, lck); err != nil {
				lck.close()
				dk.kill()
				return nil, nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < starts-1 {
			lck.close()
			if _, err := dk.stop(); err != nil {
				return nil, nil, err
			}
			continue
		}
		d, lc = dk, lck
	}
	defer lc.close()

	ph := &phase{}
	scrape := &http.Client{Timeout: 30 * time.Second}
	var before map[string]float64
	var dr *drainer
	if traced {
		var err error
		if before, err = d.metrics(ctx, scrape); err != nil {
			d.kill()
			return nil, nil, err
		}
		// Spans of the warm-up are not part of the timed pass.
		if _, _, err := drainEvents(ctx, d, scrape); err != nil {
			d.kill()
			return nil, nil, err
		}
		dr = startDrainer(ctx, d, scrape)
	}
	// Write back what earlier runs left dirty (their journals), so it is
	// not flushed on this pass's fsyncs.
	syscall.Sync()
	lc.retries.Store(0)
	lc.polls.Store(0)
	cpu0, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	ph.samples, ph.walls = sp.drive(ctx, lc, n)
	for _, w := range ph.walls {
		ph.wall += w
	}
	cpu1, err := d.cpuSeconds()
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	ph.cpuS = cpu1 - cpu0
	ph.retries, ph.polls = lc.retries.Load(), lc.polls.Load()
	if traced {
		spans, dropped, err := dr.finish()
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		ph.spans, ph.dropped = spans, dropped
		after, err := d.metrics(ctx, scrape)
		if err != nil {
			d.kill()
			return nil, nil, err
		}
		ph.metrics = metricsDiff(before, after)
	}
	rss, err := d.stop()
	if err != nil {
		return nil, nil, err
	}
	ph.rssMB = rss
	return ph, setups, nil
}

// eventsBody is the JSON of GET /debug/events.
type eventsBody struct {
	Enabled bool             `json:"enabled"`
	Dropped int64            `json:"dropped"`
	Spans   []obs.SpanRecord `json:"spans"`
}

func drainEvents(ctx context.Context, d *daemon, c *http.Client) ([]obs.SpanRecord, int64, error) {
	body, err := d.get(ctx, c, "/debug/events")
	if err != nil {
		return nil, 0, err
	}
	var ev eventsBody
	if err := json.Unmarshal(body, &ev); err != nil {
		return nil, 0, fmt.Errorf("decode /debug/events: %w", err)
	}
	if !ev.Enabled {
		return nil, 0, errors.New("traced daemon reports tracing disabled")
	}
	return ev.Spans, ev.Dropped, nil
}

// drainer empties the daemon's span ring every drainEvery until finish.
type drainer struct {
	stopc   chan struct{}
	done    chan struct{}
	spans   []obs.SpanRecord
	dropped int64
	err     error
	final   func() ([]obs.SpanRecord, int64, error)
}

func startDrainer(ctx context.Context, d *daemon, c *http.Client) *drainer {
	dr := &drainer{stopc: make(chan struct{}), done: make(chan struct{})}
	dr.final = func() ([]obs.SpanRecord, int64, error) { return drainEvents(ctx, d, c) }
	go func() {
		defer close(dr.done)
		t := time.NewTicker(drainEvery)
		defer t.Stop()
		for {
			select {
			case <-dr.stopc:
				return
			case <-t.C:
			}
			spans, dropped, err := dr.final()
			if err != nil {
				dr.err = err
				return
			}
			dr.spans = append(dr.spans, spans...)
			dr.dropped += dropped
		}
	}()
	return dr
}

// finish stops the drainer, drains once more and returns every span.
func (dr *drainer) finish() ([]obs.SpanRecord, int64, error) {
	close(dr.stopc)
	<-dr.done
	if dr.err != nil {
		return nil, 0, dr.err
	}
	spans, dropped, err := dr.final()
	if err != nil {
		return nil, 0, err
	}
	return append(dr.spans, spans...), dr.dropped + dropped, nil
}

// runServe runs a serve workload in the requested mode. A traced run
// also runs the traced pass of each spec in `with` (specs without an
// end-to-end run of their own) and reports the layers only that pass
// reaches (passLayers) from it.
func runServe(ctx context.Context, cfg *config, spec func(*config) (*serveSpec, error), with ...func(*config) (*serveSpec, error)) (*outcome, error) {
	sp, err := spec(cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out := newOutcome()
		ph, setups, err := runPhase(ctx, cfg, sp, sp.ops, setupRepeats, false)
		if err != nil {
			return nil, err
		}
		out.addSamples(sp, ph)
		out.e2e["setup_s"] = median(setups)
		out.e2e["wall_s"] = segments * median(seconds(ph.walls))
		out.e2e["cpu_s"] = ph.cpuS
		out.e2e["peak_rss_mb"] = ph.rssMB * 1.048576
		out.e2e["cost_ratio"] = sp.quality()
		out.notef("setup: %d daemon starts, median %.4f s", len(setups), median(setups))
		out.notef("client retries: %d", ph.retries)
		return out, nil
	}
	out, err := tracedServe(ctx, cfg, sp, true)
	if err != nil {
		return nil, err
	}
	for _, spec := range with {
		wsp, err := spec(cfg)
		if err != nil {
			return nil, err
		}
		wo, err := tracedServe(ctx, cfg, wsp, false)
		if err != nil {
			return nil, err
		}
		out.attempted += wo.attempted
		out.failed += wo.failed
		out.problems = append(out.problems, wo.problems...)
		for _, n := range wo.notes {
			out.notef("%s: %s", wsp.name, n)
		}
		out.notef("%s: serve.residual_ms %.4f ms", wsp.name, wo.layer["serve.residual_ms"])
		for _, name := range passLayers[wsp.name] {
			out.layer[name] = wo.layer[name]
		}
	}
	return out, nil
}

// tracedServe is the traced run of one serve spec: the first half of its
// plan against a traced daemon, with spans, the /metrics diff and the
// in-process stages, checked against layerChecks. With baseline, the
// same half first runs against an untraced daemon, for the overhead.
func tracedServe(ctx context.Context, cfg *config, sp *serveSpec, baseline bool) (*outcome, error) {
	out := newOutcome()
	n := sp.ops / 2
	var plain *phase
	if baseline {
		var err error
		if plain, _, err = runPhase(ctx, cfg, sp, n, 1, false); err != nil {
			return nil, err
		}
	}
	tr, _, err := runPhase(ctx, cfg, sp, n, 1, true)
	if err != nil {
		return nil, err
	}
	if plain != nil {
		out.layer["obs.trace_overhead_pct"] = 100 * (tr.wall.Seconds()/plain.wall.Seconds() - 1)
		out.notef("untraced wall %.3f s", plain.wall.Seconds())
	}
	out.addSamples(sp, tr)
	out.layer["obs.spans_dropped"] = float64(tr.dropped)
	if tr.dropped > 0 {
		out.problemf("traced daemon dropped %d spans", tr.dropped)
	}
	addSpanLayers(out.layer, tr.spans, float64(len(tr.samples)))
	out.layer["client.retries"] = float64(tr.retries)
	serverLayers(out, sp.appends, tr)
	if err := sp.layers(ctx, cfg, out); err != nil {
		return nil, err
	}
	checkLayers(out, sp.name)
	out.notef("traced pass: %d ops, %d spans, traced wall %.3f s", len(tr.samples), len(tr.spans), tr.wall.Seconds())
	return out, nil
}

// addSamples folds a pass's samples into the outcome's counts and the
// latency and goodput metrics. Goodput is the median over segments of
// good operations per second. Latency percentiles pool the samples of
// the middle segments by wall time, leaving out the fastest and the
// slowest: a burst of outside contention that slows one segment would
// otherwise set the pooled p99 on its own.
func (o *outcome) addSamples(sp *serveSpec, ph *phase) {
	var lats, rates []float64
	n := len(ph.samples)
	slowest, fastest := 0, 0
	for k, w := range ph.walls {
		if w > ph.walls[slowest] {
			slowest = k
		}
		if w < ph.walls[fastest] {
			fastest = k
		}
	}
	for k, w := range ph.walls {
		good := 0
		for _, s := range ph.samples[k*n/segments : (k+1)*n/segments] {
			o.attempted++
			if s.err != nil {
				o.failed++
				if len(o.problems) < 5 {
					o.problemf("%s op failed: %v", sp.name, s.err)
				}
				continue
			}
			if s.latMS <= sp.limitMS {
				good++
			}
			if k != slowest && k != fastest {
				lats = append(lats, s.latMS)
			}
		}
		rates = append(rates, float64(good)/w.Seconds())
	}
	sorted := sortedCopy(lats)
	_, ok50 := percentile(sorted, 0.50)
	p50 := median(lats)
	tl, q, okT := tail(sorted)
	if !ok50 || !okT {
		o.problemf("%d successful ops: too few for a percentile with %d samples beyond it", len(lats), minBeyond)
	}
	o.e2e["lat_p50_ms"] = p50
	o.e2e["lat_tail_ms"] = tl
	o.e2e["goodput_rps"] = median(rates)
	o.notef("latency: %d samples (middle %d of %d segments), p50 %.3f ms, tail (q=%.4f) %.3f ms, %d within the %.0f ms limit",
		len(lats), segments-2, segments, p50, q, tl, countBelow(lats, sp.limitMS), sp.limitMS)
	o.notef("segment walls: %v", ph.walls)
}

func countBelow(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return n
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
