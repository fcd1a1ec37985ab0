package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/placecache"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Operations per second of --seconds, per serve workload, and the floor
// that keeps ten samples beyond p99 in the three of five segments the
// latency percentiles pool. The rates make a timed pass last about
// --seconds on a 2-CPU machine today (serve-place, held up by the floor,
// longer); the operation count is fixed per --seconds, so a faster
// program finishes the same work in less wall time.
const (
	minOps     = 1700
	placeRate  = 100
	hotRate    = 210
	streamRate = 1600
)

// Latency limits of goodput_rps, about five times today's p99.
const (
	placeLimitMS  = 250.0
	hotLimitMS    = 60.0
	streamLimitMS = 15.0
)

// stageSample is how many planned operations the traced run replays
// in-process per stage.
const stageSample = 32

func opsFor(seconds, rate int) int {
	if n := seconds * rate; n > minOps {
		return n
	}
	return minOps
}

// effectiveSeed is the anneal seed dwmserved derives for a request.
func effectiveSeed(req serve.PlaceRequest, tr *trace.Trace) int64 {
	return bench.DeriveSeed(req.Seed, "serve/"+tr.Name, tr.Len())
}

// timeIt runs f and returns its duration.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// stageClock accumulates per-call times of the in-process replay.
type stageClock map[string][]float64

func (c stageClock) add(name string, d time.Duration, unit time.Duration) {
	c[name] = append(c[name], float64(d)/float64(unit))
}

// into writes each stage's mean per call.
func (c stageClock) into(out map[string]float64) {
	for name, xs := range c {
		out[name] = mean(xs)
	}
}

// requestStages replays the request path of place and hot requests
// in-process: decode, graph build, canonical form, cache lookup and the
// baseline cost; with search, also the search stages. It returns each
// request's in-process anneal cost (search only).
func requestStages(items []placeItem, hit, search bool, clock stageClock) ([]int64, error) {
	cache := placecache.NewMemory(len(items) + 1)
	type prepared struct {
		tr  *trace.Trace
		g   *graph.Graph
		key placecache.Key
	}
	var preps []prepared
	for _, it := range items {
		var tr *trace.Trace
		d, err := timeIt(func() (err error) {
			tr, err = trace.Decode(strings.NewReader(it.Req.Trace))
			return err
		})
		if err != nil {
			return nil, err
		}
		clock.add("trace.decode_ms", d, time.Millisecond)
		var g *graph.Graph
		d, err = timeIt(func() (err error) {
			if g, err = graph.FromTrace(tr); err == nil {
				g.Freeze()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		clock.add("graph.build_ms", d, time.Millisecond)
		var cn *graph.Canonical
		d, _ = timeIt(func() error { cn = g.Freeze().Canon(); return nil })
		clock.add("graph.canon_ms", d, time.Millisecond)
		key := placecache.Key{FP: cn.FP, Policy: "dwmperf", Device: "linear",
			Seed: effectiveSeed(it.Req, tr), Iterations: it.Req.Iterations}
		stored := key
		if !hit {
			stored.Seed++ // same graph, other request: the lookup misses
		}
		cache.Put(stored, placecache.Entry{Placement: make([]int, tr.NumItems), Profile: cn.Profile})
		preps = append(preps, prepared{tr, g, key})
	}
	var costs []int64
	for _, p := range preps {
		d, _ := timeIt(func() error { cache.Get(p.key); return nil })
		clock.add("placecache.get_us", d, time.Microsecond)
		po, err := core.ProgramOrder(p.tr)
		if err != nil {
			return nil, err
		}
		d, err = timeIt(func() error { _, err := cost.Linear(p.g, po); return err })
		if err != nil {
			return nil, err
		}
		clock.add("cost.linear_us", d, time.Microsecond)
		if !search {
			continue
		}
		d, err = timeIt(func() error { _, _, err := core.Insertion(p.g, po, 3); return err })
		if err != nil {
			return nil, err
		}
		clock.add("core.insertion_ms", d, time.Millisecond)
		var start layout.Placement
		d, err = timeIt(func() (err error) { start, _, err = core.Propose(p.tr, p.g); return err })
		if err != nil {
			return nil, err
		}
		clock.add("core.propose_ms", d, time.Millisecond)
		var c int64
		d, err = timeIt(func() (err error) {
			_, c, err = core.Anneal(p.g, start, core.AnnealOptions{Seed: p.key.Seed, Iterations: p.key.Iterations})
			return err
		})
		if err != nil {
			return nil, err
		}
		clock.add("core.anneal_ms", d, time.Millisecond)
		costs = append(costs, c)
	}
	return costs, nil
}

// walStages times the journal layer in-process: one append per payload
// on a fresh log in the run's scratch directory (the filesystem the
// daemon journals to), the fsync timed on its own.
func walStages(dir string, payloads [][]byte, clock stageClock) error {
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever, MetricsPrefix: "dwmperf.wal"})
	if err != nil {
		return err
	}
	defer l.Close()
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			return err
		}
		d, err := timeIt(l.Sync)
		if err != nil {
			return err
		}
		clock.add("wal.fsync_ms", d, time.Millisecond)
	}
	return nil
}

// requestPayloads is the request bodies as JSON, the size of the
// journal's acceptance records.
func requestPayloads(items []placeItem) ([][]byte, error) {
	var out [][]byte
	for _, it := range items {
		b, err := json.Marshal(it.Req)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// placeSpec: distinct anneal requests, every one a cache miss.
func placeSpec(cfg *config) (*serveSpec, error) {
	n := opsFor(cfg.seconds, placeRate)
	if cfg.trace {
		n /= 2
	}
	items, err := planPlace(cfg.seed, "place", n)
	if err != nil {
		return nil, err
	}
	var results []*serve.Result
	var ratios []float64
	sp := &serveSpec{name: "serve-place", ops: opsFor(cfg.seconds, placeRate), limitMS: placeLimitMS}
	sp.drive = func(ctx context.Context, lc *loadClient, n int) ([]opSample, []time.Duration) {
		samples := make([]opSample, n)
		results = make([]*serve.Result, n)
		walls := closedLoop(ctx, n, func(ctx context.Context, i int) {
			s, js := lc.place(ctx, items[i].Req)
			samples[i], results[i] = s, js.Result
		})
		ratios = make([]float64, n)
		parallel(n, func(i int) {
			if samples[i].err != nil {
				return
			}
			r, err := checkResult(items[i].Make(), results[i])
			if err != nil {
				samples[i].err = fmt.Errorf("check %s: %w", items[i].Key, err)
			}
			ratios[i] = r
		})
		return samples, walls
	}
	sp.quality = func() float64 { return meanPositive(ratios) }
	sp.layers = func(ctx context.Context, cfg *config, o *outcome) error {
		sample := items[:min(stageSample, len(items))]
		clock := stageClock{}
		costs, err := requestStages(sample, false, true, clock)
		if err != nil {
			return err
		}
		for i, c := range costs {
			if results[i] != nil && results[i].Cost != c {
				o.problemf("%s: daemon cost %d, in-process replay %d", sample[i].Key, results[i].Cost, c)
			}
		}
		payloads, err := requestPayloads(sample)
		if err != nil {
			return err
		}
		if err := walStages(filepath.Join(cfg.work, "walprobe"), payloads, clock); err != nil {
			return err
		}
		clock.into(o.layer)
		return nil
	}
	return sp, nil
}

// hotSpec: a fixed set of requests, warmed once, then replayed; every
// timed request is an exact placement-cache hit.
func hotSpec(cfg *config) (*serveSpec, error) {
	set, err := planPlace(hotSetSeed, "hot", hotSetSize)
	if err != nil {
		return nil, err
	}
	sp := &serveSpec{name: "serve-hot", ops: opsFor(cfg.seconds, hotRate), limitMS: hotLimitMS}
	order := hotOrder(cfg.seed, sp.ops)
	// warmed holds the warm-up results of the current daemon; the timed
	// replays must return exactly these placements.
	warmed := make([]*serve.Result, hotSetSize)
	var ratios []float64
	sp.warm = func(ctx context.Context, lc *loadClient) error {
		ratios = make([]float64, hotSetSize)
		for i, it := range set {
			s, js := lc.place(ctx, it.Req)
			if s.err != nil {
				return s.err
			}
			r, err := checkResult(it.Make(), js.Result)
			if err != nil {
				return fmt.Errorf("check %s: %w", it.Key, err)
			}
			warmed[i], ratios[i] = js.Result, r
		}
		return nil
	}
	sp.drive = func(ctx context.Context, lc *loadClient, n int) ([]opSample, []time.Duration) {
		samples := make([]opSample, n)
		walls := closedLoop(ctx, n, func(ctx context.Context, i int) {
			k := order[i]
			s, js := lc.place(ctx, set[k].Req)
			if s.err == nil {
				s.err = sameResult(warmed[k], js.Result)
			}
			samples[i] = s
		})
		return samples, walls
	}
	sp.quality = func() float64 { return meanPositive(ratios) }
	sp.layers = func(ctx context.Context, cfg *config, o *outcome) error {
		clock := stageClock{}
		if _, err := requestStages(set, true, false, clock); err != nil {
			return err
		}
		payloads, err := requestPayloads(set)
		if err != nil {
			return err
		}
		if err := walStages(filepath.Join(cfg.work, "walprobe"), payloads, clock); err != nil {
			return err
		}
		clock.into(o.layer)
		return nil
	}
	return sp, nil
}

// sameResult reports a cached replay that differs from the result the
// warm-up computed for the same request.
func sameResult(want, got *serve.Result) error {
	switch {
	case got == nil:
		return fmt.Errorf("done job without result")
	case got.Cost != want.Cost || got.BaselineCost != want.BaselineCost || got.Partial != want.Partial:
		return fmt.Errorf("replay cost %d/%d, warm-up %d/%d", got.Cost, got.BaselineCost, want.Cost, want.BaselineCost)
	case len(got.Placement) != len(want.Placement):
		return fmt.Errorf("replay placement covers %d items, warm-up %d", len(got.Placement), len(want.Placement))
	}
	for i := range got.Placement {
		if got.Placement[i] != want.Placement[i] {
			return fmt.Errorf("replay placement differs from warm-up at item %d", i)
		}
	}
	return nil
}

// streamSpec: streams created, appended to in batches, deleted; every
// append is one operation. It has no end-to-end run: serve-hot's traced
// run adds its traced pass (see passLayers).
func streamSpec(cfg *config) (*serveSpec, error) {
	// Whole streams per segment, in the full and the traced (half) pass.
	unit := 2 * segments * streamAppends
	ops := (opsFor(cfg.seconds, streamRate) + unit - 1) / unit * unit
	sp := &serveSpec{name: "serve-stream", ops: ops, limitMS: streamLimitMS, appends: true}
	plans := planStreams(cfg.seed, sp.ops)
	var finals []serve.StreamStatus
	var ratios []float64
	sp.drive = func(ctx context.Context, lc *loadClient, n int) ([]opSample, []time.Duration) {
		samples := make([]opSample, n)
		streams := (n + streamAppends - 1) / streamAppends
		finals = make([]serve.StreamStatus, streams)
		walls := closedLoop(ctx, streams, func(ctx context.Context, s int) {
			lo := s * streamAppends
			hi := min(lo+streamAppends, n)
			finals[s] = lc.stream(ctx, plans[s], samples[lo:hi])
		})
		ratios = make([]float64, streams)
		parallel(streams, func(s int) {
			lo := s * streamAppends
			hi := min(lo+streamAppends, n)
			if anyFailed(samples[lo:hi]) {
				return
			}
			r, err := checkStream(plans[s], hi-lo, finals[s])
			if err != nil {
				samples[hi-1].err = fmt.Errorf("check %s: %w", plans[s].Req.Name, err)
			}
			ratios[s] = r
		})
		return samples, walls
	}
	sp.quality = func() float64 { return meanPositive(ratios) }
	sp.layers = func(ctx context.Context, cfg *config, o *outcome) error {
		clock := stageClock{}
		var payloads [][]byte
		for s := 0; s < 4 && s < len(finals); s++ {
			p := plans[s]
			sess, err := core.NewSession(core.SessionOptions{
				Items:           p.Req.Items,
				Seed:            bench.DeriveSeed(p.Req.Seed, "stream/"+p.Req.Name, p.Req.Items),
				RoundEvery:      p.Req.RoundEvery,
				RoundIterations: p.Req.RoundIterations,
			})
			if err != nil {
				return err
			}
			g, err := graph.New(p.Req.Items)
			if err != nil {
				return err
			}
			prev := -1
			for _, batch := range p.Batches {
				d, err := timeIt(func() error { return sess.Append(ctx, batch) })
				if err != nil {
					return err
				}
				clock.add("core.session_append_ms", d, time.Millisecond)
				var ds []graph.Delta
				for _, a := range batch {
					if prev >= 0 && prev != a {
						ds = append(ds, graph.Delta{U: prev, V: a, W: 1})
					}
					prev = a
				}
				d, err = timeIt(func() error { return g.ApplyDeltas(ds) })
				if err != nil {
					return err
				}
				clock.add("graph.apply_deltas_us", d, time.Microsecond)
				b, err := json.Marshal(serve.StreamAppendRequest{Accesses: batch})
				if err != nil {
					return err
				}
				payloads = append(payloads, b)
			}
			snap := sess.Snapshot()
			if f := finals[s]; f.Cost != snap.Cost || !equalInts(f.Placement, snap.Placement) {
				o.problemf("%s: daemon final cost %d, in-process session %d", p.Req.Name, f.Cost, snap.Cost)
			}
		}
		if err := walStages(filepath.Join(cfg.work, "walprobe"), payloads, clock); err != nil {
			return err
		}
		clock.into(o.layer)
		return nil
	}
	return sp, nil
}

// stream runs one planned stream; the appends land in samples (one per
// batch, in order). It returns the status the delete answered with.
func (lc *loadClient) stream(ctx context.Context, p streamPlan, samples []opSample) serve.StreamStatus {
	st, err := lc.cli.CreateStream(ctx, p.Req)
	if err != nil {
		for i := range samples {
			samples[i].err = fmt.Errorf("create %s: %w", p.Req.Name, err)
		}
		return serve.StreamStatus{}
	}
	var sent int64
	for i := range samples {
		t0 := time.Now()
		got, err := lc.cli.AppendStream(ctx, st.ID, p.Batches[i])
		samples[i].latMS = ms(time.Since(t0))
		sent += int64(len(p.Batches[i]))
		switch {
		case err != nil:
			samples[i].err = err
		case got.Accesses != sent:
			samples[i].err = fmt.Errorf("%s holds %d accesses after %d sent", st.ID, got.Accesses, sent)
		default:
			samples[i].err = checkPlacement(got.Placement, p.Req.Items)
		}
	}
	final, err := lc.cli.DeleteStream(ctx, st.ID)
	if err != nil {
		samples[len(samples)-1].err = fmt.Errorf("delete %s: %w", st.ID, err)
	}
	return final
}

// checkStream verifies a stream's final status against the benchmark's
// own evaluation of everything appended: the reported cost is the
// placement's cost over the transition graph of the concatenated
// accesses. The ratio is that cost over the identity placement's.
func checkStream(p streamPlan, appends int, final serve.StreamStatus) (float64, error) {
	tr := trace.New(p.Req.Name, p.Req.Items)
	for _, b := range p.Batches[:appends] {
		for _, a := range b {
			tr.Read(a)
		}
	}
	if err := checkPlacement(final.Placement, p.Req.Items); err != nil {
		return 0, err
	}
	g, err := graph.FromTrace(tr)
	if err != nil {
		return 0, err
	}
	c, err := cost.Linear(g, final.Placement)
	if err != nil {
		return 0, err
	}
	if c != final.Cost {
		return 0, fmt.Errorf("reported cost %d, placement costs %d", final.Cost, c)
	}
	id, err := cost.Linear(g, layout.Identity(p.Req.Items))
	if err != nil {
		return 0, err
	}
	return float64(c) / float64(id), nil
}

func anyFailed(samples []opSample) bool {
	for _, s := range samples {
		if s.err != nil {
			return true
		}
	}
	return false
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// meanPositive averages the entries that were set (failed operations
// leave 0).
func meanPositive(xs []float64) float64 {
	var ok []float64
	for _, x := range xs {
		if x > 0 {
			ok = append(ok, x)
		}
	}
	return mean(ok)
}
