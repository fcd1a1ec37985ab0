package main

// Input generation. Every request body the benchmark sends is a pure
// function of (workload, seed, index): the choices come from a
// splitmix64 chain, the traces from the kernel generators of
// internal/workload. The daemon only ever sees the generated bodies.

import (
	"fmt"
	"strings"

	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// placeIterations is the fixed anneal budget of every place request, so
// a request's cost to the server does not drift with its seed.
const placeIterations = 20000

// hotSetSize is the number of distinct requests serve-hot replays: far
// below the daemon's default 256-entry placement cache, so every timed
// request is an exact hit. The set itself is the same for every seed
// (planned from hotSetSeed); --seed orders the replays.
const (
	hotSetSize = 32
	hotSetSeed = 1
)

// Stream shape: every stream declares streamItems items and receives
// streamAppends batches of streamBatch accesses. The create request
// leaves round_every and round_iterations unset, so the daemon's session
// defaults apply (a round of 2000 proposals every 1024 accesses): one
// append in four crosses a round boundary.
const (
	streamItems   = 112
	streamAppends = 32
	streamBatch   = 256
)

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := uint64(0x9E3779B97F4A7C15) ^ uint64(seed)
	for i := 0; i < len(stream); i++ {
		h = mix64(h ^ uint64(stream[i]))
	}
	return &rng{s: h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// kernel is one entry of the place mix. variant(i, r) builds the
// kernel's i-th distinct graph; sized kernels enumerate a band of sizes
// (variants of them), seeded kernels keep one size and draw a seed from
// r, so every call gives a new graph.
type kernel struct {
	name     string
	weight   int
	variants int // 0 = unlimited (seeded)
	variant  func(i int, r *rng) (key string, make func() *trace.Trace)
}

// firSizes and stencilSizes enumerate the sized kernels' parameter
// bands: FIR filters of 24..40 taps whose traces hold 12k..20k accesses,
// and ping-pong stencils of 48..80 cells over 16..32 sweeps.
var firSizes, stencilSizes = func() (fir, stencil [][2]int) {
	for taps := 24; taps <= 40; taps++ {
		per := 4*taps - 1 // accesses per sample
		for samples := (12000 + per - 1) / per; samples*per <= 20000; samples++ {
			fir = append(fir, [2]int{taps, samples})
		}
	}
	for cells := 48; cells <= 80; cells++ {
		for sweeps := 16; sweeps <= 32; sweeps++ {
			stencil = append(stencil, [2]int{cells, sweeps})
		}
	}
	return fir, stencil
}()

// placeMix is the kernel mix of serve-place and serve-hot. No graph
// repeats within a plan: a repeated graph would let the daemon
// warm-start from a cached near-match, making the result depend on
// completion order. That rules out kernels with only a handful of sizes
// (conv2d, matmul) and kernels whose every seed yields the same graph up
// to renumbering (ptrchase's single cycle).
var placeMix = []kernel{
	{"fir", 3, len(firSizes), func(i int, _ *rng) (string, func() *trace.Trace) {
		taps, samples := firSizes[i][0], firSizes[i][1]
		return fmt.Sprintf("fir/%d/%d", taps, samples), func() *trace.Trace { return workload.FIR(taps, samples) }
	}},
	{"stencil", 2, len(stencilSizes), func(i int, _ *rng) (string, func() *trace.Trace) {
		cells, sweeps := stencilSizes[i][0], stencilSizes[i][1]
		return fmt.Sprintf("stencil/%d/%d", cells, sweeps), func() *trace.Trace { return workload.Stencil1D(cells, sweeps) }
	}},
	{"histogram", 2, 0, func(_ int, r *rng) (string, func() *trace.Trace) {
		seed := int64(r.next() >> 1)
		return fmt.Sprintf("histogram/%d", seed), func() *trace.Trace { return workload.Histogram(24, 3000, 1.1, seed) }
	}},
	{"spmv", 2, 0, func(_ int, r *rng) (string, func() *trace.Trace) {
		seed := int64(r.next() >> 1)
		return fmt.Sprintf("spmv/%d", seed), func() *trace.Trace { return workload.SpMV(32, 4, 32, seed) }
	}},
	{"markov", 2, 0, func(_ int, r *rng) (string, func() *trace.Trace) {
		seed := int64(r.next() >> 1)
		return fmt.Sprintf("markov/%d", seed), func() *trace.Trace { return workload.Markov(64, 6000, seed) }
	}},
}

// mixRotation is the kernel order requests cycle through: every weight
// unit once per cycle, interleaved, so any run of a few dozen requests
// already holds the mix's proportions whatever the seed.
var mixRotation = func() []int {
	var rot []int
	for round := 0; len(rot) < totalWeight(); round++ {
		for k, m := range placeMix {
			if m.weight > round {
				rot = append(rot, k)
			}
		}
	}
	return rot
}()

func totalWeight() int {
	w := 0
	for _, m := range placeMix {
		w += m.weight
	}
	return w
}

// placeItem is one planned place request. Make regenerates its trace,
// so the checks after the timed phase need not keep every trace alive.
type placeItem struct {
	Key  string
	Make func() *trace.Trace
	Req  serve.PlaceRequest
}

// planPlace returns n place requests cycling through mixRotation, each
// on a graph no other request of the plan shares, each with its own
// seed. Sized kernels take their sizes in a seeded order without
// replacement.
func planPlace(seed int64, stream string, n int) ([]placeItem, error) {
	r := newRNG(seed, stream)
	orders := make([][]int, len(placeMix))
	used := make([]int, len(placeMix))
	for k, m := range placeMix {
		if m.variants > 0 {
			orders[k] = r.perm(m.variants)
		}
	}
	items := make([]placeItem, 0, n)
	for i := 0; i < n; i++ {
		k := mixRotation[i%len(mixRotation)]
		m := placeMix[k]
		v := 0
		if m.variants > 0 {
			if used[k] == m.variants {
				return nil, fmt.Errorf("plan: %d requests exhaust the %d %s sizes", n, m.variants, m.name)
			}
			v = orders[k][used[k]]
		}
		used[k]++
		key, mk := m.variant(v, r)
		var sb strings.Builder
		if err := trace.Encode(&sb, mk()); err != nil {
			return nil, fmt.Errorf("plan: encode %s: %w", key, err)
		}
		items = append(items, placeItem{
			Key:  key,
			Make: mk,
			Req: serve.PlaceRequest{
				Trace:      sb.String(),
				Seed:       int64(r.next() >> 1),
				Iterations: placeIterations,
			},
		})
	}
	return items, nil
}

// hotOrder returns the order in which serve-hot replays its set: n
// indices into [0, hotSetSize), each full pass a fresh permutation.
func hotOrder(seed int64, n int) []int {
	r := newRNG(seed, "hot/order")
	order := make([]int, 0, n)
	for len(order) < n {
		for _, v := range r.perm(hotSetSize) {
			if len(order) < n {
				order = append(order, v)
			}
		}
	}
	return order
}

// streamPlan is one planned stream: create, append every batch, delete.
type streamPlan struct {
	Req     serve.StreamRequest
	Batches [][]int
}

// planStreams returns enough streams to carry n appends. Each stream is
// a locality walk (steps of at most 3 over a seeded relabeling), so the
// session's improvement rounds have structure to find.
func planStreams(seed int64, n int) []streamPlan {
	r := newRNG(seed, "stream")
	count := (n + streamAppends - 1) / streamAppends
	plans := make([]streamPlan, count)
	for s := range plans {
		items := streamItems
		relabel := r.perm(items)
		cur := items / 2
		batches := make([][]int, streamAppends)
		for b := range batches {
			batch := make([]int, streamBatch)
			for a := range batch {
				batch[a] = relabel[cur]
				cur += int(r.next()%7) - 3
				if cur < 0 {
					cur = -cur
				}
				if cur >= items {
					cur = 2*(items-1) - cur
				}
			}
			batches[b] = batch
		}
		plans[s] = streamPlan{
			Req: serve.StreamRequest{
				Name:  fmt.Sprintf("perf-%d-%05d", seed, s),
				Items: items,
				Seed:  int64(r.next() >> 1),
			},
			Batches: batches,
		}
	}
	return plans
}
