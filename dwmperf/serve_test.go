package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
)

// TestServerSeriesInRealExposition runs a place miss, its cache hit and
// a stream against an in-process server set up as dwmserved sets it up
// (journal metrics under serve.wal), and checks that every series the
// traced run reads is in the real /metrics exposition and moves.
func TestServerSeriesInRealExposition(t *testing.T) {
	jl, err := wal.Open(wal.Options{Dir: t.TempDir(), MetricsPrefix: "serve.wal"})
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()
	srv, err := serve.New(serve.Options{Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	ctx := context.Background()
	d := &daemon{base: hs.URL}
	lc := newLoadClient(hs.URL)
	defer lc.close()
	before, err := d.metrics(ctx, lc.hc)
	if err != nil {
		t.Fatal(err)
	}
	items, err := planPlace(1, "exposition", 1)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ { // a miss, then its exact hit
		if s, _ := lc.place(ctx, items[0].Req); s.err != nil {
			t.Fatal(s.err)
		}
	}
	plans := planStreams(1, streamAppends)
	samples := make([]opSample, 8)
	lc.stream(ctx, plans[0], samples)
	for _, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	after, err := d.metrics(ctx, lc.hc)
	if err != nil {
		t.Fatal(err)
	}
	diff := metricsDiff(before, after)
	for _, name := range serverSeries {
		v, ok := diff[name]
		switch {
		case !ok:
			t.Errorf("/metrics has no series %s", name)
		case !(v > 0):
			t.Errorf("series %s moved by %g over a miss, a hit and a stream", name, v)
		}
	}
}
