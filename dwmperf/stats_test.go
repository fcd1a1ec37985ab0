package main

import "testing"

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // exactly ten samples above
		{999, 0.99, 0, false},   // nine above: refused
		{2000, 0.99, 1980, true},
		{22, 0.50, 11, true},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		v, ok := percentile(ramp(c.n), c.q)
		if ok != c.ok || v != c.want {
			t.Errorf("percentile(n=%d, q=%g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
}

func TestTailIsHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n     int
		want  float64
		wantQ float64
		ok    bool
	}{
		{3000, 2970, 0.99, true}, // capped at p99
		{1000, 990, 0.99, true},
		{500, 490, 0.98, true},
		{22, 12, 12.0 / 22, true},
		{10, 0, 0, false},
	}
	for _, c := range cases {
		v, q, ok := tail(ramp(c.n))
		if ok != c.ok || v != c.want || q != c.wantQ {
			t.Errorf("tail(n=%d) = %g, q=%g, %v; want %g, q=%g, %v", c.n, v, q, ok, c.want, c.wantQ, c.ok)
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("tail(n=%d) leaves %d samples beyond it", c.n, c.n-int(v))
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
}
