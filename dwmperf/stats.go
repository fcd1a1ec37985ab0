package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark prints it: a percentile resting on fewer is set
// by one or two samples and moves from run to run.
const minBeyond = 10

// rankOf is the 1-based nearest rank of quantile q in n samples.
func rankOf(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-quantile of sorted. ok is false
// when fewer than minBeyond samples lie above it; the caller must then
// not report it.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	r := rankOf(q, n)
	if n-r < minBeyond {
		return 0, false
	}
	return sorted[r-1], true
}

// tail returns the highest percentile, at most p99, that keeps
// minBeyond samples above it, and the quantile it stands for. With 1000
// or more samples that is p99 itself.
func tail(sorted []float64) (v, q float64, ok bool) {
	n := len(sorted)
	r := rankOf(0.99, n)
	if n-r < minBeyond {
		r = n - minBeyond
	}
	if r < 1 {
		return 0, 0, false
	}
	return sorted[r-1], float64(r) / float64(n), true
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
