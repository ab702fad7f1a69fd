package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest nearest-rank percentile of xs that still has at
// least minBeyond samples above it. Below 2·minBeyond samples that
// percentile would not even reach the median, so the tail falls back to
// the maximum and says so through beyond < minBeyond.
type tail struct {
	value      float64
	percentile float64 // 0..100
	beyond     int     // samples ranked above value
}

const minBeyond = 10

func tailOf(xs []float64) tail {
	if len(xs) == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	rank := n - minBeyond // 1-based rank of the tail sample
	if rank < (n+1)/2 {
		rank = n
	}
	return tail{value: s[rank-1], percentile: 100 * float64(rank) / float64(n), beyond: n - rank}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// histMedian estimates the median of a Prometheus-style cumulative
// histogram by linear interpolation inside the bucket that holds it.
// bounds are the finite upper bounds in ascending order; counts are the
// cumulative counts per bound, with the +Inf count last.
func histMedian(bounds, counts []float64) float64 {
	if len(counts) == 0 || counts[len(counts)-1] == 0 {
		return 0
	}
	target := counts[len(counts)-1] / 2
	lower, below := 0.0, 0.0
	for i, ub := range bounds {
		if counts[i] >= target {
			in := counts[i] - below
			if in == 0 {
				return ub
			}
			return lower + (ub-lower)*(target-below)/in
		}
		lower, below = ub, counts[i]
	}
	return lower
}
