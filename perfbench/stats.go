package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted samples
// by the nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tail is a tail-latency summary: the highest whole percentile that still
// has at least minBeyond samples above its nearest-rank position.
type tail struct {
	Percentile int     `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf selects the tail percentile for xs. With fewer than 2*minBeyond
// samples no percentile from p50 up qualifies; the maximum is then reported
// as p100 with nothing beyond it, so the record says how thin the tail is.
func tailOf(xs []float64) tail {
	s := sortedCopy(xs)
	n := len(s)
	for p := 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if beyond := n - rank; beyond >= minBeyond {
			return tail{Percentile: p, Value: s[rank-1], Samples: n, Beyond: beyond}
		}
	}
	if n == 0 {
		return tail{}
	}
	return tail{Percentile: 100, Value: s[n-1], Samples: n}
}
