package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between order statistics; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentileSorted(sortedCopy(xs), p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	if lo >= n-1 {
		return sorted[n-1]
	}
	if lo < 0 {
		return sorted[0]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// weightedPercentileSorted returns the smallest value v of the sorted
// sample such that the values up to v hold at least p percent of the
// sample's sum: a percentile in which every value weighs as much as it
// is large.
func weightedPercentileSorted(sorted []float64, p float64) float64 {
	var total float64
	for _, x := range sorted {
		total += x
	}
	if len(sorted) == 0 || total <= 0 {
		return 0
	}
	want := p / 100 * total
	var cum float64
	for _, x := range sorted {
		cum += x
		if cum >= want {
			return x
		}
	}
	return sorted[len(sorted)-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// tailLadder is the set of tail percentiles a report may name, lowest
// first.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// tailPercentile picks the highest percentile on the ladder that still
// has at least ten samples beyond it in a sample of n, so a reported
// tail is never one or two outliers. It returns 50 when even p75 has
// fewer than ten samples above it.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range tailLadder {
		// The epsilon keeps 10000 samples at p99.9 (exactly ten beyond)
		// from failing on the rounding of 100-99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) (exclusive method) does,
// which is what the acceptance spread is defined on.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
