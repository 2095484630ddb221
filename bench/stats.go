package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile for the
// benchmark to report it: a tail estimate resting on fewer is noise.
const minBeyond = 10

// percentileLadder is the set of percentiles a timing may be reported
// at, highest last.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// quantile returns the nearest-rank q-quantile of ascending samples (0
// for none).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// resolvable reports whether n samples put at least minBeyond of them
// above the q-quantile.
func resolvable(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// highestResolvable returns the highest ladder percentile n samples
// resolve, or 0 when even the median has fewer than minBeyond beyond it.
func highestResolvable(n int) float64 {
	best := 0.0
	for _, q := range percentileLadder {
		if resolvable(n, q) {
			best = q
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle two for an
// even count; 0 for none).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first, second and third quartile of xs with
// the "exclusive" interpolation of Python's statistics.quantiles(xs,
// n=4), the rule the run-to-run spread is judged by. Fewer than two
// values give that value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Python clamps j into [1, n-1], then interpolates (or, for
		// tiny n, extrapolates) from the clamped pair.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
