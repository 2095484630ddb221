// Package stats implements the statistical machinery behind the paper's
// workload analyses: empirical CDFs and quantiles, log-scale histograms,
// Pearson correlation between hourly time series (Fig 9), least-squares
// regression in log-log space for Zipf slope fitting (Fig 2), discrete
// Fourier analysis for diurnal-pattern detection (Fig 7), the
// percentile-to-median burstiness metric the paper defines in §5.2 (Fig 8),
// and Kolmogorov–Smirnov distances used to score synthesis fidelity (§7).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Sum returns the sum of xs. An empty slice sums to zero.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// quantileSorted computes the q-th quantile (q in [0, 1]) of an
// already-sorted slice, using linear interpolation between order
// statistics (type-7 / Excel convention).
func quantileSorted(sorted []float64, q float64) float64 {
	return quantileAt(len(sorted), q, func(i int) float64 { return sorted[i] })
}

// quantileAt is quantileSorted over n ascending values read through
// at, which it calls for the one or two order statistics it
// interpolates: the one arithmetic both exact distributions share.
func quantileAt(n int, q float64, at func(int) float64) float64 {
	if n == 1 {
		return at(0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return at(lo)
	}
	frac := pos - float64(lo)
	return at(lo)*(1-frac) + at(hi)*frac
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// GeometricMean returns the geometric mean of strictly positive xs. Values
// that are zero or negative are an error: the analyses apply it only to
// byte counts and task-times after filtering zeros.
func GeometricMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean of non-positive value")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// OrdersOfMagnitudeSpan reports how many base-10 orders of magnitude
// separate the smallest and largest strictly positive values of xs. The
// paper uses this to describe Figure 1 ("medians ... differ by 6, 8, and 4
// orders of magnitude"). Zero and negative entries are skipped; if fewer
// than two positive entries exist the span is zero.
func OrdersOfMagnitudeSpan(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	n := 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		n++
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if n < 2 || lo == hi {
		return 0
	}
	return math.Log10(hi) - math.Log10(lo)
}
