package stats

import (
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution function over a sample.
// It backs every "Fraction of jobs vs size" plot in the paper (Figures 1,
// 3, 4, 5, 8). The zero value is unusable; construct with NewCDF.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample. The input slice is copied.
func NewCDF(sample []float64) *CDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// NewSortedCDF wraps an already ascending sample without copying it:
// the CDF shares the slice, which the caller must not modify while the
// CDF is in use.
func NewSortedCDF(sorted []float64) *CDF {
	return &CDF{sorted: sorted}
}

// Len returns the number of sample points.
func (c *CDF) Len() int { return len(c.sorted) }

// P returns the empirical probability P[X <= x], i.e. the fraction of the
// sample that is at most x. An empty CDF returns 0 for all x.
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// sort.SearchFloat64s finds the first index with sorted[i] >= x; we want
	// the count of values <= x, so search for the first value > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (inverse CDF) for q in [0,1], clamping
// out-of-range q. An empty CDF returns 0.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	return quantileSorted(c.sorted, q)
}

// Min returns the smallest sample value (0 when empty).
func (c *CDF) Min() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[0]
}

// Max returns the largest sample value (0 when empty).
func (c *CDF) Max() float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[len(c.sorted)-1]
}

// Median returns the 0.5 quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Points returns up to n (x, P[X<=x]) pairs evenly spaced in quantile
// space, suitable for plotting the CDF curve. For n < 2, n is treated as 2.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 {
		return nil
	}
	if n < 2 {
		n = 2
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		pts = append(pts, Point{X: c.Quantile(q), Y: q})
	}
	return pts
}

// LogPoints returns (x, P[X<=x]) pairs at m points per decade across the
// positive support of the distribution, matching the paper's log-scale
// x-axes. Samples that are zero or negative contribute to probabilities but
// never appear as x positions.
func (c *CDF) LogPoints(perDecade int) []Point {
	if len(c.sorted) == 0 || perDecade < 1 {
		return nil
	}
	// Find the positive support.
	minPos := math.Inf(1)
	for _, v := range c.sorted {
		if v > 0 {
			minPos = v
			break
		}
	}
	if math.IsInf(minPos, 1) {
		return nil
	}
	maxVal := c.sorted[len(c.sorted)-1]
	loExp := math.Floor(math.Log10(minPos))
	hiExp := math.Ceil(math.Log10(maxVal))
	var pts []Point
	for e := loExp; e <= hiExp+1e-9; e += 1.0 / float64(perDecade) {
		x := math.Pow(10, e)
		pts = append(pts, Point{X: x, Y: c.P(x)})
		if x >= maxVal {
			break
		}
	}
	return pts
}

// Point is an (x, y) pair of a plotted curve.
type Point struct {
	X, Y float64
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic between
// two empirical CDFs: sup_x |F1(x) - F2(x)|. The paper's §7 argues that
// benchmarks must preserve empirical distributions; we use this distance to
// quantify how faithfully the synthesizer preserves them.
func KSDistance(a, b *CDF) float64 {
	if a.Len() == 0 || b.Len() == 0 {
		return 1
	}
	var d float64
	// The supremum is attained at a sample point of either distribution.
	for _, x := range a.sorted {
		if diff := math.Abs(a.P(x) - b.P(x)); diff > d {
			d = diff
		}
	}
	for _, x := range b.sorted {
		if diff := math.Abs(a.P(x) - b.P(x)); diff > d {
			d = diff
		}
	}
	return d
}
