package stats

import (
	"math"
	"sort"
	"sync"
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
	minPos := math.Inf(1)
	if i := firstPositive(c.sorted); i < len(c.sorted) {
		minPos = c.sorted[i]
	}
	return logPoints(minPos, c.sorted[len(c.sorted)-1], perDecade, c.P)
}

// firstPositive returns the index of the first positive value of an
// ascending sample (len(sorted) when there is none) by binary search,
// so the zero shuffle of map-only jobs is never scanned.
func firstPositive(sorted []float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > 0 })
}

// logPoints samples the CDF p at perDecade points per decade, from the
// decade of the smallest positive sample minPos through the first point
// at or past the largest sample maxVal. It returns nil when minPos is
// +Inf: no positive sample. Every Distribution's LogPoints samples here.
//
// Step k sits at x = 10^e, where e accumulates 1/perDecade from the
// starting decade, so x depends only on that decade, perDecade and k:
// the first steps come from the decade's shared grid (logGrid), which
// holds the same 10^e, and later ones call math.Pow.
func logPoints(minPos, maxVal float64, perDecade int, p func(float64) float64) []Point {
	if math.IsInf(minPos, 1) {
		return nil
	}
	loExp := math.Floor(math.Log10(minPos))
	hiExp := math.Ceil(math.Log10(maxVal))
	grid := logGrid(loExp, perDecade)
	var pts []Point
	// A range within the grid's reach gets its point list up front.
	if n := (hiExp - loExp) * float64(perDecade); n >= 0 && n <= float64(len(grid)) {
		pts = make([]Point, 0, int(n)+2)
	}
	for k, e := 0, loExp; e <= hiExp+1e-9; k, e = k+1, e+1.0/float64(perDecade) {
		var x float64
		if k < len(grid) {
			x = grid[k]
		} else {
			x = math.Pow(10, e)
		}
		pts = append(pts, Point{X: x, Y: p(x)})
		if x >= maxVal {
			break
		}
	}
	return pts
}

const (
	// gridDecades is how far each shared grid reaches past its starting
	// decade: 24 decades cover every byte count from 1 B to past the
	// int64 range, so Figure 1 never leaves the grid.
	gridDecades = 24
	// maxGridPerDecade bounds the densities that get a shared grid; the
	// reports sample at 10 points per decade.
	maxGridPerDecade = 10
)

type gridKey struct{ lo, perDecade int }

// grids holds the shared grids, keyed by starting decade and density.
// A stored grid is never written again, so concurrent reports read it
// without locking; a grid two reports race to build is built twice,
// identically. Starting decades run from -324 to 308, so the table is
// bounded by the grid whatever the samples hold.
var grids sync.Map // gridKey → []float64

// logGrid returns x = 10^e for the first gridDecades·perDecade+1 steps
// of logPoints' accumulation from decade lo (nil for densities without
// a shared grid).
func logGrid(lo float64, perDecade int) []float64 {
	if perDecade > maxGridPerDecade {
		return nil
	}
	key := gridKey{int(lo), perDecade}
	if g, ok := grids.Load(key); ok {
		return g.([]float64)
	}
	g := make([]float64, 0, gridDecades*perDecade+1)
	for e := lo; len(g) < cap(g); e += 1.0 / float64(perDecade) {
		g = append(g, math.Pow(10, e))
	}
	stored, _ := grids.LoadOrStore(key, g)
	return stored.([]float64)
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
