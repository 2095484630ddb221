package stats

import (
	"math"
	"slices"
	"sort"
)

// RunsCDF is the exact empirical CDF of a sample held as several
// ascending runs, answered without merging them: a rank is a sum of
// per-run binary searches and an order statistic a select across the
// runs. Every answer equals, bit for bit, the answer of NewSortedCDF
// over the merged runs, so a sample kept as a few immutable runs
// finalizes to the same report as one sorted array.
type RunsCDF struct {
	runs [][]float64
	n    int
}

// NewRunsCDF wraps ascending runs without copying their values: the
// CDF shares the runs, which the caller must not modify while it is in
// use (the list of runs is copied). Empty runs are allowed.
func NewRunsCDF(runs [][]float64) *RunsCDF {
	c := &RunsCDF{runs: slices.Clone(runs)}
	for _, r := range runs {
		c.n += len(r)
	}
	return c
}

// Len returns the number of sample points.
func (c *RunsCDF) Len() int { return c.n }

// P returns the empirical probability P[X <= x] (0 when empty).
func (c *RunsCDF) P(x float64) float64 {
	if c.n == 0 {
		return 0
	}
	k := 0
	for _, r := range c.runs {
		k += sort.Search(len(r), func(i int) bool { return r[i] > x })
	}
	return float64(k) / float64(c.n)
}

// Quantile returns the q-th quantile for q in [0,1], clamping
// out-of-range q. An empty CDF returns 0.
func (c *RunsCDF) Quantile(q float64) float64 {
	if c.n == 0 {
		return 0
	}
	if q <= 0 {
		return c.Min()
	}
	if q >= 1 {
		return c.Max()
	}
	return quantileAt(c.n, q, c.at)
}

// Min returns the smallest sample value (0 when empty).
func (c *RunsCDF) Min() float64 {
	if c.n == 0 {
		return 0
	}
	lo := math.Inf(1)
	for _, r := range c.runs {
		if len(r) > 0 {
			lo = min(lo, r[0])
		}
	}
	return lo
}

// Max returns the largest sample value (0 when empty).
func (c *RunsCDF) Max() float64 {
	if c.n == 0 {
		return 0
	}
	hi := math.Inf(-1)
	for _, r := range c.runs {
		if len(r) > 0 {
			hi = max(hi, r[len(r)-1])
		}
	}
	return hi
}

// Median returns the 0.5 quantile.
func (c *RunsCDF) Median() float64 { return c.Quantile(0.5) }

// LogPoints returns (x, P[X<=x]) pairs at perDecade points per decade
// across the positive support, as CDF.LogPoints does.
func (c *RunsCDF) LogPoints(perDecade int) []Point {
	if c.n == 0 || perDecade < 1 {
		return nil
	}
	minPos := math.Inf(1)
	for _, r := range c.runs {
		if i := firstPositive(r); i < len(r) {
			minPos = min(minPos, r[i])
		}
	}
	return logPoints(minPos, c.Max(), perDecade, c.P)
}

// at returns order statistic k (0-based): the value the merged runs
// would hold at index k. It keeps a window per run around rank k. Each
// step takes the middle value of the widest window as a pivot, counts
// the window values below it and at most it, and either returns the
// pivot or keeps the values on k's side of it, so the widest window at
// least halves: O(runs · log N) steps of O(runs · log N) searches.
func (c *RunsCDF) at(k int) float64 {
	type window struct{ lo, hi, below, upto int }
	ws := make([]window, len(c.runs))
	for i, r := range c.runs {
		ws[i].hi = len(r)
	}
	for {
		p := 0
		for i, w := range ws {
			if w.hi-w.lo > ws[p].hi-ws[p].lo {
				p = i
			}
		}
		v := c.runs[p][(ws[p].lo+ws[p].hi)/2]
		below, upto := 0, 0
		for i, r := range c.runs {
			w := &ws[i]
			win := r[w.lo:w.hi]
			w.below = sort.Search(len(win), func(j int) bool { return win[j] >= v })
			w.upto = w.below + sort.Search(len(win)-w.below, func(j int) bool { return win[w.below+j] > v })
			below += w.below
			upto += w.upto
		}
		switch {
		case k < below:
			for i := range ws {
				ws[i].hi = ws[i].lo + ws[i].below
			}
		case k < upto:
			return v
		default:
			k -= upto
			for i := range ws {
				ws[i].lo += ws[i].upto
			}
		}
	}
}
