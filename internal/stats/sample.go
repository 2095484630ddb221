package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// sampleCutoff is the length from which NewSampleCDF buckets and
// selects instead of sorting a copy. BenchmarkSampleCDF, a report's
// reads of lognormal byte sizes (a quarter of them zero, about 560
// buckets), on a 2-vCPU Intel Xeon at -cpu 1, medians of 6 runs: the
// sort 3.9 µs against the buckets 6.0 µs at 64 values, 4.8 against 5.4
// at 128, then 8.9 against 6.8 at 256, 21 against 12.5 at 512 and 34
// against 17 at 1,024.
const sampleCutoff = 256

// reportPerDecade and reportQuantiles are what a report reads of each
// Figure 1 distribution besides its count and extremes (core's report
// encoders): LogPoints at 10 points per decade and these five
// quantiles. NewSampleCDF answers them up front, in one gather; any
// other query is answered exactly too, by a gather of its own.
const reportPerDecade = 10

var reportQuantiles = [...]float64{0.25, 0.5, 0.75, 0.90, 0.99}

// posInfBits is the bit pattern of +Inf: the bits of every positive
// finite float64 are below it, and those of a NaN, a negative value
// and −0 are not.
const posInfBits = 0x7FF0 << 48

// SampleCDF is the exact empirical CDF of an unsorted sample, answered
// without sorting it. Every answer equals, bit for bit, the answer of
// NewSortedCDF over the sorted sample, so a sample built for one report
// finalizes to the bytes a sorted array gives.
//
// NewSampleCDF counts the zeros and buckets every positive value by the
// top 16 bits of its float64's bits (sign, exponent and four mantissa
// bits, which order non-negative floats as their values; see
// bucketKey), so a bucket spans at most 1/16 of a binary octave, and
// Figure 1's byte sizes, 1 B to petabytes, fill under 800 buckets.
// Prefix sums over the bucket counts
// name the one bucket each LogPoints grid point and each order
// statistic falls in; only the named buckets' values are gathered, in
// one more pass, and then counted against the grid point or
// quickselected in for the rank. A sample shorter than sampleCutoff, or
// one holding a negative value, −0, NaN or ±Inf (whose order
// slices.Sort fixes by comparison), or no positive value, is copied and
// sorted instead.
type SampleCDF struct {
	sample []float64 // shared with the caller, never written
	sorted *CDF      // the sorted copy, when the sample is not bucketed

	n, zeros    int
	minPos, max float64
	lo          int     // bucket key of minPos: bucket i holds key lo+i
	cum         []int32 // cum[i] counts the positive values in buckets below i

	grid  []Point   // LogPoints(reportPerDecade)
	ranks []int     // ascending order statistics reportQuantiles read
	vals  []float64 // their values
}

// NewSampleCDF wraps an unsorted sample without copying it: the CDF
// shares the slice, which the caller must not modify while the CDF is
// in use. It costs a few passes over the sample, and answers LogPoints
// at 10 points per decade and the 0.25, 0.5, 0.75, 0.9 and 0.99
// quantiles from memory; any other P, Quantile or LogPoints call makes
// one more pass (P counts the values at most x directly).
func NewSampleCDF(sample []float64) *SampleCDF { return newSampleCDF(sample, sampleCutoff) }

// newSampleCDF is NewSampleCDF with the length from which it buckets.
func newSampleCDF(sample []float64, cutoff int) *SampleCDF {
	c := &SampleCDF{sample: sample, n: len(sample)}
	if c.n < cutoff || c.n > math.MaxInt32 || !c.bucket() {
		s := slices.Clone(sample)
		SortFloats(s)
		c.sorted = NewSortedCDF(s)
		return c
	}
	for _, q := range reportQuantiles {
		quantileAt(c.n, q, func(k int) float64 {
			c.ranks = append(c.ranks, k)
			return 0
		})
	}
	slices.Sort(c.ranks)
	c.ranks = slices.Compact(c.ranks)
	c.grid, c.vals = c.query(reportPerDecade, c.ranks)
	return c
}

// bucketKey is the bucket of a positive value's bits b: the top 16
// bits of b−1, so a bucket holds the bits in (k<<48, (k+1)<<48], and a
// zero's key, 0xFFFF, sorts past every positive value's.
func bucketKey(b uint64) int { return int((b - 1) >> 48) }

// bucket finds the sample's extremes, then counts it into buckets from
// minPos's to max's and turns the counts into prefix sums. It reports
// false when the sample holds no positive value, or a value it cannot
// bucket: a negative value, −0, NaN or ±Inf.
func (c *SampleCDF) bucket() bool {
	lo, hi := uint64(math.MaxUint64), uint64(0)
	for _, v := range c.sample {
		b := math.Float64bits(v)
		lo = min(lo, b-1) // a zero wraps past every positive value
		hi = max(hi, b)
	}
	if hi == 0 || hi >= posInfBits {
		return false
	}
	c.minPos, c.max = math.Float64frombits(lo+1), math.Float64frombits(hi)
	c.lo = bucketKey(lo + 1)
	nb := bucketKey(hi) - c.lo + 1
	counts := make([]int32, nb+1) // the last one counts the zeros
	for _, v := range c.sample {
		counts[c.index(v, nb)]++
	}
	c.zeros = int(counts[nb])
	var sum int32
	for i, k := range counts {
		counts[i] = sum
		sum += k
	}
	c.cum = counts
	return true
}

// index is v's bucket among the nb from key c.lo, and nb for a zero,
// whose key lies past them all. It takes min(d, 0) by its sign bits,
// not by a branch, which a column of zeros mixed with positive values
// would mispredict.
func (c *SampleCDF) index(v float64, nb int) int {
	d := bucketKey(math.Float64bits(v)) - c.lo - nb
	return nb + d&(d>>63)
}

// resolve answers a batch of queries with one gather: P at each point's
// X, written to its Y, and the order statistic at each rank of ranks
// (0 ≤ rank < n). A query the zeros and extremes settle names no
// bucket; any other names the one bucket its answer lies in, and only
// named buckets are gathered, then counted for a point or selected in
// for a rank.
func (c *SampleCDF) resolve(pts []Point, ranks []int) (at []float64) {
	nb := len(c.cum) - 1
	// cur[i] is 0 for a bucket no query names; a named bucket's is its
	// next write index in buf, and after the gather its end.
	cur := make([]int32, nb+1)
	named := make([]int, len(pts)+len(ranks))
	xb, rb := named[:len(pts)], named[len(pts):]
	for j, p := range pts {
		xb[j] = -1
		switch x := p.X; {
		case !(x < c.max): // at or past the largest value, or NaN, which no value exceeds
			pts[j].Y = 1
		case x < c.minPos:
			pts[j].Y = 0
			if x >= 0 {
				pts[j].Y = float64(c.zeros) / float64(c.n)
			}
		default:
			xb[j] = bucketKey(math.Float64bits(x)) - c.lo
			cur[xb[j]] = 1
		}
	}
	for j, k := range ranks {
		rb[j] = -1
		if k -= c.zeros; k >= 0 { // ranks below the zeros hold +0
			rb[j] = sort.Search(nb, func(i int) bool { return int(c.cum[i+1]) > k })
			cur[rb[j]] = 1
		}
	}
	// The named buckets' values go to buf from index 1; every other
	// value, a zero's too, to buf[0], which nothing reads, so the
	// gather takes no branch on the data.
	total := int32(1)
	for i, o := range cur[:nb] {
		if o != 0 {
			cur[i] = total
			total += c.cum[i+1] - c.cum[i]
		}
	}
	buf := make([]float64, total)
	if total > 1 { // a named bucket holds a value
		for _, v := range c.sample {
			i := c.index(v, nb)
			o := cur[i]
			buf[o] = v
			cur[i] = o + int32(uint32(-o)>>31) // a named bucket's cursor advances
		}
	}
	values := func(i int) []float64 { return buf[cur[i]-(c.cum[i+1]-c.cum[i]) : cur[i]] }
	for j, i := range xb {
		if i < 0 {
			continue
		}
		k, x := c.zeros+int(c.cum[i]), pts[j].X
		for _, v := range values(i) {
			var in int
			if v <= x {
				in = 1
			}
			k += in
		}
		pts[j].Y = float64(k) / float64(c.n)
	}
	at = make([]float64, len(ranks))
	for j, i := range rb {
		if i >= 0 {
			at[j] = selectRank(values(i), ranks[j]-c.zeros-int(c.cum[i]))
		}
	}
	return at
}

// selectRank returns the value of rank k (0-based) among s, reordering
// s: a quickselect with median-of-three pivots and three-way
// partitions, so a run of equal values costs one partition. After
// 2·log2(len(s)) partitions it sorts what is left.
func selectRank(s []float64, k int) float64 {
	for budget := 2 * bits.Len(uint(len(s))); len(s) > 16 && budget > 0; budget-- {
		a, b, c := s[0], s[len(s)/2], s[len(s)-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := 0, 0, len(s)
		for i < gt {
			switch v := s[i]; {
			case v < p:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > p:
				gt--
				s[i], s[gt] = s[gt], v
			default:
				i++
			}
		}
		switch {
		case k < lt:
			s = s[:lt]
		case k < gt:
			return p
		default:
			s, k = s[gt:], k-gt
		}
	}
	slices.Sort(s)
	return s[k]
}

// query answers LogPoints(perDecade), perDecade ≥ 1, and the order
// statistics at ranks with one resolve.
func (c *SampleCDF) query(perDecade int, ranks []int) ([]Point, []float64) {
	pts := logPoints(c.minPos, c.max, perDecade, func(float64) float64 { return 0 })
	return pts, c.resolve(pts, ranks)
}

// at returns order statistic k (0-based): from memory for a rank the
// report's quantiles read, otherwise by a resolve.
func (c *SampleCDF) at(k int) float64 {
	if i, ok := slices.BinarySearch(c.ranks, k); ok {
		return c.vals[i]
	}
	return c.resolve(nil, []int{k})[0]
}

// Len returns the number of sample points.
func (c *SampleCDF) Len() int { return c.n }

// P returns the empirical probability P[X <= x] (0 when empty).
func (c *SampleCDF) P(x float64) float64 {
	if c.sorted != nil {
		return c.sorted.P(x)
	}
	k := 0
	for _, v := range c.sample {
		if !(v > x) { // as CDF.P's search counts, so a NaN x counts every value
			k++
		}
	}
	return float64(k) / float64(c.n)
}

// Quantile returns the q-th quantile for q in [0,1], clamping
// out-of-range q. An empty CDF returns 0.
func (c *SampleCDF) Quantile(q float64) float64 {
	switch {
	case c.sorted != nil:
		return c.sorted.Quantile(q)
	case q <= 0:
		return c.Min()
	case q >= 1:
		return c.Max()
	}
	return quantileAt(c.n, q, c.at)
}

// Min returns the smallest sample value (0 when empty).
func (c *SampleCDF) Min() float64 {
	switch {
	case c.sorted != nil:
		return c.sorted.Min()
	case c.zeros > 0:
		return 0
	}
	return c.minPos
}

// Max returns the largest sample value (0 when empty).
func (c *SampleCDF) Max() float64 {
	if c.sorted != nil {
		return c.sorted.Max()
	}
	return c.max
}

// Median returns the 0.5 quantile.
func (c *SampleCDF) Median() float64 { return c.Quantile(0.5) }

// LogPoints returns (x, P[X<=x]) pairs at perDecade points per decade
// across the positive support, as CDF.LogPoints does.
func (c *SampleCDF) LogPoints(perDecade int) []Point {
	switch {
	case c.sorted != nil:
		return c.sorted.LogPoints(perDecade)
	case perDecade == reportPerDecade:
		return slices.Clone(c.grid)
	case perDecade < 1:
		return nil
	}
	pts, _ := c.query(perDecade, nil)
	return pts
}
