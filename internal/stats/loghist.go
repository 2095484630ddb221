package stats

import "math"

// Distribution is the read side of an empirical distribution — the
// interface every "fraction of jobs vs size" figure renders through.
// The exact implementations hold the sample, as one sorted array (CDF)
// or as several ascending runs (RunsCDF), and answer identically; the
// fixed-memory QuantileSketch serves the streaming analyses.
type Distribution interface {
	// Len is the number of observations.
	Len() int
	// P returns P[X <= x].
	P(x float64) float64
	// Quantile returns the q-th quantile for q in [0,1].
	Quantile(q float64) float64
	// Min and Max are the extreme observations (exact in both
	// implementations).
	Min() float64
	Max() float64
	// Median is the 0.5 quantile.
	Median() float64
	// LogPoints returns (x, P[X<=x]) pairs at perDecade points per decade
	// across the positive support, matching the paper's log x-axes.
	LogPoints(perDecade int) []Point
}

// Compile-time interface checks.
var (
	_ Distribution = (*CDF)(nil)
	_ Distribution = (*RunsCDF)(nil)
	_ Distribution = (*QuantileSketch)(nil)
)

// sketchDecades spans [1, 10^19) — enough for any int64 byte count.
const sketchDecades = 19

// DefaultBinsPerDecade gives relative quantile error ≤ 10^(1/128)-1 ≈
// 1.8% per half-bin, at 19·128·8 B ≈ 19 KiB per sketch.
const DefaultBinsPerDecade = 128

// QuantileSketch is a fixed-memory Distribution: a LogHistogram covering
// [1, 1e19) plus exact min/max tracking, so a streamed analysis can
// answer quantile and CDF queries with memory independent of the number
// of observations — the property the constant-memory streaming analyses
// need — at the price of bounded relative error in quantile positions
// (half a bin width; see DefaultBinsPerDecade). Values below 1
// (zero data sizes) land in the histogram's ZeroCount bucket.
type QuantileSketch struct {
	h        *LogHistogram
	min, max float64
	minPos   float64 // smallest observation ≥ 1 (0 if none)
}

// NewQuantileSketch creates an empty sketch; binsPerDecade ≤ 0 selects
// DefaultBinsPerDecade.
func NewQuantileSketch(binsPerDecade int) *QuantileSketch {
	if binsPerDecade <= 0 {
		binsPerDecade = DefaultBinsPerDecade
	}
	return &QuantileSketch{h: NewLogHistogram(binsPerDecade, 0, sketchDecades)}
}

// Observe adds one observation. NaN is clamped to the zero bucket (trace
// validation rejects negative sizes upstream).
func (s *QuantileSketch) Observe(v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	if s.h.Total() == 0 || v < s.min {
		s.min = v
	}
	if s.h.Total() == 0 || v > s.max {
		s.max = v
	}
	if v >= 1 && (s.minPos == 0 || v < s.minPos) {
		s.minPos = v
	}
	if v >= 1 {
		s.h.Observe(v)
	} else {
		s.h.Observe(0) // zero bucket, keeps totals consistent
	}
}

// Merge folds another sketch into this one. Both must have been built
// with the same binsPerDecade. Histogram counts are integers and the
// min/max/minPos trackers take extrema, so merging is exact: merging
// per-shard sketches in any order answers every Distribution query
// identically to a single sketch that observed the whole stream — the
// property that lets Figure 1 compose across shards. The argument is
// not modified.
func (s *QuantileSketch) Merge(o *QuantileSketch) error {
	if o.h.Total() == 0 {
		return nil // merging an empty sketch is a no-op either way
	}
	empty := s.h.Total() == 0
	if err := s.h.Merge(o.h); err != nil {
		return err
	}
	if empty || o.min < s.min {
		s.min = o.min
	}
	if empty || o.max > s.max {
		s.max = o.max
	}
	if o.minPos != 0 && (s.minPos == 0 || o.minPos < s.minPos) {
		s.minPos = o.minPos
	}
	return nil
}

// Len returns the number of observations.
func (s *QuantileSketch) Len() int { return int(s.h.Total()) }

// Min returns the smallest observation (0 when empty).
func (s *QuantileSketch) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
func (s *QuantileSketch) Max() float64 { return s.max }

// P returns the fraction of observations at most x, interpolating
// log-uniformly inside the bin containing x.
func (s *QuantileSketch) P(x float64) float64 {
	total := s.h.Total()
	if total == 0 {
		return 0
	}
	if x < s.min {
		return 0
	}
	if x >= s.max {
		return 1
	}
	if x < 1 {
		// Sub-1 observations are all in the zero bucket; with x ≥ min
		// they count in full.
		return float64(s.h.ZeroCount) / float64(total)
	}
	pos := math.Log10(x) * float64(s.h.BinsPerDecade)
	idx := int(pos)
	if idx >= len(s.h.Counts) {
		idx = len(s.h.Counts) - 1
	}
	cum := s.h.ZeroCount
	for i := 0; i < idx; i++ {
		cum += s.h.Counts[i]
	}
	frac := pos - float64(idx)
	partial := float64(s.h.Counts[idx]) * frac
	return (float64(cum) + partial) / float64(total)
}

// Quantile returns the q-th quantile: the geometric midpoint of the bin
// holding the q-th observation, clamped to the exact [min, max] range.
func (s *QuantileSketch) Quantile(q float64) float64 {
	total := s.h.Total()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	rank := q * float64(total)
	if rank < float64(s.h.ZeroCount) {
		return s.min
	}
	cum := float64(s.h.ZeroCount)
	for i, c := range s.h.Counts {
		cum += float64(c)
		if cum >= rank {
			mid := math.Pow(10, (float64(i)+0.5)/float64(s.h.BinsPerDecade))
			return s.clamp(mid)
		}
	}
	return s.max
}

func (s *QuantileSketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Median returns the 0.5 quantile.
func (s *QuantileSketch) Median() float64 { return s.Quantile(0.5) }

// LogPoints returns (x, P[X<=x]) pairs at perDecade points per decade
// across the support at and above 1, mirroring CDF.LogPoints.
func (s *QuantileSketch) LogPoints(perDecade int) []Point {
	if s.h.Total() == 0 || perDecade < 1 || s.minPos == 0 {
		return nil
	}
	return logPoints(s.minPos, s.max, perDecade, s.P)
}
