package stats

import (
	"errors"
	"math"
	"sort"
)

// BurstinessCurve is the paper's §5.2 burstiness metric: the vector of
// nth-percentile-to-median ratios of an arrival-rate series. Plotting
// Ratio (x) against Percentile (y) yields "a cumulative distribution of
// arrival rates per time unit, normalized by the median arrival rate"
// (Figure 8). A more horizontal curve means a burstier workload; a vertical
// line at x=1 is a perfectly constant arrival rate.
type BurstinessCurve struct {
	// Percentiles[i] in [0,100] and Ratios[i] = P_i / median, parallel
	// slices sorted by percentile.
	Percentiles []float64
	Ratios      []float64
	// Median is the median of the underlying series (the normalizer).
	Median float64
	// PeakToMedian is the 100th-percentile-to-median ratio the paper
	// headline numbers use ("peak-to-median ratio ... from 9:1 to 260:1").
	PeakToMedian float64
}

// Burstiness computes the normalized percentile curve of a rate series
// (e.g. task-seconds submitted per hour). The series must have a strictly
// positive median, since ratios are undefined otherwise — workloads in the
// paper always keep the cluster at least lightly loaded each hour; callers
// with idle hours should pre-filter or aggregate into coarser bins.
// The series is copied and sorted once; it is not modified.
func Burstiness(series []float64) (BurstinessCurve, error) {
	if len(series) == 0 {
		return BurstinessCurve{}, ErrEmpty
	}
	sorted := append([]float64(nil), series...)
	sort.Float64s(sorted)
	med := quantileSorted(sorted, 0.5)
	if med <= 0 {
		return BurstinessCurve{}, errors.New("stats: burstiness undefined for non-positive median")
	}
	curve := BurstinessCurve{Median: med}
	for p := 0.0; p <= 100.0+1e-9; p++ {
		curve.Percentiles = append(curve.Percentiles, p)
		curve.Ratios = append(curve.Ratios, quantileSorted(sorted, math.Min(p/100, 1))/med)
	}
	curve.PeakToMedian = curve.Ratios[len(curve.Ratios)-1]
	return curve, nil
}

// RatioAt returns the percentile-to-median ratio at percentile p (0..100),
// interpolating between the precomputed integer percentiles.
func (b BurstinessCurve) RatioAt(p float64) float64 {
	if len(b.Ratios) == 0 {
		return 0
	}
	if p <= 0 {
		return b.Ratios[0]
	}
	if p >= 100 {
		return b.Ratios[len(b.Ratios)-1]
	}
	lo := int(math.Floor(p))
	hi := int(math.Ceil(p))
	if lo == hi {
		return b.Ratios[lo]
	}
	frac := p - float64(lo)
	return b.Ratios[lo]*(1-frac) + b.Ratios[hi]*frac
}

// SineSeries generates the paper's Figure 8 reference signals: a sinusoid
// with the given offset sampled hourly for n hours, i.e.
// offset + sin(2π t/24). The paper plots "sine + 2" (min-max range equal to
// the mean) and "sine + 20" (range 10% of the mean) as burstiness baselines.
func SineSeries(n int, offset float64) []float64 {
	out := make([]float64, n)
	for t := 0; t < n; t++ {
		out[t] = offset + math.Sin(2*math.Pi*float64(t)/24)
	}
	return out
}
