package analysis

import (
	"errors"
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Drift quantifies how a workload changed between two trace collections —
// the §6.2 finding that "job types at Facebook changed significantly over
// one year", and §4.1's observation that from 2009 to 2010 the per-job
// input and shuffle distributions shifted right by several orders of
// magnitude while outputs shifted left ("raw and intermediate data sets
// have grown while the final computation results have become smaller").
type Drift struct {
	From, To string
	// MedianShift is log10(medianTo / medianFrom) per dimension: positive
	// means the distribution moved right (grew). Dimensions whose median
	// is zero in either trace report the shift of positive-value medians.
	InputMedianShift   float64
	ShuffleMedianShift float64
	OutputMedianShift  float64
	// KS distances between the (log-scaled, positive-support) per-job
	// distributions: how much the shapes changed, location included.
	InputKS   float64
	ShuffleKS float64
	OutputKS  float64
	// JobRateRatio is (jobs/hr in To) / (jobs/hr in From).
	JobRateRatio float64
}

// CompareEras computes drift between two traces of the same deployment at
// different times (e.g. FB-2009 vs FB-2010).
func CompareEras(from, to *trace.Trace) (*Drift, error) {
	if from.Len() == 0 || to.Len() == 0 {
		return nil, errors.New("analysis: empty trace in era comparison")
	}
	d := &Drift{From: from.Meta.Name, To: to.Meta.Name}

	dim := func(t *trace.Trace, f func(*trace.Job) float64) *stats.CDF {
		xs := make([]float64, 0, t.Len())
		for _, j := range t.Jobs {
			if v := f(j); v > 0 {
				xs = append(xs, math.Log10(v))
			}
		}
		return stats.NewCDF(xs)
	}
	shiftAndKS := func(f func(*trace.Job) float64) (shift, ks float64) {
		a := dim(from, f)
		b := dim(to, f)
		if a.Len() == 0 || b.Len() == 0 {
			return 0, 1
		}
		return b.Median() - a.Median(), stats.KSDistance(a, b)
	}
	d.InputMedianShift, d.InputKS = shiftAndKS(func(j *trace.Job) float64 { return float64(j.InputBytes) })
	d.ShuffleMedianShift, d.ShuffleKS = shiftAndKS(func(j *trace.Job) float64 { return float64(j.ShuffleBytes) })
	d.OutputMedianShift, d.OutputKS = shiftAndKS(func(j *trace.Job) float64 { return float64(j.OutputBytes) })

	fromRate := ratePerHour(from)
	toRate := ratePerHour(to)
	if fromRate > 0 {
		d.JobRateRatio = toRate / fromRate
	}
	return d, nil
}

// ratePerHour divides by the span BinHourly bins (trace.Meta.FillFromSpan).
func ratePerHour(t *trace.Trace) float64 {
	meta := t.Meta
	meta.FillFromSpan(t.Span())
	h := meta.Length.Hours()
	if h <= 0 {
		return 0
	}
	return float64(t.Len()) / h
}

// Significant reports whether any dimension's shape changed by more than
// the threshold KS distance — the re-assessment trigger the paper
// recommends ("any policy parameters need to be periodically revisited").
func (d *Drift) Significant(ksThreshold float64) bool {
	return d.InputKS > ksThreshold || d.ShuffleKS > ksThreshold || d.OutputKS > ksThreshold
}
