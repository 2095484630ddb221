package analysis

import (
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

func eraTrace(name string, inputScale, outputScale float64, n int) *trace.Trace {
	start := time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC)
	tr := trace.New(trace.Meta{Name: name, Machines: 100, Start: start, Length: 24 * time.Hour})
	for i := 0; i < n; i++ {
		base := float64(1+i%100) * 1e6
		tr.Add(&trace.Job{
			ID:           int64(i + 1),
			SubmitTime:   start.Add(time.Duration(i) * time.Minute / 2),
			Duration:     time.Minute,
			InputBytes:   units.Bytes(base * inputScale),
			ShuffleBytes: units.Bytes(base * inputScale / 10),
			OutputBytes:  units.Bytes(base * outputScale),
			MapTasks:     1,
			MapTime:      30,
		})
	}
	return tr
}

func TestCompareErasShift(t *testing.T) {
	// 2010-era inputs 1000x larger, outputs 10x smaller — the §4.1
	// Facebook evolution in miniature.
	from := eraTrace("era-2009", 1, 1, 500)
	to := eraTrace("era-2010", 1000, 0.1, 1000)
	d, err := CompareEras(from, to)
	if err != nil {
		t.Fatal(err)
	}
	if d.InputMedianShift < 2.5 || d.InputMedianShift > 3.5 {
		t.Errorf("input shift = %v, want ~3 (1000x)", d.InputMedianShift)
	}
	if d.OutputMedianShift > -0.5 || d.OutputMedianShift < -1.5 {
		t.Errorf("output shift = %v, want ~-1 (10x smaller)", d.OutputMedianShift)
	}
	if !d.Significant(0.2) {
		t.Error("a 1000x shift must register as significant")
	}
	if d.JobRateRatio < 1.8 || d.JobRateRatio > 2.2 {
		t.Errorf("job rate ratio = %v, want ~2", d.JobRateRatio)
	}
}

// TestCompareErasHeaderStart: a header with a start but no length
// measures its job rate from that start to the last finish, as the
// hourly series of the same trace does, not from the first submit.
func TestCompareErasHeaderStart(t *testing.T) {
	from := eraTrace("era-2009", 1, 1, 500)
	to := eraTrace("era-2010", 1, 1, 1000)
	to.Meta.Start = to.Meta.Start.Add(-time.Hour)
	to.Meta.Length = 0
	d, err := CompareEras(from, to)
	if err != nil {
		t.Fatal(err)
	}
	_, end := to.Span()
	want := float64(to.Len()) / end.Sub(to.Meta.Start).Hours() / (float64(from.Len()) / from.Meta.Length.Hours())
	if d.JobRateRatio != want {
		t.Errorf("job rate ratio = %v, want %v (last finish − header start)", d.JobRateRatio, want)
	}
}

func TestCompareErasIdentical(t *testing.T) {
	a := eraTrace("same", 1, 1, 400)
	d, err := CompareEras(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if d.InputKS != 0 || d.OutputKS != 0 || d.InputMedianShift != 0 {
		t.Errorf("self-comparison drift = %+v, want zeros", d)
	}
	if d.Significant(0.05) {
		t.Error("identical traces must not be significant drift")
	}
	if d.JobRateRatio != 1 {
		t.Errorf("rate ratio = %v, want 1", d.JobRateRatio)
	}
}

func TestCompareErasErrors(t *testing.T) {
	a := eraTrace("a", 1, 1, 10)
	empty := trace.New(trace.Meta{Name: "e", Start: a.Meta.Start, Length: time.Hour})
	if _, err := CompareEras(a, empty); err == nil {
		t.Error("empty era should error")
	}
	if _, err := CompareEras(empty, a); err == nil {
		t.Error("empty era should error")
	}
}

func TestCompareErasOnGeneratedFacebook(t *testing.T) {
	// The calibrated FB profiles must reproduce the published direction of
	// drift: inputs grew by orders of magnitude, outputs shrank.
	fb09 := genTrace(t, "FB-2009", 72*time.Hour, 41)
	fb10 := genTrace(t, "FB-2010", 72*time.Hour, 41)
	d, err := CompareEras(fb09, fb10)
	if err != nil {
		t.Fatal(err)
	}
	if d.InputMedianShift < 1 {
		t.Errorf("FB input shift = %v orders, want > 1 (paper: several)", d.InputMedianShift)
	}
	if d.OutputMedianShift > -0.5 {
		t.Errorf("FB output shift = %v, want < -0.5 (outputs shrank)", d.OutputMedianShift)
	}
	if !d.Significant(0.2) {
		t.Error("the 2009->2010 evolution must be significant")
	}
	if d.JobRateRatio < 2 {
		t.Errorf("rate ratio = %v, want > 2 (258 -> 1083 jobs/hr)", d.JobRateRatio)
	}
}
