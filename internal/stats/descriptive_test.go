package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestSumMeanEmpty(t *testing.T) {
	if s := Sum(nil); s != 0 {
		t.Errorf("Sum(nil) = %v, want 0", s)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Variance(nil); err == nil {
		t.Error("Variance(nil) should error")
	}
	if _, err := StdDev(nil); err == nil {
		t.Error("StdDev(nil) should error")
	}
	if _, err := Burstiness(nil); err != ErrEmpty {
		t.Errorf("Burstiness(nil) err = %v, want ErrEmpty", err)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Fatalf("Mean = %v, %v; want 5, nil", m, err)
	}
	v, err := Variance(xs)
	if err != nil || v != 4 {
		t.Fatalf("Variance = %v, %v; want 4, nil", v, err)
	}
	sd, err := StdDev(xs)
	if err != nil || sd != 2 {
		t.Fatalf("StdDev = %v, %v; want 2, nil", sd, err)
	}
}

func TestMedianOddEven(t *testing.T) {
	if m := NewCDF([]float64{3, 1, 2}).Median(); m != 2 {
		t.Errorf("Median odd = %v, want 2", m)
	}
	if m := NewCDF([]float64{4, 1, 3, 2}).Median(); m != 2.5 {
		t.Errorf("Median even = %v, want 2.5", m)
	}
	// Burstiness normalizes by the same median.
	b, err := Burstiness([]float64{4, 1, 3, 2})
	if err != nil || b.Median != 2.5 {
		t.Errorf("Burstiness median = %v, %v; want 2.5", b.Median, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		q, want float64
	}{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {0.1, 14},
		// Out-of-range q clamps to the sample's extremes.
		{-0.1, 10}, {1.1, 50},
	}
	for _, sorted := range []bool{false, true} {
		c := NewCDF([]float64{30, 50, 10, 40, 20})
		if sorted {
			c = NewSortedCDF(xs)
		}
		for _, tc := range cases {
			if got := c.Quantile(tc.q); !almostEqual(got, tc.want, 1e-12) {
				t.Errorf("sorted=%v: Quantile(%v) = %v, want %v", sorted, tc.q, got, tc.want)
			}
		}
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	want := []float64{5, 1, 4, 2, 3}
	NewCDF(xs).Median()
	if _, err := Burstiness(xs); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("NewCDF/Burstiness mutated input: %v", xs)
		}
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = (%v, %v, %v), want (-1, 7, nil)", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax(nil) should error")
	}
}

func TestGeometricMean(t *testing.T) {
	g, err := GeometricMean([]float64{1, 10, 100})
	if err != nil || !almostEqual(g, 10, 1e-9) {
		t.Errorf("GeometricMean = %v, %v; want 10", g, err)
	}
	if _, err := GeometricMean([]float64{1, 0, 2}); err == nil {
		t.Error("GeometricMean with zero should error")
	}
	if _, err := GeometricMean(nil); err == nil {
		t.Error("GeometricMean(nil) should error")
	}
}

func TestOrdersOfMagnitudeSpan(t *testing.T) {
	if s := OrdersOfMagnitudeSpan([]float64{1, 1e6}); !almostEqual(s, 6, 1e-12) {
		t.Errorf("span = %v, want 6", s)
	}
	// zeros are skipped
	if s := OrdersOfMagnitudeSpan([]float64{0, 10, 1000}); !almostEqual(s, 2, 1e-12) {
		t.Errorf("span = %v, want 2", s)
	}
	if s := OrdersOfMagnitudeSpan([]float64{5}); s != 0 {
		t.Errorf("span single = %v, want 0", s)
	}
	if s := OrdersOfMagnitudeSpan(nil); s != 0 {
		t.Errorf("span nil = %v, want 0", s)
	}
}

// Property: for any sample the median lies between min and max, and
// quantiles are monotone in q.
func TestQuantileMonotoneQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(math.Min(q, 1))
			if v < prev {
				return false
			}
			prev = v
		}
		lo, hi, _ := MinMax(xs)
		med := c.Median()
		return med >= lo && med <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
