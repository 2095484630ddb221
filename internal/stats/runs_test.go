package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// runsSample draws one sample of a shape the Figure 1 columns take.
func runsSample(rng *rand.Rand, shape string, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch shape {
		case "zero-heavy": // the shuffle column of map-only jobs
			if rng.Intn(20) == 0 {
				s[i] = math.Floor(math.Exp(rng.Float64() * 30))
			}
		case "duplicates":
			s[i] = float64(rng.Intn(6)) * 1024
		case "one-value":
			s[i] = 4096
		default: // spread over many decades, with fractions
			s[i] = math.Exp(rng.Float64()*40) * rng.Float64()
		}
	}
	return s
}

// splitRuns cuts sample into random ascending runs, some of them empty.
func splitRuns(rng *rand.Rand, sample []float64) [][]float64 {
	var runs [][]float64
	for rest := slices.Clone(sample); ; {
		k := rng.Intn(len(rest) + 1)
		if rng.Intn(4) == 0 {
			k = 0
		}
		run := rest[:k:k]
		slices.Sort(run)
		runs = append(runs, run)
		rest = rest[k:]
		if len(rest) == 0 {
			return runs
		}
	}
}

func sortedCopy(s []float64) []float64 {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRunsCDFMatchesSortedCDF is the runs contract: over random samples
// split into random runs, every Distribution answer of RunsCDF equals
// NewSortedCDF's over the merged sample, bit for bit.
func TestRunsCDFMatchesSortedCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	qs := []float64{-0.5, 0, 1e-9, 0.01, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 0.99, 0.999999, 1, 1.5}
	for trial := 0; trial < 400; trial++ {
		shape := []string{"zero-heavy", "duplicates", "one-value", "spread"}[trial%4]
		n := 1 + rng.Intn(300)
		if trial%10 == 0 {
			n = 1
		}
		sample := runsSample(rng, shape, n)
		runs := splitRuns(rng, sample)
		want := NewSortedCDF(sortedCopy(sample))
		got := NewRunsCDF(runs)
		fail := func(what string, g, w any) {
			t.Fatalf("trial %d (%s, n=%d, %d runs): %s = %v, sorted CDF %v", trial, shape, n, len(runs), what, g, w)
		}
		if got.Len() != want.Len() {
			fail("Len", got.Len(), want.Len())
		}
		for _, f := range []struct {
			name     string
			got, ref float64
		}{
			{"Min", got.Min(), want.Min()},
			{"Max", got.Max(), want.Max()},
			{"Median", got.Median(), want.Median()},
		} {
			if !sameBits(f.got, f.ref) {
				fail(f.name, f.got, f.ref)
			}
		}
		for _, q := range qs {
			if g, w := got.Quantile(q), want.Quantile(q); !sameBits(g, w) {
				fail(fmt.Sprintf("Quantile(%v)", q), g, w)
			}
		}
		for _, v := range sample {
			for _, x := range []float64{v, math.Nextafter(v, math.Inf(-1)), v * 1.5, v + 0.5} {
				if g, w := got.P(x), want.P(x); !sameBits(g, w) {
					fail(fmt.Sprintf("P(%v)", x), g, w)
				}
			}
		}
		gp, wp := got.LogPoints(10), want.LogPoints(10)
		if len(gp) != len(wp) {
			fail("len(LogPoints)", len(gp), len(wp))
		}
		for i := range gp {
			if !sameBits(gp[i].X, wp[i].X) || !sameBits(gp[i].Y, wp[i].Y) {
				fail("LogPoints", gp[i], wp[i])
			}
		}
	}
	if empty := NewRunsCDF([][]float64{nil, {}}); empty.Len() != 0 || empty.P(1) != 0 ||
		empty.Quantile(0.5) != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.LogPoints(10) != nil {
		t.Fatal("empty RunsCDF does not answer like an empty CDF")
	}
}

// TestLogPointsFirstPositiveSearch holds CDF.LogPoints, which finds the
// first positive sample by binary search, to the linear scan it
// replaced: zero-heavy, all-zero and zero-free columns give the same
// points.
func TestLogPointsFirstPositiveSearch(t *testing.T) {
	linear := func(sorted []float64, perDecade int) []Point {
		minPos := math.Inf(1)
		for _, v := range sorted {
			if v > 0 {
				minPos = v
				break
			}
		}
		if math.IsInf(minPos, 1) {
			return nil
		}
		c := NewSortedCDF(sorted)
		maxVal := sorted[len(sorted)-1]
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
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct {
		name   string
		sample []float64
	}{
		{"zero-heavy", runsSample(rng, "zero-heavy", 5000)},
		{"all-zero", make([]float64, 300)},
		{"zero-free", runsSample(rng, "spread", 2000)},
		{"negative-and-zero", []float64{-5, -1, 0, 0, 0, 3, 3e7}},
		{"single-positive", []float64{0, 0, 12}},
	} {
		sorted := sortedCopy(tc.sample)
		for _, perDecade := range []int{1, 10} {
			got, want := NewSortedCDF(sorted).LogPoints(perDecade), linear(sorted, perDecade)
			if len(got) != len(want) {
				t.Fatalf("%s/%d: %d points, linear scan %d", tc.name, perDecade, len(got), len(want))
			}
			for i := range got {
				if !sameBits(got[i].X, want[i].X) || !sameBits(got[i].Y, want[i].Y) {
					t.Fatalf("%s/%d: point %d = %v, linear scan %v", tc.name, perDecade, i, got[i], want[i])
				}
			}
		}
	}
}
