package stats

import (
	"math"
	"math/rand"
	"testing"
)

// powLogPoints is logPoints before the shared grid, kept as the
// reference: math.Pow at every step of the same accumulation.
func powLogPoints(minPos, maxVal float64, perDecade int, p func(float64) float64) []Point {
	if math.IsInf(minPos, 1) {
		return nil
	}
	loExp := math.Floor(math.Log10(minPos))
	hiExp := math.Ceil(math.Log10(maxVal))
	var pts []Point
	for e := loExp; e <= hiExp+1e-9; e += 1.0 / float64(perDecade) {
		x := math.Pow(10, e)
		pts = append(pts, Point{X: x, Y: p(x)})
		if x >= maxVal {
			break
		}
	}
	return pts
}

// TestLogPointsGridMatchesPow holds every Distribution's LogPoints, which
// read x from the shared per-decade grid, to the math.Pow loop bit for
// bit: CDF, RunsCDF and QuantileSketch, starting decades -30…30 (0…18
// for the sketch, which covers [1, 1e19)), 1, 3 and 10 points per
// decade, and spans from inside one decade to past the cached grid.
// The report bytes, and the bench's oracle, render through this code,
// so a grid error would otherwise pass every end-to-end check.
func TestLogPointsGridMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(name string, lo, span, perDecade int, got, want []Point) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s lo=%d span=%d perDecade=%d: %d points, Pow loop %d", name, lo, span, perDecade, len(got), len(want))
		}
		for i := range got {
			if !sameBits(got[i].X, want[i].X) || !sameBits(got[i].Y, want[i].Y) {
				t.Fatalf("%s lo=%d span=%d perDecade=%d: point %d = %v, Pow loop %v", name, lo, span, perDecade, i, got[i], want[i])
			}
		}
	}
	spans := []int{0, 1, 5, gridDecades - 1, gridDecades, gridDecades + 1, 40, 60}
	for lo := -30; lo <= 30; lo++ {
		for _, span := range spans {
			// A sample from the decade of 10^lo (its lower edge, as
			// Pow computes it, included) to past 10^(lo+span), with
			// zeros and negatives that never become x positions.
			bottom := math.Pow(10, float64(lo))
			sample := []float64{0, -3, bottom * (1 + 9*rng.Float64()), math.Pow(10, float64(lo+span)) * (1 + rng.Float64())}
			if lo%2 == 0 {
				sample[2] = bottom
			}
			for range 20 {
				sample = append(sample, bottom*math.Pow(10, rng.Float64()*float64(span+1)))
			}
			sorted := sortedCopy(sample)
			runs := splitRuns(rng, sample)
			for _, perDecade := range []int{1, 3, 10} {
				c, r := NewSortedCDF(sorted), NewRunsCDF(runs)
				minPos := sorted[firstPositive(sorted)]
				check("CDF", lo, span, perDecade, c.LogPoints(perDecade), powLogPoints(minPos, c.Max(), perDecade, c.P))
				check("RunsCDF", lo, span, perDecade, r.LogPoints(perDecade), powLogPoints(minPos, r.Max(), perDecade, r.P))
				if lo < 0 || lo+span > 18 {
					continue
				}
				s := NewQuantileSketch(0)
				for _, v := range sample {
					s.Observe(v)
				}
				check("QuantileSketch", lo, span, perDecade, s.LogPoints(perDecade), powLogPoints(s.minPos, s.max, perDecade, s.P))
			}
		}
	}
	// The grid is shared state: each starting decade and density built
	// once, reaching gridDecades past its start.
	g, ok := grids.Load(gridKey{-30, 10})
	if !ok || len(g.([]float64)) != gridDecades*10+1 {
		t.Fatalf("no shared grid of gridDecades·10+1 steps for decade -30")
	}
	// A NaN or infinite largest value stops where the Pow loop stops.
	ident := func(x float64) float64 { return x }
	for _, maxVal := range []float64{math.NaN(), math.Inf(1), math.MaxFloat64} {
		check("logPoints", 0, 0, 10, logPoints(3, maxVal, 10, ident), powLogPoints(3, maxVal, 10, ident))
	}
	// Densities past maxGridPerDecade keep the Pow loop.
	c := NewCDF([]float64{0.37, 4e9})
	check("CDF", -1, 11, 17, c.LogPoints(17), powLogPoints(0.37, 4e9, 17, c.P))
}
