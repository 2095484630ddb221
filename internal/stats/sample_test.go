package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// sampleShape draws one sample for the SampleCDF contract: the shapes a
// Figure 1 column takes, the float layouts the buckets must get right,
// and the samples that must fall back to a sort.
func sampleShape(rng *rand.Rand, shape string, n int) []float64 {
	// pick draws from vals, so every n takes the shape's edge values.
	pick := func(vals []float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = vals[rng.Intn(len(vals))]
		}
		return s
	}
	switch shape {
	case "zeros":
		return make([]float64, n)
	case "equal":
		return pick([]float64{4096})
	case "grid": // on the log grid's points and their float neighbours
		var vals []float64
		for _, x := range logGrid(-3, 10)[:180] {
			vals = append(vals, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
		}
		return pick(vals)
	case "edges": // on both sides of every bucket edge from 2^-8 to 2^60
		var vals []float64
		for k := bucketKey(math.Float64bits(0x1p-8)); k <= bucketKey(math.Float64bits(0x1p60)); k++ {
			b := uint64(k) << 48
			vals = append(vals, math.Float64frombits(b-1), math.Float64frombits(b), math.Float64frombits(b+1))
		}
		return pick(vals)
	case "runs": // long runs of a few values inside one bucket, a third zero
		vals := []float64{0, 1 << 20, 1<<20 + 1, 1<<20 + 7, 1<<20 + 1<<15, math.Nextafter(1<<20+1<<16, 0)}
		s := pick(vals)
		for i := range s[:n/8] {
			s[i] = math.Floor(math.Exp(rng.Float64() * 40))
		}
		return s
	case "fig1": // lognormal byte sizes, a third of them zero
		s := make([]float64, n)
		for i := range s {
			if rng.Intn(3) != 0 {
				s[i] = math.Floor(math.Exp(rng.NormFloat64()*3 + 18))
			}
		}
		return s
	case "extreme": // subnormals, 2^53 ± 1, past 2^63, the largest float
		return pick([]float64{
			math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
			math.Nextafter(0x1p-1022, 0), 0x1p53 - 1, 0x1p53, 0x1p53 + 2, 0x1p63, 0x1p64 + 0x1p20,
			1e300, math.MaxFloat64, 0, 1,
		})
	case "negative":
		s := sampleShape(rng, "fig1", n)
		s[rng.Intn(n)] = -1
		return s
	case "negzero":
		s := sampleShape(rng, "fig1", n)
		s[rng.Intn(n)] = math.Copysign(0, -1)
		return s
	case "nan":
		s := sampleShape(rng, "fig1", n)
		s[rng.Intn(n)] = math.NaN()
		return s
	case "inf":
		s := sampleShape(rng, "fig1", n)
		s[rng.Intn(n)] = math.Inf(1)
		if n > 1 {
			s[rng.Intn(n)] = math.Inf(-1)
		}
		return s
	}
	panic("unknown shape " + shape)
}

// sampleAnswers is everything the contract compares: each query's
// answer as the CDF gives it.
type sampleAnswers struct {
	scalars map[string]float64
	points  map[int][]Point
}

var (
	// allDensities are LogPoints' densities in the test: none, 1–10,
	// which read the shared grids, and two past them.
	allDensities = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	sampleQs     = []float64{-0.5, 0, 1e-9, 0.01, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 0.99, 0.999999, 1, 1.5}
	sampleXs     = []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e-320, 0.5, 1, 1e6, 0x1p63}
)

// answers records d's answer to every query the contract holds the two
// CDFs to: Len, Min, Max, Median, Quantile at the report's five and
// other q, P at the x's given, and LogPoints at the densities given.
func answers(d Distribution, xs []float64, densities []int) sampleAnswers {
	a := sampleAnswers{scalars: map[string]float64{}, points: map[int][]Point{}}
	a.scalars["Len"] = float64(d.Len())
	a.scalars["Min"] = d.Min()
	a.scalars["Max"] = d.Max()
	a.scalars["Median"] = d.Median()
	for _, q := range sampleQs {
		a.scalars[fmt.Sprintf("Quantile(%v)", q)] = d.Quantile(q)
	}
	for _, x := range xs {
		a.scalars[fmt.Sprintf("P(%v/%#x)", x, math.Float64bits(x))] = d.P(x)
	}
	for _, perDecade := range densities {
		a.points[perDecade] = d.LogPoints(perDecade)
	}
	return a
}

// queryXs is where P is asked: fixed edge values, and up to 24 sample
// values with their neighbours and off-grid points beside them. (Each
// P reads the whole sample, and the grid points already ask P at
// about a hundred x's per density.)
func queryXs(rng *rand.Rand, sample []float64) []float64 {
	xs := slices.Clone(sampleXs)
	for i := 0; i < min(24, len(sample)); i++ {
		v := sample[rng.Intn(len(sample))]
		xs = append(xs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)), v*1.5, v+0.5)
	}
	return xs
}

// diffAnswers returns the first query whose two answers differ in bits.
func diffAnswers(got, want sampleAnswers) error {
	for k, w := range want.scalars {
		if g := got.scalars[k]; !sameBits(g, w) {
			return fmt.Errorf("%s = %v, sorted CDF %v", k, g, w)
		}
	}
	for perDecade, w := range want.points {
		g := got.points[perDecade]
		if (g == nil) != (w == nil) || len(g) != len(w) {
			return fmt.Errorf("LogPoints(%d): %d points (nil %t), sorted CDF %d (nil %t)", perDecade, len(g), g == nil, len(w), w == nil)
		}
		for i := range g {
			if !sameBits(g[i].X, w[i].X) || !sameBits(g[i].Y, w[i].Y) {
				return fmt.Errorf("LogPoints(%d) point %d = %v, sorted CDF %v", perDecade, i, g[i], w[i])
			}
		}
	}
	return nil
}

// sortedOracle is NewSortedCDF over a SortFloats-ed clone.
func sortedOracle(sample []float64) *CDF {
	s := slices.Clone(sample)
	SortFloats(s)
	return NewSortedCDF(s)
}

// TestSampleCDFMatchesSortedCDF is the SampleCDF contract: on every
// shape, at lengths around sampleCutoff and up to 50k, and with the
// cutoff lowered to 1 so every length buckets, every Distribution
// answer equals NewSortedCDF's over the sorted sample, bit for bit.
// Samples holding a negative value, −0, NaN or ±Inf, or no positive
// value, must take the sort; all others at or past the cutoff must not.
// The sample itself is never written.
func TestSampleCDFMatchesSortedCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	shapes := []string{"zeros", "equal", "grid", "edges", "runs", "fig1", "extreme", "negative", "negzero", "nan", "inf"}
	sizes := []int{1, 2, 3, 17, 200, sampleCutoff - 1, sampleCutoff, sampleCutoff + 1, 6000, 50000}
	for _, shape := range shapes {
		for _, n := range sizes {
			sample := sampleShape(rng, shape, n)
			before := slices.Clone(sample)
			xs := queryXs(rng, sample)
			want := answers(sortedOracle(sample), xs, allDensities)
			fallback := shape == "negative" || shape == "negzero" || shape == "nan" || shape == "inf" ||
				!slices.ContainsFunc(sample, func(v float64) bool { return v > 0 })
			for _, cutoff := range []int{sampleCutoff, 1} {
				c := newSampleCDF(sample, cutoff)
				if sorted := c.sorted != nil; sorted != (fallback || n < cutoff) {
					t.Fatalf("%s n=%d cutoff=%d: sorted %t", shape, n, cutoff, sorted)
				}
				if err := diffAnswers(answers(c, xs, allDensities), want); err != nil {
					t.Fatalf("%s n=%d cutoff=%d: %v", shape, n, cutoff, err)
				}
				if i := firstBitDiff(sample, before); i >= 0 {
					t.Fatalf("%s n=%d cutoff=%d: sample written at %d", shape, n, cutoff, i)
				}
			}
		}
	}
	if empty := NewSampleCDF(nil); empty.Len() != 0 || empty.P(1) != 0 ||
		empty.Quantile(0.5) != 0 || empty.Min() != 0 || empty.Max() != 0 || empty.LogPoints(10) != nil {
		t.Fatal("empty SampleCDF does not answer like an empty CDF")
	}

	// Readers sharing one bucketed SampleCDF, each asking the report's
	// queries and off-path ones, get the sorted CDF's answers.
	sample := sampleShape(rng, "fig1", 4*sampleCutoff)
	xs := queryXs(rng, sample)
	want := answers(sortedOracle(sample), xs, allDensities)
	c := NewSampleCDF(sample)
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = diffAnswers(answers(c, xs, allDensities), want)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent reader %d: %v", i, err)
		}
	}
}

// readReport asks d what a report reads of a Figure 1 distribution.
func readReport(d Distribution) {
	_, _, _ = d.Len(), d.Min(), d.Max()
	for _, q := range reportQuantiles {
		d.Quantile(q)
	}
	d.LogPoints(reportPerDecade)
}

// BenchmarkSampleCDF sets sampleCutoff: a report's reads of a Figure 1
// byte-size column, through a sorted copy against through the buckets,
// at lengths around the crossover.
func BenchmarkSampleCDF(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024, 2048} {
		in := sortSample(rand.New(rand.NewSource(int64(n))), "map-only", n)
		b.Run(fmt.Sprintf("sort/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				readReport(sortedOracle(in))
			}
		})
		b.Run(fmt.Sprintf("bucket/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				readReport(newSampleCDF(in, 1))
			}
		})
	}
}

// FuzzSampleCDF: any float64 bit patterns, bucketed from a length of 1
// and at the real cutoff, answer every query as the sorted CDF does.
func FuzzSampleCDF(f *testing.F) {
	seed := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(0, 0, 1, 1e9, 3.5e12, 0, 1024))
	f.Add(seed(math.SmallestNonzeroFloat64, 0x1p53+2, 0x1p64, math.MaxFloat64))
	f.Add(seed(1, math.Copysign(0, -1), 2))
	f.Add(seed(math.NaN(), 7, math.Inf(1), -3))
	f.Add(seed(0x1p20, 0x1p20+1, 0x1p20+1, 0x1p20+1, math.Nextafter(0x1p20*1.0625, 0), 0x1p20*1.0625))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sample []float64
		for ; len(data) >= 8; data = data[8:] {
			sample = append(sample, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		var xs []float64
		for _, v := range sample {
			xs = append(xs, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		xs = append(xs, sampleXs...)
		// A sample from subnormals to 1e308 has thousands of grid
		// points per density, so the fuzz asks three densities.
		densities := []int{1, 3, 10}
		want := answers(sortedOracle(sample), xs, densities)
		for _, cutoff := range []int{1, sampleCutoff} {
			if err := diffAnswers(answers(newSampleCDF(sample, cutoff), xs, densities), want); err != nil {
				t.Fatalf("cutoff %d, sample %v: %v", cutoff, sample, err)
			}
		}
	})
}
