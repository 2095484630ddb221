package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortSample draws one sample of a shape SortFloats must order exactly
// as slices.Sort does.
func sortSample(rng *rand.Rand, shape string, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch shape {
		case "map-only": // lognormal byte sizes, a quarter of them zero
			if rng.Intn(4) != 0 {
				s[i] = math.Floor(math.Exp(rng.NormFloat64()*3 + 18))
			}
		case "duplicates":
			s[i] = float64(rng.Intn(6)) * 1024
		case "all-equal":
			s[i] = 4096
		case "negative":
			s[i] = (rng.Float64() - 0.5) * math.Exp(rng.Float64()*60)
		case "nan":
			s[i] = math.Exp(rng.Float64() * 40)
			if i%97 == 0 {
				s[i] = math.NaN()
			}
		case "signed-zero":
			s[i] = float64(rng.Intn(3) - 1)
			if i%5 == 0 {
				s[i] = math.Copysign(0, -1)
			}
		}
	}
	return s
}

// firstBitDiff returns the first index where got and want differ in
// their bits, or -1.
func firstBitDiff(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// TestSortFloatsMatchesSlicesSort holds SortFloats, and the radix kernel
// below its cutoff, to slices.Sort bit for bit on every shape a Figure 1
// column takes and on the inputs that must fall back.
func TestSortFloatsMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	shapes := []string{"map-only", "duplicates", "all-equal", "negative", "nan", "signed-zero"}
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 70000} {
			t.Run(fmt.Sprintf("%s/%d", shape, n), func(t *testing.T) {
				in := sortSample(rng, shape, n)
				want := slices.Clone(in)
				slices.Sort(want)

				got := slices.Clone(in)
				SortFloats(got)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("SortFloats differs from slices.Sort at %d", i)
				}

				kernel := slices.Clone(in)
				fallback := shape == "nan" || shape == "signed-zero"
				if ok := radixSort(kernel); ok == (fallback && n > 1) {
					t.Fatalf("radixSort reported %v on a %s sample", ok, shape)
				}
				if fallback {
					if i := firstBitDiff(kernel, in); i >= 0 {
						t.Fatalf("refused radixSort changed the input at %d", i)
					}
					return
				}
				if i := firstBitDiff(kernel, want); i >= 0 {
					t.Fatalf("radixSort differs from slices.Sort at %d", i)
				}
			})
		}
	}
}

// BenchmarkSortFloats sets radixCutoff: slices.Sort against the radix
// kernel on Figure 1 byte sizes, at lengths around the crossover.
func BenchmarkSortFloats(b *testing.B) {
	for _, n := range []int{512, 1024, 2048, 4096, 16384, 65536} {
		in := sortSample(rand.New(rand.NewSource(int64(n))), "map-only", n)
		s := make([]float64, n)
		for _, arm := range []struct {
			name string
			sort func([]float64)
		}{
			{"slices", slices.Sort[[]float64]},
			{"radix", func(s []float64) { radixSort(s) }},
		} {
			b.Run(fmt.Sprintf("%s/%d", arm.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(s, in)
					arm.sort(s)
				}
			})
		}
	}
}
