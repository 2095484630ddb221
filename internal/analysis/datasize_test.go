package analysis

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

// BenchmarkColumnFinalize: what one Figure 1 column costs a report, at
// the lengths an hour window of the ooc-window benchmark gives it —
// sorting the column into a run and wrapping it (freeze) against
// answering the unsorted column by bucket-and-select (unfrozen). Each
// op reads what a report reads: the count, the extremes, five
// quantiles and LogPoints(10). The values are lognormal byte sizes, a
// quarter of them zero.
func BenchmarkColumnFinalize(b *testing.B) {
	for _, n := range []int{600, 1500, 6000, 20000} {
		rng := rand.New(rand.NewSource(int64(n)))
		in := make([]float64, n)
		for i := range in {
			if rng.Intn(4) != 0 {
				in[i] = math.Floor(math.Exp(rng.NormFloat64()*3 + 18))
			}
		}
		for _, arm := range []struct {
			name   string
			freeze bool
		}{{"freeze", true}, {"unfrozen", false}} {
			b.Run(fmt.Sprintf("%s/%d", arm.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c := column{tail: slices.Clone(in)}
					if arm.freeze {
						c.freeze()
					}
					readReport(c.distribution())
				}
			})
		}
	}
}

// readReport asks d what a report reads of a Figure 1 distribution.
func readReport(d stats.Distribution) {
	_, _, _ = d.Len(), d.Min(), d.Max()
	for _, q := range []float64{0.25, 0.5, 0.75, 0.90, 0.99} {
		d.Quantile(q)
	}
	d.LogPoints(10)
}
