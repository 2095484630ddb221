// Package analysis implements the paper's measurement methodology: each
// exported function reproduces one figure or table of the study from a
// workload trace — data access patterns (§4, Figures 1–6), temporal
// patterns (§5, Figures 7–9), and computation patterns (§6, Figure 10 and
// Table 2).
//
// Figures 1, 7–9, and 10 are also available as incremental builders
// (DataSizeBuilder, TimeSeriesBuilder, NamesBuilder) so core.AnalyzeSource
// can compute them in one pass over a streamed trace; the whole-trace
// functions are thin wrappers over the builders, which is what guarantees
// streaming and materialized results agree.
package analysis

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/stats"
	"repro/internal/trace"
)

// DataSizes is the Figure 1 analysis for one workload: empirical
// distributions of per-job input, shuffle, and output bytes. The
// distributions are exact CDFs in materialized mode and fixed-memory
// quantile sketches in bounded-memory streaming mode.
type DataSizes struct {
	Workload string
	Input    stats.Distribution
	Shuffle  stats.Distribution
	Output   stats.Distribution
}

// DataSizeBuilder accumulates Figure 1 incrementally. In exact mode it
// collects the three per-job values (24 B per job, far below retaining
// Job records); in sketch mode it feeds fixed-memory quantile sketches,
// making memory independent of job count at ≤ half-bin relative quantile
// error (stats.DefaultBinsPerDecade).
//
// Exact mode keeps a sorted-prefix invariant: the first sorted values of
// each column are ascending, each column on its own (Figure 1 plots
// three independent distributions, so no row pairing is kept). Observe
// appends past the prefix; Freeze sorts the tail into it. A frozen
// builder (the whole of every column sorted) finalizes without copying
// or sorting, and merges with another frozen builder in linear time.
type DataSizeBuilder struct {
	workload     string
	sketch       bool
	in, sh, out  []float64
	sorted       int
	hin, hsh, ho *stats.QuantileSketch
	n            int
}

// NewDataSizeBuilder starts a Figure 1 accumulation. sketch selects the
// fixed-memory mode.
func NewDataSizeBuilder(workload string, sketch bool) *DataSizeBuilder {
	b := &DataSizeBuilder{workload: workload, sketch: sketch}
	if sketch {
		b.hin = stats.NewQuantileSketch(0)
		b.hsh = stats.NewQuantileSketch(0)
		b.ho = stats.NewQuantileSketch(0)
	}
	return b
}

// Observe folds one job in.
func (b *DataSizeBuilder) Observe(j *trace.Job) {
	b.n++
	if b.sketch {
		b.hin.Observe(float64(j.InputBytes))
		b.hsh.Observe(float64(j.ShuffleBytes))
		b.ho.Observe(float64(j.OutputBytes))
		return
	}
	b.in = append(b.in, float64(j.InputBytes))
	b.sh = append(b.sh, float64(j.ShuffleBytes))
	b.out = append(b.out, float64(j.OutputBytes))
}

// columns returns the exact-mode sample columns.
func (b *DataSizeBuilder) columns() [3][]float64 { return [3][]float64{b.in, b.sh, b.out} }

// frozen reports whether every exact-mode column is fully sorted (always
// true in sketch mode, which keeps no columns).
func (b *DataSizeBuilder) frozen() bool { return b.sorted == len(b.in) }

// Freeze sorts the exact-mode columns so Result can share them. Only the
// unsorted tail is sorted, then merged into the sorted prefix in place:
// refreezing after b new observations costs O(N + b log b), not a full
// sort. Freeze is a no-op on a frozen builder and in sketch mode. It
// mutates the columns, so a builder whose Result is still in use must
// not be observed into and refrozen.
func (b *DataSizeBuilder) Freeze() {
	if b.frozen() {
		return
	}
	for _, col := range b.columns() {
		mergeTail(col, b.sorted)
	}
	b.sorted = len(b.in)
}

// mergeTail sorts col[k:] and merges it into the ascending prefix
// col[:k] in place, with a copy of the tail as the only scratch space.
func mergeTail(col []float64, k int) {
	slices.Sort(col[k:])
	if k > 0 && k < len(col) && col[k-1] > col[k] {
		mergeInto(col[:k], slices.Clone(col[k:]))
	}
}

// mergeInto merges ascending b into ascending a and returns the result:
// in place, walking from the back, when a has the capacity, otherwise
// in a grown copy of a. b is only read, and must not overlap a's spare
// capacity. The values of b no larger than a's smallest move to the
// front in one copy, which keeps a long run of the minimum (the zero
// shuffle of map-only jobs) out of the loop. The loop picks each output
// without a data-dependent branch: the inputs interleave at random, so
// a branch would mispredict half the time.
func mergeInto(a, b []float64) []float64 {
	i := len(a) - 1
	lo := 0
	if i >= 0 {
		lo = sort.Search(len(b), func(k int) bool { return b[k] > a[0] })
	}
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	j, w := len(b)-1, len(a)-1
	for ; i >= 0 && j >= lo; w-- {
		x, y := a[i], b[j]
		fromA := 0
		if x > y {
			fromA = 1
		}
		a[w] = max(x, y)
		i -= fromA
		j -= 1 - fromA
	}
	// What is left: a's smallest values, to shift up past b[:lo], or
	// b's, which end at the front.
	copy(a[lo:], a[:i+1])
	copy(a, b[:j+1])
	return a
}

// Merge folds other builders into this one. All must cover the same
// workload and have been built in the same mode (exact or sketch). In
// exact mode, when the receiver and every argument are frozen, each
// column is reserved once for all of them and the sorted columns are
// merged in linearly, in place, the three columns concurrently: the
// receiver stays frozen. Otherwise the arguments' samples are appended
// after the receiver's sorted prefix, for Freeze or Result to sort. In
// sketch mode the fixed-memory sketches merge exactly
// (stats.QuantileSketch). Either way, shard-built-then-merged Result()
// matches sequential observation of the same jobs. The arguments are
// not modified, and the receiver shares no memory with them afterwards.
func (b *DataSizeBuilder) Merge(os ...*DataSizeBuilder) error {
	sorted := b.frozen()
	added := 0
	for _, o := range os {
		if b.workload != o.workload {
			return fmt.Errorf("analysis: cannot merge data-size builders of different workloads (%q vs %q)", b.workload, o.workload)
		}
		if b.sketch != o.sketch {
			return fmt.Errorf("analysis: cannot merge exact and sketch data-size builders")
		}
		sorted = sorted && o.frozen()
		added += len(o.in)
	}
	for _, o := range os {
		if b.sketch {
			if err := b.hin.Merge(o.hin); err != nil {
				return err
			}
			if err := b.hsh.Merge(o.hsh); err != nil {
				return err
			}
			if err := b.ho.Merge(o.ho); err != nil {
				return err
			}
		} else if !sorted {
			b.in = append(b.in, o.in...)
			b.sh = append(b.sh, o.sh...)
			b.out = append(b.out, o.out...)
		}
		b.n += o.n
	}
	if !sorted || added == 0 {
		return nil
	}
	var wg sync.WaitGroup
	for c, col := range [3]*[]float64{&b.in, &b.sh, &b.out} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			merged := slices.Grow(*col, added)
			for _, o := range os {
				merged = mergeInto(merged, o.columns()[c])
			}
			*col = merged
		}()
	}
	wg.Wait()
	b.sorted = len(b.in)
	return nil
}

// Result returns the Figure 1 distributions; it errors on an empty
// stream, like DataSizeCDFs on an empty trace. The distributions of a
// frozen or sketch-mode builder share its state (read-only, so a
// frozen builder serves concurrent Results); an unfrozen exact builder
// copies and sorts its columns.
func (b *DataSizeBuilder) Result() (*DataSizes, error) {
	if b.n == 0 {
		return nil, errors.New("analysis: empty trace")
	}
	if b.sketch {
		return &DataSizes{Workload: b.workload, Input: b.hin, Shuffle: b.hsh, Output: b.ho}, nil
	}
	cdf := stats.NewCDF
	if b.frozen() {
		cdf = stats.NewSortedCDF
	}
	return &DataSizes{
		Workload: b.workload,
		Input:    cdf(b.in),
		Shuffle:  cdf(b.sh),
		Output:   cdf(b.out),
	}, nil
}

// DataSizeCDFs computes Figure 1's exact distributions for a trace.
func DataSizeCDFs(t *trace.Trace) (*DataSizes, error) {
	b := NewDataSizeBuilder(t.Meta.Name, false)
	b.in = make([]float64, 0, t.Len())
	b.sh = make([]float64, 0, t.Len())
	b.out = make([]float64, 0, t.Len())
	for _, j := range t.Jobs {
		b.Observe(j)
	}
	return b.Result()
}

// MedianSpanAcrossWorkloads reports, for a set of per-workload Figure 1
// results, how many orders of magnitude the medians span in each dimension.
// The paper: "the median per-job input, shuffle, and output sizes differ
// by 6, 8, and 4 orders of magnitude, respectively". Zero medians
// (workloads whose median job moves no shuffle data) are excluded, as a
// log-scale plot excludes them.
func MedianSpanAcrossWorkloads(all []*DataSizes) (input, shuffle, output float64) {
	var ins, shs, outs []float64
	for _, d := range all {
		ins = append(ins, d.Input.Median())
		shs = append(shs, d.Shuffle.Median())
		outs = append(outs, d.Output.Median())
	}
	return stats.OrdersOfMagnitudeSpan(ins),
		stats.OrdersOfMagnitudeSpan(shs),
		stats.OrdersOfMagnitudeSpan(outs)
}
