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

	"repro/internal/binenc"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
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
// Exact mode keeps each column on its own (Figure 1 plots three
// independent distributions, so no row pairing is kept) as a few
// immutable ascending runs plus a private unsorted tail. Observe
// appends to the tail; Freeze sorts it into a new run and merges runs
// of similar size into a fresh one, so a column holds O(log N) runs and
// a value moves O(log N) times however small the batches between
// Freezes. No builder writes a run once it is made: Clone shares runs,
// and a frozen builder (no tail) finalizes without copying or sorting.
type DataSizeBuilder struct {
	workload     string
	sketch       bool
	cols         [3]column // input, shuffle, output
	hin, hsh, ho *stats.QuantileSketch
	n            int
}

// column is one exact-mode sample column.
type column struct {
	// runs are ascending, oldest (and largest) first, and never written
	// once made. The list itself is the builder's own.
	runs [][]float64
	// tail holds the values observed since the last Freeze.
	tail []float64
}

// runRatio is the size ratio Freeze keeps between neighbouring runs:
// while the older of the two newest runs holds fewer than runRatio
// times the newer's values, the two merge, so runs shrink at least
// four-fold from oldest to newest. Runs cost each report a search per
// run, moves cost each append a copy. Appending ~50-job batches to a
// trace of 15k jobs until it holds 55k (the live-append benchmark's
// shape), a ratio of 4 keeps at most 5 runs (3.4 on average) for about
// 13 moves per appended value; 2 would keep up to 10 for 11 moves, and
// 8 up to 4 for 18.
const runRatio = 4

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
	b.cols[0].tail = append(b.cols[0].tail, float64(j.InputBytes))
	b.cols[1].tail = append(b.cols[1].tail, float64(j.ShuffleBytes))
	b.cols[2].tail = append(b.cols[2].tail, float64(j.OutputBytes))
}

// ObserveColumns folds a run of jobs held as columns, in row order,
// exactly as Observe-ing each: in exact mode each column's tail takes
// one reservation for the run.
func (b *DataSizeBuilder) ObserveColumns(c *trace.Columns) {
	b.n += c.Len()
	if b.sketch {
		for i := range c.InputBytes {
			b.hin.Observe(float64(c.InputBytes[i]))
			b.hsh.Observe(float64(c.ShuffleBytes[i]))
			b.ho.Observe(float64(c.OutputBytes[i]))
		}
		return
	}
	for k, vs := range [3][]units.Bytes{c.InputBytes, c.ShuffleBytes, c.OutputBytes} {
		tail := slices.Grow(b.cols[k].tail, len(vs))
		for _, v := range vs {
			tail = append(tail, float64(v))
		}
		b.cols[k].tail = tail
	}
}

// frozen reports whether no exact-mode value waits in a tail (always
// true in sketch mode, which keeps no columns). The columns observe
// together, so their tails are equally long.
func (b *DataSizeBuilder) frozen() bool { return len(b.cols[0].tail) == 0 }

// Freeze makes every exact-mode value part of a run, so Result can
// share the columns: each column's tail is sorted into a new run, and
// runs merge per runRatio. Refreezing after b new observations costs
// O(b log b) plus amortized O(b log N) moves, not O(N). Freeze is a
// no-op on a frozen builder and in sketch mode. It writes no run, so
// Results and clones taken earlier are unaffected.
func (b *DataSizeBuilder) Freeze() {
	if b.frozen() {
		return
	}
	for c := range b.cols {
		b.cols[c].freeze()
	}
}

// freeze sorts the tail into a new run, then merges the two newest
// runs into a fresh one while the older holds fewer than runRatio times
// the newer's values.
func (c *column) freeze() {
	run := c.tail[:len(c.tail):len(c.tail)]
	stats.SortFloats(run)
	c.tail = nil
	c.runs = append(c.runs, run)
	for k := len(c.runs); k >= 2 && len(c.runs[k-2]) < runRatio*len(c.runs[k-1]); k-- {
		c.runs[k-2] = mergeRuns(c.runs[k-2 : k])
		c.runs[k-1] = nil
		c.runs = c.runs[:k-1]
	}
}

// distribution finalizes the column: one run is wrapped as it stands,
// as NewSortedCDF always did; several are answered across the runs by
// stats.RunsCDF, with the same bits; an unfrozen column is copied and
// sorted.
func (c *column) distribution() stats.Distribution {
	switch {
	case len(c.tail) > 0:
		s := slices.Concat(append(slices.Clone(c.runs), c.tail)...)
		stats.SortFloats(s)
		return stats.NewSortedCDF(s)
	case len(c.runs) == 1:
		return stats.NewSortedCDF(c.runs[0])
	default:
		return stats.NewRunsCDF(c.runs)
	}
}

// mergeRuns returns the ascending merge of runs in one freshly
// allocated array. It merges pairwise, keeping the merged prefix of
// runs at the end of the result and writing each next merge forward
// into the space before it, so no second buffer is needed. It serves
// Freeze's merges of neighbouring runs and Merge's of frozen builders.
func mergeRuns(runs [][]float64) []float64 {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	out := make([]float64, n)
	if len(runs) < 2 {
		for _, r := range runs {
			copy(out, r)
		}
		return out
	}
	acc := runs[0]
	for _, r := range runs[1:] {
		dst := out[n-len(acc)-len(r):]
		mergePair(dst, acc, r)
		acc = dst
	}
	return out
}

// mergePair writes the ascending merge of ascending a and b into dst,
// which holds exactly their values. One input may be the end of dst
// itself (mergeRuns keeps its accumulated run there): the writes move
// forward and never overtake that input's unread values, and copy
// handles the overlap. The leading values of each input that sort
// before the other's first move in one copy, which keeps a long run of
// the minimum (the zero shuffle of map-only jobs) out of the loop. The
// loop picks each output without a data-dependent branch: the inputs
// interleave at random, so a branch would mispredict half the time.
func mergePair(dst, a, b []float64) {
	if len(b) > 0 && (len(a) == 0 || b[0] < a[0]) {
		a, b = b, a
	}
	i, j := len(a), 0
	if len(b) > 0 {
		i = sort.Search(len(a), func(k int) bool { return a[k] > b[0] })
	}
	w := copy(dst, a[:i])
	if i < len(a) {
		j = sort.Search(len(b), func(k int) bool { return b[k] >= a[i] })
		w += copy(dst[w:], b[:j])
	}
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		fromB := 0
		if y < x {
			fromB = 1
		}
		dst[w] = min(x, y)
		w++
		j += fromB
		i += 1 - fromB
	}
	w += copy(dst[w:], a[i:])
	copy(dst[w:], b[j:])
}

// Clone returns a builder that shares this one's runs, which no
// builder writes, and copies everything else: the run lists and tails
// in exact mode, the sketches in sketch mode. Observing into, freezing
// or merging into either builder afterwards never changes the other.
func (b *DataSizeBuilder) Clone() *DataSizeBuilder {
	c := *b
	for i := range c.cols {
		c.cols[i] = column{runs: slices.Clone(b.cols[i].runs), tail: slices.Clone(b.cols[i].tail)}
	}
	if b.sketch {
		c.hin, c.hsh, c.ho = cloneSketch(b.hin), cloneSketch(b.hsh), cloneSketch(b.ho)
	}
	return &c
}

// cloneSketch copies a sketch through its exact binary encoding.
func cloneSketch(s *stats.QuantileSketch) *stats.QuantileSketch {
	return stats.ReadQuantileSketch(binenc.NewReader(s.AppendBinary(nil)))
}

// Merge folds other builders into this one. All must cover the same
// workload and have been built in the same mode (exact or sketch). In
// exact mode, when the receiver and every argument are frozen, each
// column's runs, the receiver's and the arguments', merge linearly into
// one fresh run, the three columns concurrently: the receiver stays
// frozen. Otherwise the arguments' samples are appended to the
// receiver's tail, for Freeze or Result to sort. In sketch mode the
// fixed-memory sketches merge exactly (stats.QuantileSketch). Either
// way, shard-built-then-merged Result() matches sequential observation
// of the same jobs. The arguments are not modified, and the receiver
// shares no mutable memory with them afterwards.
func (b *DataSizeBuilder) Merge(os ...*DataSizeBuilder) error {
	frozen := b.frozen()
	added := 0
	for _, o := range os {
		if b.workload != o.workload {
			return fmt.Errorf("analysis: cannot merge data-size builders of different workloads (%q vs %q)", b.workload, o.workload)
		}
		if b.sketch != o.sketch {
			return fmt.Errorf("analysis: cannot merge exact and sketch data-size builders")
		}
		frozen = frozen && o.frozen()
		added += o.n
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
		}
		b.n += o.n
	}
	if b.sketch || added == 0 {
		return nil
	}
	if !frozen {
		for c := range b.cols {
			col := &b.cols[c]
			for _, o := range os {
				for _, r := range o.cols[c].runs {
					col.tail = append(col.tail, r...)
				}
				col.tail = append(col.tail, o.cols[c].tail...)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for c := range b.cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs := slices.Clone(b.cols[c].runs)
			for _, o := range os {
				runs = append(runs, o.cols[c].runs...)
			}
			b.cols[c].runs = [][]float64{mergeRuns(runs)}
		}()
	}
	wg.Wait()
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
	return &DataSizes{
		Workload: b.workload,
		Input:    b.cols[0].distribution(),
		Shuffle:  b.cols[1].distribution(),
		Output:   b.cols[2].distribution(),
	}, nil
}

// DataSizeCDFs computes Figure 1's exact distributions for a trace.
func DataSizeCDFs(t *trace.Trace) (*DataSizes, error) {
	b := NewDataSizeBuilder(t.Meta.Name, false)
	for c := range b.cols {
		b.cols[c].tail = make([]float64, 0, t.Len())
	}
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
