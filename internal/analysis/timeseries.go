package analysis

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/units"
)

// TimeSeries is the hourly-binned view of a workload behind Figures 7-9:
// per hour, the number of jobs submitted, the aggregate I/O (input +
// shuffle + output bytes) of jobs submitted, and their aggregate map +
// reduce task-time. All series are indexed by hour since trace start and
// attribute a job entirely to its submission hour, as the paper's
// submission-pattern columns do.
type TimeSeries struct {
	Workload string
	Start    time.Time
	// Jobs[h], Bytes[h], TaskSeconds[h] for hour h, attributed to the
	// job's submission hour (the convention of Figure 7's first three
	// columns: "jobs submitted in that hour").
	Jobs        []float64
	Bytes       []float64
	TaskSeconds []float64
	// TaskSecondsSpread[h] attributes each job's task-time uniformly over
	// its execution window instead. This is the load the cluster actually
	// carries hour by hour, bounded by slot capacity — the appropriate
	// series for the Figure 8 burstiness metric, where a day-long job
	// submitted in one hour should not register as an instantaneous
	// million-task-second spike.
	TaskSecondsSpread []float64
}

// TimeSeriesBuilder accumulates the hourly series incrementally, in
// memory proportional to the trace length in hours — never the job count
// — so core.AnalyzeSource can build Figures 7–9 in one streaming pass.
// BinHourly delegates to it, which is what keeps streaming and
// materialized series identical.
//
// The builder is a mergeable partial aggregate: per-hour job counts and
// byte totals accumulate in integers and the fractional task-time bins
// in stats.ExactSum, so the bins are exact, order-independent sums.
// Observing a job stream in shards and Merge-ing the shard builders (in
// any grouping) yields a Series() bit-identical to observing the stream
// sequentially — the contract the shard-parallel analysis path relies
// on, including at shard-boundary hours where two shards contribute to
// the same bin.
type TimeSeriesBuilder struct {
	workload string
	start    time.Time
	hours    int
	jobs     []int64
	bytes    []units.Bytes
	task     []stats.ExactSum
	spread   []stats.ExactSum
}

// NewTimeSeriesBuilder starts an hourly binning for a trace of the given
// length starting at start. Lengths under two hours are rejected, as in
// BinHourly.
func NewTimeSeriesBuilder(workload string, start time.Time, length time.Duration) (*TimeSeriesBuilder, error) {
	hours := int(length.Hours()) + 1
	if hours < 2 {
		return nil, errors.New("analysis: trace too short for hourly binning")
	}
	return &TimeSeriesBuilder{
		workload: workload,
		start:    start,
		hours:    hours,
		jobs:     make([]int64, hours),
		bytes:    make([]units.Bytes, hours),
		task:     make([]stats.ExactSum, hours),
		spread:   make([]stats.ExactSum, hours),
	}, nil
}

// Observe folds one job into the series. Jobs submitted before the
// series start are dropped; jobs past the horizon clamp into the final
// bin, exactly as BinHourly always did.
func (b *TimeSeriesBuilder) Observe(j *trace.Job) {
	t0 := j.SubmitTime.Sub(b.start).Hours()
	h := int(t0)
	if h < 0 {
		return
	}
	if h >= b.hours {
		h = b.hours - 1
	}
	b.jobs[h]++
	b.bytes[h] += j.TotalBytes()
	total := float64(j.TotalTaskTime())
	b.task[h].Add(total)
	spreadTaskTime(t0, j.Duration.Hours(), total, b.hours, b.addSpread)
}

// addSpread adds one spread contribution to hour h's bin.
func (b *TimeSeriesBuilder) addSpread(h int, v float64) { b.spread[h].Add(v) }

// ObserveColumns folds a run of jobs held as columns, in row order,
// reaching exactly the bins Observe reaches over the same jobs: a row's
// (second, nanosecond) pair is its submit time, whose offset from the
// series start is binned through Sub and Duration.Hours as Observe bins
// it. The task-time bins a call touches accumulate in block-local
// stats.BlockSums folded in once per call, so they hold the same values
// (and report the same bits) in a different expansion.
func (b *TimeSeriesBuilder) ObserveColumns(c *trace.Columns) {
	sc := getBlockSums()
	defer sc.release()
	spread := func(h int, v float64) { sc.bin(h, b.hours).spread.Add(v) }
	for i, sec := range c.SubmitSec {
		t0 := time.Unix(sec, int64(c.SubmitNanos[i])).Sub(b.start).Hours()
		h := int(t0)
		if h < 0 {
			continue
		}
		if h >= b.hours {
			h = b.hours - 1
		}
		b.jobs[h]++
		b.bytes[h] += c.InputBytes[i] + c.ShuffleBytes[i] + c.OutputBytes[i]
		total := float64(c.MapTime[i] + c.ReduceTime[i])
		sc.bin(h, b.hours).task.Add(total)
		spreadTaskTime(t0, c.Duration[i].Hours(), total, b.hours, spread)
	}
	for k, h := range sc.hours {
		sc.bins[k].task.FoldInto(&b.task[h])
		sc.bins[k].spread.FoldInto(&b.spread[h])
	}
}

// Clone returns an independent copy of the builder, in O(hours).
func (b *TimeSeriesBuilder) Clone() *TimeSeriesBuilder {
	c := *b
	c.jobs = slices.Clone(b.jobs)
	c.bytes = slices.Clone(b.bytes)
	c.task = make([]stats.ExactSum, b.hours)
	c.spread = make([]stats.ExactSum, b.hours)
	for h := range b.task {
		c.task[h] = b.task[h].Clone()
		c.spread[h] = b.spread[h].Clone()
	}
	return &c
}

// Merge folds another builder's bins into this one. Both builders must
// cover the same workload, origin, and hour count (the agreement
// contract: shards of one trace, split with the full trace's metadata).
// The argument is not modified.
func (b *TimeSeriesBuilder) Merge(o *TimeSeriesBuilder) error {
	if b.workload != o.workload || !b.start.Equal(o.start) || b.hours != o.hours {
		return fmt.Errorf("analysis: cannot merge series of different traces (%q from %v over %dh vs %q from %v over %dh)",
			b.workload, b.start, b.hours, o.workload, o.start, o.hours)
	}
	for h := 0; h < b.hours; h++ {
		b.jobs[h] += o.jobs[h]
		b.bytes[h] += o.bytes[h]
		b.task[h].Merge(&o.task[h])
		b.spread[h].Merge(&o.spread[h])
	}
	return nil
}

// Series materializes the accumulated hourly view. It does not modify
// the builder, so a frozen builder can serve concurrent readers.
func (b *TimeSeriesBuilder) Series() *TimeSeries {
	ts := &TimeSeries{
		Workload:          b.workload,
		Start:             b.start,
		Jobs:              make([]float64, b.hours),
		Bytes:             make([]float64, b.hours),
		TaskSeconds:       make([]float64, b.hours),
		TaskSecondsSpread: make([]float64, b.hours),
	}
	for h := 0; h < b.hours; h++ {
		ts.Jobs[h] = float64(b.jobs[h])
		ts.Bytes[h] = float64(b.bytes[h])
		ts.TaskSeconds[h] = b.task[h].Sum()
		ts.TaskSecondsSpread[h] = b.spread[h].Sum()
	}
	return ts
}

// BinHourly builds the hourly series for a trace. The number of bins is
// ceil(trace length); traces shorter than two hours are rejected. A
// header without a start or length takes them from the jobs' span
// (trace.Meta.FillFromSpan).
func BinHourly(t *trace.Trace) (*TimeSeries, error) {
	if t.Len() == 0 {
		return nil, errors.New("analysis: empty trace")
	}
	meta := t.Meta
	meta.FillFromSpan(t.Span())
	b, err := NewTimeSeriesBuilder(meta.Name, meta.Start, meta.Length)
	if err != nil {
		return nil, err
	}
	for _, j := range t.Jobs {
		b.Observe(j)
	}
	return b.Series(), nil
}

// spreadTaskTime distributes a job's task-time total uniformly over the
// hourly bins its execution window overlaps: the window starts t0 hours
// after the series start and lasts dur hours, and add(h, v) books v to
// bin h of the series' hours. Each per-bin contribution is a pure
// function of the job, so the exact-sum bins are independent of
// observation order. Observe and ObserveColumns both spread through it.
func spreadTaskTime(t0, dur, total float64, hours int, add func(h int, v float64)) {
	if total <= 0 {
		return
	}
	if dur <= 0 {
		dur = 1.0 / 3600 // degenerate durations get one second
	}
	t1 := t0 + dur
	rate := total / dur // task-seconds per hour of execution
	for t := t0; t < t1; {
		h := int(t)
		if h < 0 {
			t = 0
			continue
		}
		if h >= hours {
			// Execution spills past the trace horizon; attribute the
			// remainder to the final bin so totals are conserved.
			add(hours-1, rate*(t1-t))
			return
		}
		segEnd := math.Min(float64(h+1), t1)
		add(h, rate*(segEnd-t))
		t = segEnd
	}
}

// Hours returns the number of hourly bins.
func (ts *TimeSeries) Hours() int { return len(ts.Jobs) }

// Week returns the slice of the series covering the given 7-day week
// (0-based), for rendering Figure 7's one-week views. It errors if the
// series does not contain that week in full.
func (ts *TimeSeries) Week(week int) (*TimeSeries, error) {
	lo := week * 7 * 24
	hi := lo + 7*24
	if week < 0 || hi > len(ts.Jobs) {
		return nil, errors.New("analysis: week out of range")
	}
	return &TimeSeries{
		Workload:          ts.Workload,
		Start:             ts.Start.Add(time.Duration(lo) * time.Hour),
		Jobs:              ts.Jobs[lo:hi],
		Bytes:             ts.Bytes[lo:hi],
		TaskSeconds:       ts.TaskSeconds[lo:hi],
		TaskSecondsSpread: ts.TaskSecondsSpread[lo:hi],
	}, nil
}

// DiurnalStrengths reports the 24-hour periodicity strength of each
// dimension (see stats.DiurnalStrength); the paper observes diurnal
// patterns "revealed by Fourier analysis" for some workloads.
func (ts *TimeSeries) DiurnalStrengths() (jobs, bytes, taskSeconds float64, err error) {
	jobs, err = stats.DiurnalStrength(ts.Jobs)
	if err != nil {
		return 0, 0, 0, err
	}
	bytes, err = stats.DiurnalStrength(ts.Bytes)
	if err != nil {
		return 0, 0, 0, err
	}
	taskSeconds, err = stats.DiurnalStrength(ts.TaskSeconds)
	if err != nil {
		return 0, 0, 0, err
	}
	return jobs, bytes, taskSeconds, nil
}

// BurstinessOf computes the Figure 8 burstiness curve of the task-time
// dimension, the one the paper plots ("cumulative distribution of
// task-time per hour ... normalized by the median task-time per hour").
// The execution-spread series is used: booking a multi-hour job's entire
// task-time to its submission minute would overstate hourly load by orders
// of magnitude for the small CC clusters.
func (ts *TimeSeries) BurstinessOf() (stats.BurstinessCurve, error) {
	return stats.Burstiness(ts.TaskSecondsSpread)
}

// Correlations is the Figure 9 analysis: pairwise Pearson correlation
// between the three hourly submission-pattern series.
type Correlations struct {
	Workload string
	// JobsBytes is corr(jobs/hr, bytes/hr); the paper's average is 0.21.
	JobsBytes float64
	// JobsTaskSeconds is corr(jobs/hr, task-s/hr); paper average 0.14.
	JobsTaskSeconds float64
	// BytesTaskSeconds is corr(bytes/hr, task-s/hr); paper average 0.62 —
	// "by far the strongest", showing the workloads are data-centric.
	BytesTaskSeconds float64
}

// Correlate computes Figure 9 for a trace's hourly series.
func (ts *TimeSeries) Correlate() (*Correlations, error) {
	jb, err := stats.Pearson(ts.Jobs, ts.Bytes)
	if err != nil {
		return nil, err
	}
	jt, err := stats.Pearson(ts.Jobs, ts.TaskSeconds)
	if err != nil {
		return nil, err
	}
	bt, err := stats.Pearson(ts.Bytes, ts.TaskSeconds)
	if err != nil {
		return nil, err
	}
	return &Correlations{
		Workload:         ts.Workload,
		JobsBytes:        jb,
		JobsTaskSeconds:  jt,
		BytesTaskSeconds: bt,
	}, nil
}
