package analysis

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/profile"
	"repro/internal/trace"
)

// The per-job folds the section builders had before every producer
// folded columns, kept as the reference their ObserveColumns is held to.

func refObserveDataSize(b *DataSizeBuilder, j *trace.Job) {
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

func refObserveSeries(b *TimeSeriesBuilder, j *trace.Job) {
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
	spreadTaskTime(t0, j.Duration.Hours(), total, b.hours, func(h int, v float64) { b.spread[h].Add(v) })
}

func refObserveNames(b *NamesBuilder, j *trace.Job) {
	if j.Name != "" {
		b.named = true
	}
	g := b.group(j.Name)
	bytes, task := j.TotalBytes(), float64(j.TotalTaskTime())
	g.jobs++
	g.bytes += bytes
	g.taskTime.Add(task)
	b.totJobs++
	b.totBytes += bytes
	b.totTask.Add(task)
}

// columnsOf gathers jobs into one run.
func columnsOf(jobs []*trace.Job) *trace.Columns {
	var c trace.Columns
	for _, j := range jobs {
		c.Append(j)
	}
	return &c
}

// dataSizeCDFs is Figure 1's exact distributions of a trace, through
// the builder.
func dataSizeCDFs(tr *trace.Trace) (*DataSizes, error) {
	b := NewDataSizeBuilder(tr.Meta.Name, false)
	b.ObserveColumns(columnsOf(tr.Jobs))
	return b.Result()
}

// jobNames is Figure 10 of a trace, through the builder.
func jobNames(tr *trace.Trace, topN int) (*NameAnalysis, error) {
	b := NewNamesBuilder(tr.Meta.Name)
	b.ObserveColumns(columnsOf(tr.Jobs))
	return b.Result(topN)
}

// edgeTrace is rows at the edges the column fold must bin exactly as
// the per-job reference: submits before the series start and past its
// horizon, zero durations and task times, executions past the horizon,
// unnamed, uppercase and non-ASCII names, and times in years 0 and
// 9999, which int64 nanoseconds cannot hold.
func edgeTrace() *trace.Trace {
	start := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	tr := trace.New(trace.Meta{Name: "edges", Machines: 10, Start: start, Length: 48 * time.Hour})
	at := func(t time.Time, name string, dur time.Duration) *trace.Job {
		return &trace.Job{ID: int64(tr.Len() + 1), Name: name, SubmitTime: t, Duration: dur, InputBytes: 1 << 20,
			ShuffleBytes: 3, OutputBytes: 77, MapTime: 0.1, ReduceTime: 0.2, MapTasks: 1}
	}
	for _, j := range []*trace.Job{
		at(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), "ancient", time.Hour),
		at(start.Add(-2*time.Hour), "early", 3*time.Hour),
		at(start.Add(-30*time.Minute), "early", time.Hour),
		at(start, "", 0),
		at(start.Add(3*time.Hour+250*time.Millisecond), "ETL_Daily", 10*time.Minute),
		at(start.Add(3*time.Hour+250*time.Millisecond), "Über-job", 90*time.Minute),
		at(start.Add(5*time.Hour), "日本 report", 26*time.Hour),
		at(start.Add(6*time.Hour), "42-ingest", 0),
		at(start.Add(47*time.Hour+30*time.Minute), "late", 20*time.Hour),
		at(start.Add(60*time.Hour), "past", time.Hour),
		at(time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC), "future", time.Hour),
	} {
		tr.Add(j)
	}
	tr.Jobs[3].MapTime, tr.Jobs[3].ReduceTime = 0, 0
	tr.Jobs[7].MapTime, tr.Jobs[7].ReduceTime = 0, 0
	tr.Jobs[6].MapTime = 12345.678
	return tr
}

// TestObserveColumnsMatchesReference holds each builder's column fold
// to the per-job reference, on every generator workload and on edge
// rows, in both Figure 1 modes, with the jobs cut into runs of one row,
// seven rows and trace.ChunkRows rows: the two builders must encode to
// the same bytes, so they hold the same state.
func TestObserveColumnsMatchesReference(t *testing.T) {
	traces := []*trace.Trace{edgeTrace()}
	for _, w := range profile.Names() {
		traces = append(traces, genTrace(t, w, 30*time.Hour, 3))
	}
	for _, tr := range traces {
		meta := tr.Meta
		for _, sketch := range []bool{false, true} {
			refDS := NewDataSizeBuilder(meta.Name, sketch)
			refTS, err := NewTimeSeriesBuilder(meta.Name, meta.Start, meta.Length)
			if err != nil {
				t.Fatal(err)
			}
			refNB := NewNamesBuilder(meta.Name)
			for _, j := range tr.Jobs {
				refObserveDataSize(refDS, j)
				refObserveSeries(refTS, j)
				refObserveNames(refNB, j)
			}
			for _, run := range []int{1, 7, trace.ChunkRows} {
				ds := NewDataSizeBuilder(meta.Name, sketch)
				ts, _ := NewTimeSeriesBuilder(meta.Name, meta.Start, meta.Length)
				nb := NewNamesBuilder(meta.Name)
				for i := 0; i < tr.Len(); i += run {
					c := columnsOf(tr.Jobs[i:min(i+run, tr.Len())])
					ds.ObserveColumns(c)
					ts.ObserveColumns(c)
					nb.ObserveColumns(c)
				}
				where := fmt.Sprintf("%s sketch=%v runs of %d", meta.Name, sketch, run)
				for _, sec := range []struct {
					name      string
					got, want []byte
				}{
					{"data sizes", ds.AppendBinary(nil), refDS.AppendBinary(nil)},
					{"series", ts.AppendBinary(nil), refTS.AppendBinary(nil)},
					{"names", nb.AppendBinary(nil), refNB.AppendBinary(nil)},
				} {
					if !bytes.Equal(sec.got, sec.want) {
						t.Errorf("%s: the %s builder's column fold differs from the per-job reference", where, sec.name)
					}
				}
			}
		}
	}
}
