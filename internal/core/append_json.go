package core

import (
	"io"
	"strconv"
	"time"

	"repro/internal/analysis"
	"repro/internal/stats"
	"repro/internal/trace"
)

// AppendJSON appends the report's wire form to dst and returns the
// extended buffer: exactly the bytes json.Marshal(r.JSON()) produces,
// written straight from the report, with no *JSON tree and no
// reflection. Field order and omitempty follow ReportJSON, and every
// number and string is formatted by the JSON scalar appenders the trace
// codec uses. NaN or ±Inf anywhere is an error, as it is for
// json.Marshal.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	e := reportEncoder{b: dst}
	s := &r.Summary
	e.raw(`{"summary":{"name":`)
	e.str(s.Name)
	if s.Machines != 0 {
		e.raw(`,"machines":`)
		e.int(int64(s.Machines))
	}
	e.raw(`,"length_ms":`)
	e.int(s.Length.Milliseconds())
	e.raw(`,"jobs":`)
	e.int(int64(s.Jobs))
	e.raw(`,"bytes_moved":`)
	e.int(int64(s.BytesMoved))
	e.raw(`}`)
	if ds := r.DataSizes; ds != nil {
		e.raw(`,"data_sizes":{"input":`)
		e.dist(ds.Input)
		e.raw(`,"shuffle":`)
		e.dist(ds.Shuffle)
		e.raw(`,"output":`)
		e.dist(ds.Output)
		e.raw(`}`)
	}
	e.access(`,"input_access":`, r.InputAccess)
	e.access(`,"output_access":`, r.OutputAccess)
	e.sizeAccess(`,"input_size_access":`, r.InputSizeAccess)
	e.sizeAccess(`,"output_size_access":`, r.OutputSizeAccess)
	if iv := r.Intervals; iv != nil {
		e.raw(`,"reaccess_intervals":{"input_input":`)
		e.dist(iv.InputInput)
		if iv.OutputInput != nil {
			e.raw(`,"output_input":`)
			e.dist(iv.OutputInput)
		}
		e.raw(`,"fraction_within_6h":`)
		e.float(iv.FractionWithin(6 * time.Hour))
		e.raw(`}`)
	}
	if rf := r.Reaccess; rf != nil {
		e.raw(`,"reaccess_fractions":{"input_reaccess":`)
		e.float(rf.InputReaccess)
		e.raw(`,"output_reaccess":`)
		e.float(rf.OutputReaccess)
		e.raw(`,"output_observable":`)
		e.b = strconv.AppendBool(e.b, rf.OutputObservable)
		e.raw(`}`)
	}
	if ts := r.Series; ts != nil {
		e.raw(`,"hourly_series":{"start_unix_ms":`)
		e.int(ts.Start.UnixMilli())
		e.raw(`,"jobs":`)
		e.floats(ts.Jobs)
		e.raw(`,"bytes":`)
		e.floats(ts.Bytes)
		e.raw(`,"task_seconds":`)
		e.floats(ts.TaskSeconds)
		e.raw(`,"task_seconds_spread":`)
		e.floats(ts.TaskSecondsSpread)
		e.raw(`}`)
	}
	if r.PeakToMedian != 0 {
		e.raw(`,"peak_to_median":`)
		e.float(r.PeakToMedian)
	}
	if c := r.Correlations; c != nil {
		e.raw(`,"correlations":{"jobs_bytes":`)
		e.float(c.JobsBytes)
		e.raw(`,"jobs_task_seconds":`)
		e.float(c.JobsTaskSeconds)
		e.raw(`,"bytes_task_seconds":`)
		e.float(c.BytesTaskSeconds)
		e.raw(`}`)
	}
	if n := r.Names; n != nil {
		e.raw(`,"job_names":{"groups":`)
		e.nameGroups(n.Groups)
		e.raw(`,"distinct_words":`)
		e.int(int64(n.DistinctWords))
		e.raw(`}`)
	}
	if jc := r.Clusters; jc != nil {
		e.raw(`,"job_clusters":{"types":`)
		e.jobTypes(jc.Types)
		e.raw(`,"k":`)
		e.int(int64(jc.K))
		e.raw(`,"small_job_fraction":`)
		e.float(jc.SmallJobFraction)
		e.raw(`}`)
	}
	e.raw(`}`)
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// WriteJSON writes the report's wire form to w, newline-terminated: the
// bytes json.NewEncoder(w).Encode(r.JSON()) writes.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := r.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// reportEncoder appends a report's wire form. The first unsupported
// float stops the encoding: it is kept in err, and later floats are
// skipped.
type reportEncoder struct {
	b   []byte
	err error
}

func (e *reportEncoder) raw(s string) { e.b = append(e.b, s...) }

func (e *reportEncoder) str(s string) { e.b = trace.AppendJSONString(e.b, s) }

func (e *reportEncoder) int(i int64) { e.b = strconv.AppendInt(e.b, i, 10) }

func (e *reportEncoder) float(f float64) {
	if e.err != nil {
		return
	}
	if b, err := trace.AppendJSONFloat(e.b, f); err != nil {
		e.err = err
	} else {
		e.b = b
	}
}

// floats writes a []float64 field: null when nil, as encoding/json does.
func (e *reportEncoder) floats(fs []float64) {
	if fs == nil {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i, f := range fs {
		if i > 0 {
			e.raw(`,`)
		}
		e.float(f)
	}
	e.raw(`]`)
}

// dist writes a DistributionJSON: null for a nil distribution.
func (e *reportEncoder) dist(d stats.Distribution) {
	if d == nil {
		e.raw(`null`)
		return
	}
	e.raw(`{"count":`)
	e.int(int64(d.Len()))
	e.raw(`,"min":`)
	e.float(d.Min())
	e.raw(`,"max":`)
	e.float(d.Max())
	e.raw(`,"p25":`)
	e.float(d.Quantile(0.25))
	e.raw(`,"median":`)
	e.float(d.Median())
	e.raw(`,"p75":`)
	e.float(d.Quantile(0.75))
	e.raw(`,"p90":`)
	e.float(d.Quantile(0.90))
	e.raw(`,"p99":`)
	e.float(d.Quantile(0.99))
	if pts := d.LogPoints(10); len(pts) > 0 {
		e.raw(`,"points":`)
		e.points(pts)
	}
	e.raw(`}`)
}

// points writes a []PointJSON.
func (e *reportEncoder) points(pts []stats.Point) {
	e.raw(`[`)
	for i, p := range pts {
		if i > 0 {
			e.raw(`,`)
		}
		e.raw(`{"x":`)
		e.float(p.X)
		e.raw(`,"y":`)
		e.float(p.Y)
		e.raw(`}`)
	}
	e.raw(`]`)
}

func (e *reportEncoder) access(key string, af *analysis.AccessFrequency) {
	if af == nil {
		return
	}
	e.raw(key)
	e.raw(`{"zipf_alpha":`)
	e.float(af.Fit.Alpha)
	e.raw(`,"zipf_r2":`)
	e.float(af.Fit.R2)
	e.raw(`,"distinct_files":`)
	e.int(int64(af.DistinctFiles))
	e.raw(`,"total_accesses":`)
	e.int(int64(af.TotalAccesses))
	e.raw(`,"frequencies":`)
	if af.Frequencies == nil {
		e.raw(`null`)
	} else {
		e.raw(`[`)
		for i, f := range af.Frequencies {
			if i > 0 {
				e.raw(`,`)
			}
			e.b = strconv.AppendUint(e.b, f, 10)
		}
		e.raw(`]`)
	}
	e.raw(`}`)
}

func (e *reportEncoder) sizeAccess(key string, sa *analysis.SizeAccess) {
	if sa == nil {
		return
	}
	e.raw(key)
	e.raw(`{"jobs_cdf":`)
	e.dist(sa.JobsCDF)
	e.raw(`,"bytes_cdf":`)
	e.points(sa.BytesCDF)
	e.raw(`,"total_stored_bytes":`)
	e.int(int64(sa.TotalStored))
	e.raw(`,"distinct_files":`)
	e.int(int64(sa.DistinctFiles))
	e.raw(`,"eighty_rule":`)
	e.float(sa.EightyRule())
	e.raw(`}`)
}

// nameGroups writes NamesJSON.Groups, which JSON() builds by appending:
// null when there are none.
func (e *reportEncoder) nameGroups(groups []analysis.NameGroup) {
	if len(groups) == 0 {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i, g := range groups {
		if i > 0 {
			e.raw(`,`)
		}
		e.raw(`{"word":`)
		e.str(g.Word)
		e.raw(`,"jobs_fraction":`)
		e.float(g.JobsFraction)
		e.raw(`,"bytes_fraction":`)
		e.float(g.BytesFraction)
		e.raw(`,"task_time_fraction":`)
		e.float(g.TaskTimeFraction)
		e.raw(`}`)
	}
	e.raw(`]`)
}

// jobTypes writes ClustersJSON.Types, which JSON() builds by appending:
// null when there are none.
func (e *reportEncoder) jobTypes(types []analysis.JobType) {
	if len(types) == 0 {
		e.raw(`null`)
		return
	}
	e.raw(`[`)
	for i, jt := range types {
		if i > 0 {
			e.raw(`,`)
		}
		e.raw(`{"count":`)
		e.int(int64(jt.Count))
		e.raw(`,"input_bytes":`)
		e.int(int64(jt.Input))
		e.raw(`,"shuffle_bytes":`)
		e.int(int64(jt.Shuffle))
		e.raw(`,"output_bytes":`)
		e.int(int64(jt.Output))
		e.raw(`,"duration_seconds":`)
		e.float(jt.Duration.Seconds())
		e.raw(`,"map_task_seconds":`)
		e.float(float64(jt.MapTime))
		e.raw(`,"reduce_task_seconds":`)
		e.float(float64(jt.Reduce))
		e.raw(`,"label":`)
		e.str(jt.Label)
		e.raw(`}`)
	}
	e.raw(`]`)
}
