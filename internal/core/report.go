// Package core implements the paper's primary contribution: the
// cross-industry workload characterization. It orchestrates the full
// per-workload analysis (every figure and table that a trace's fields
// permit) and the cross-workload study that compares all seven
// deployments, from which the paper draws its headline findings — the
// interactive/semi-streaming workload class, the diversity that defeats
// any single "typical" workload, and the benchmark-design implications of
// §7.
package core

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/units"
)

// Report bundles every analysis of the paper that applies to one trace.
// Fields are nil when the trace lacks the required fields (paths, names),
// mirroring the per-workload gaps in the original study (§3, §4.2).
type Report struct {
	// Summary is the trace's Table-1 row.
	Summary trace.Summary
	// DataSizes: Figure 1.
	DataSizes *analysis.DataSizes
	// InputAccess / OutputAccess: Figure 2 (nil without paths).
	InputAccess  *analysis.AccessFrequency
	OutputAccess *analysis.AccessFrequency
	// InputSizeAccess / OutputSizeAccess: Figures 3 and 4.
	InputSizeAccess  *analysis.SizeAccess
	OutputSizeAccess *analysis.SizeAccess
	// Intervals: Figure 5 (nil without paths or re-accesses).
	Intervals *analysis.ReaccessIntervals
	// Reaccess: Figure 6.
	Reaccess *analysis.ReaccessFractions
	// Series: the hourly view behind Figures 7-9.
	Series *analysis.TimeSeries
	// PeakToMedian is the Figure 8 headline burstiness number.
	PeakToMedian float64
	// Correlations: Figure 9.
	Correlations *analysis.Correlations
	// Names: Figure 10 (nil without job names).
	Names *analysis.NameAnalysis
	// Clusters: Table 2.
	Clusters *analysis.JobClusters
}

// AnalyzeOptions tunes Analyze and AnalyzeSource.
type AnalyzeOptions struct {
	// TopNames bounds the Figure 10 word list (default 8, matching the
	// figure's per-workload word counts).
	TopNames int
	// Cluster tunes the Table-2 clustering; the zero value uses defaults.
	Cluster analysis.ClusterConfig
	// SkipClustering drops the Table 2 analysis (it is the slowest step).
	SkipClustering bool
	// SketchDataSizes computes the Figure 1 distributions with
	// fixed-memory quantile sketches (≤ half-bin relative error,
	// stats.DefaultBinsPerDecade) instead of exact per-job value
	// collection. With it, streaming analysis memory is fully
	// independent of job count; without it, Figure 1 retains 24 bytes
	// per job and is exact.
	SketchDataSizes bool
	// Shards applies to AnalyzeSource only: above 1, the job stream is
	// collected, split into this many contiguous ordered shards,
	// analyzed on a bounded worker pool, and merged in shard order. The
	// report is byte-identical to the sequential one at any shard
	// count; the cost is holding the job set in memory while the shards
	// run. 0 or 1 keeps the sequential constant-memory pass. Analyze
	// always builds with one shard per CPU.
	Shards int
}

// Analyze runs the full measurement methodology of the paper over a trace
// and returns every figure and table that the trace's fields permit. The
// streamed sections are finalized from the trace's partial aggregate, as
// every served report is; AddTraceSections adds the ones that need the
// whole trace at once. A header without a start or length (CSV) takes
// them from the jobs' span (trace.Meta.FillFromSpan).
func Analyze(t *trace.Trace, opts AnalyzeOptions) (*Report, error) {
	if t.Len() == 0 {
		return nil, fmt.Errorf("core: cannot analyze an empty trace")
	}
	filled := *t
	filled.Meta.FillFromSpan(t.Span())
	p, err := BuildTracePartial(&filled, 0, opts.SketchDataSizes)
	if err != nil {
		return nil, err
	}
	rep, err := p.Report(opts.TopNames)
	if err != nil {
		return nil, err
	}
	if err := rep.AddTraceSections(&filled, opts); err != nil {
		return nil, err
	}
	return rep, nil
}

// AddTraceSections adds to a partial's report the analyses that need
// random access over the whole trace, which no partial aggregate
// carries: the path-based Figures 2–6 when the jobs carry paths, and the
// Table 2 clustering unless opts.SkipClustering.
func (r *Report) AddTraceSections(t *trace.Trace, opts AnalyzeOptions) error {
	if t.HasPaths() {
		if af, err := analysis.InputAccessFrequency(t); err == nil {
			r.InputAccess = af
		}
		if sa, err := analysis.InputSizeAccess(t); err == nil {
			r.InputSizeAccess = sa
		}
		if iv, err := analysis.Intervals(t); err == nil {
			r.Intervals = iv
		}
		if rf, err := analysis.Reaccess(t); err == nil {
			r.Reaccess = rf
		}
	}
	if t.HasOutputPaths() {
		if af, err := analysis.OutputAccessFrequency(t); err == nil {
			r.OutputAccess = af
		}
		if sa, err := analysis.OutputSizeAccess(t); err == nil {
			r.OutputSizeAccess = sa
		}
	}
	if !opts.SkipClustering {
		jc, err := analysis.ClusterJobs(t, opts.Cluster)
		if err != nil {
			return err
		}
		r.Clusters = jc
	}
	return nil
}

// Render writes the full report as readable text: one section per figure
// or table that applies to the workload.
func (r *Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "==== Workload %s ====\n", r.Summary.Name)
	fmt.Fprintf(w, "machines=%d length=%s jobs=%d bytes-moved=%s\n\n",
		r.Summary.Machines, r.Summary.Length, r.Summary.Jobs, r.Summary.BytesMoved)

	if r.DataSizes != nil {
		fmt.Fprintln(w, "-- Figure 1: per-job data sizes --")
		fb := func(v float64) string { return units.Bytes(v).String() }
		if err := report.CDFChart(w, r.DataSizes.Input, "input", fb); err != nil {
			return err
		}
		if err := report.CDFChart(w, r.DataSizes.Shuffle, "shuffle", fb); err != nil {
			return err
		}
		if err := report.CDFChart(w, r.DataSizes.Output, "output", fb); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if r.InputAccess != nil {
		fmt.Fprintln(w, "-- Figure 2: input file access frequency vs rank --")
		fmt.Fprintf(w, "zipf alpha=%.3f (paper: 5/6=0.833) r2=%.3f files=%d\n",
			r.InputAccess.Fit.Alpha, r.InputAccess.Fit.R2, r.InputAccess.DistinctFiles)
		if err := report.LogLogChart(w, r.InputAccess.Frequencies, "input accesses"); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if r.InputSizeAccess != nil {
		fmt.Fprintln(w, "-- Figure 3: access patterns vs input file size --")
		fmt.Fprintf(w, "80%% of accesses hit files holding %s of stored bytes (80-N rule)\n",
			report.Percent(r.InputSizeAccess.EightyRule()/100))
		fmt.Fprintln(w)
	}
	if r.OutputSizeAccess != nil {
		fmt.Fprintln(w, "-- Figure 4: access patterns vs output file size --")
		fmt.Fprintf(w, "80%% of accesses hit files holding %s of stored bytes\n",
			report.Percent(r.OutputSizeAccess.EightyRule()/100))
		fmt.Fprintln(w)
	}
	if r.Intervals != nil {
		fmt.Fprintln(w, "-- Figure 5: data re-access intervals --")
		fmt.Fprintf(w, "re-accesses within 6h: %s (paper: ~75%%)\n",
			report.Percent(r.Intervals.FractionWithin(6*time.Hour)))
		fmt.Fprintln(w)
	}
	if r.Reaccess != nil {
		fmt.Fprintln(w, "-- Figure 6: jobs reading pre-existing data --")
		fmt.Fprintf(w, "input re-access=%s output re-access=%s\n",
			report.Percent(r.Reaccess.InputReaccess), report.Percent(r.Reaccess.OutputReaccess))
		fmt.Fprintln(w)
	}
	if r.Series != nil {
		fmt.Fprintln(w, "-- Figure 7: weekly behavior (first week, hourly) --")
		week := r.Series
		if w7, err := r.Series.Week(0); err == nil {
			week = w7
		}
		fmt.Fprintf(w, "jobs/hr  %s\n", report.Sparkline(week.Jobs))
		fmt.Fprintf(w, "bytes/hr %s\n", report.Sparkline(week.Bytes))
		fmt.Fprintf(w, "task-s/h %s\n", report.Sparkline(week.TaskSeconds))
		fmt.Fprintln(w)
		fmt.Fprintln(w, "-- Figure 8: burstiness --")
		fmt.Fprintf(w, "peak-to-median task-time: %s (paper range: 9:1 .. 260:1)\n",
			report.Ratio(r.PeakToMedian))
		fmt.Fprintln(w)
	}
	if r.Correlations != nil {
		fmt.Fprintln(w, "-- Figure 9: hourly dimension correlations --")
		fmt.Fprintf(w, "jobs-bytes=%.2f jobs-tasktime=%.2f bytes-tasktime=%.2f\n",
			r.Correlations.JobsBytes, r.Correlations.JobsTaskSeconds, r.Correlations.BytesTaskSeconds)
		fmt.Fprintln(w)
	}
	if r.Names != nil {
		fmt.Fprintln(w, "-- Figure 10: job name first words --")
		tb := report.NewTable("word", "% jobs", "% bytes", "% task-time")
		for _, g := range r.Names.Groups {
			tb.AddRow(g.Word, report.Percent(g.JobsFraction),
				report.Percent(g.BytesFraction), report.Percent(g.TaskTimeFraction))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if r.Clusters != nil {
		fmt.Fprintln(w, "-- Table 2: job types (k-means) --")
		tb := report.NewTable("# Jobs", "Input", "Shuffle", "Output", "Duration", "Map time", "Reduce time", "Label")
		for _, jt := range r.Clusters.Types {
			tb.AddRow(
				fmt.Sprintf("%d", jt.Count),
				jt.Input.String(), jt.Shuffle.String(), jt.Output.String(),
				units.FormatDuration(jt.Duration),
				fmt.Sprintf("%.0f", float64(jt.MapTime)),
				fmt.Sprintf("%.0f", float64(jt.Reduce)),
				jt.Label,
			)
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "small-job fraction: %s (paper: >90%% in all workloads)\n\n",
			report.Percent(r.Clusters.SmallJobFraction))
	}
	return nil
}
