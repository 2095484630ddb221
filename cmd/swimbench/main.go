// Command swimbench regenerates every table and figure of the paper's
// evaluation from calibrated synthetic traces and prints paper-reported
// versus measured values side by side. Its output is the source of
// EXPERIMENTS.md.
//
//	swimbench                 # default: two-week windows, FB rate-scaled
//	swimbench -quick          # smaller windows for a fast smoke run
//	swimbench -seed 7         # different random universe
//	swimbench -only table1,fig8  # just the named sections
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	swim "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/units"
)

// paperRow carries Table 1's published values for comparison.
type paperRow struct {
	jobs  int
	bytes units.Bytes
	p2m   float64 // Fig 8 peak-to-median where the paper gives one (0 = unreported)
}

var paperTable1 = map[string]paperRow{
	"CC-a":    {5759, 80 * units.TB, 0},
	"CC-b":    {22974, 600 * units.TB, 0},
	"CC-c":    {21030, 18 * units.PB, 0},
	"CC-d":    {13283, 8 * units.PB, 0},
	"CC-e":    {10790, 590 * units.TB, 0},
	"FB-2009": {1129193, units.Bytes(9.4e15), 31},
	"FB-2010": {1169184, units.Bytes(1.5e18), 9},
}

// sectionNames lists the runnable sections in print order.
var sectionNames = []string{
	"table1", "fig1", "fig2", "fig34", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "table2", "scaledown", "cache", "scheduler",
	"drift", "tiered", "suite", "consolidation", "parallel",
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "swimbench: %v\n", err)
		os.Exit(2)
	}
}

// run is the testable body: parses args, generates and analyzes the
// requested workloads, and prints the selected sections to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		quick  = fs.Bool("quick", false, "short windows (2 days) for a fast smoke run")
		seed   = fs.Int64("seed", 1, "generation seed")
		par    = fs.Int("parallelism", 0, "trace-generation workers (0 = all cores); traces are identical at any setting")
		shards = fs.Int("shards", 0, "analysis shards for the parallel section (0 = one per CPU); reports are byte-identical at any setting")
		window = fs.Duration("window", 0, "generation window (0 = 14 days, or 2 days with -quick)")
		only   = fs.String("only", "", "comma-separated sections to run (default all): "+strings.Join(sectionNames, ", "))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dur := 14 * 24 * time.Hour
	if *quick {
		dur = 2 * 24 * time.Hour
	}
	if *window > 0 {
		dur = *window
	}

	selected := map[string]bool{}
	if *only == "" {
		for _, name := range sectionNames {
			selected[name] = true
		}
	} else {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			found := false
			for _, known := range sectionNames {
				if name == known {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown section %q (sections: %s)", name, strings.Join(sectionNames, ", "))
			}
			selected[name] = true
		}
	}

	start := time.Now()
	fmt.Fprintf(stdout, "swimbench: regenerating the paper's evaluation (window=%v, seed=%d)\n", dur, *seed)
	fmt.Fprintln(stdout, "NOTE: measured values come from calibrated synthetic traces over a")
	fmt.Fprintln(stdout, "window of the full trace; job/byte counts are compared per-hour.")
	fmt.Fprintln(stdout)

	// The figure/table sections read per-workload reports; the ablation
	// sections consume only the traces. Analyze lazily so e.g.
	// `-only scheduler` skips the whole analysis pipeline, and skip the
	// Table-2 clustering (by far the slowest analysis) unless table2 is
	// selected.
	needReports := false
	for name := range selected {
		if name == "table1" || name == "table2" || strings.HasPrefix(name, "fig") {
			needReports = true
			break
		}
	}
	reports := map[string]*swim.Report{}
	traces := map[string]*swim.Trace{}
	for _, name := range swim.Workloads() {
		tr, err := swim.Generate(swim.GenerateOptions{Workload: name, Seed: *seed, Duration: dur, Parallelism: *par})
		if err != nil {
			return err
		}
		traces[name] = tr
		if needReports {
			rep, err := swim.Analyze(tr, swim.AnalyzeOptions{SkipClustering: !selected["table2"]})
			if err != nil {
				return err
			}
			reports[name] = rep
		}
	}

	sections := map[string]func(io.Writer) error{
		"table1":        func(w io.Writer) error { return table1(w, reports) },
		"fig1":          func(w io.Writer) error { return figure1(w, reports) },
		"fig2":          func(w io.Writer) error { return figure2(w, reports) },
		"fig34":         func(w io.Writer) error { return figures34(w, reports) },
		"fig5":          func(w io.Writer) error { return figure5(w, reports) },
		"fig6":          func(w io.Writer) error { return figure6(w, reports) },
		"fig7":          func(w io.Writer) error { return figure7(w, reports, traces) },
		"fig8":          func(w io.Writer) error { return figure8(w, reports) },
		"fig9":          func(w io.Writer) error { return figure9(w, reports) },
		"fig10":         func(w io.Writer) error { return figure10(w, reports) },
		"table2":        func(w io.Writer) error { return table2(w, reports) },
		"scaledown":     func(w io.Writer) error { return swimScaleDown(w, traces, *seed) },
		"cache":         func(w io.Writer) error { return cacheAblation(w, traces) },
		"scheduler":     func(w io.Writer) error { return schedulerAblation(w, traces, *seed) },
		"drift":         func(w io.Writer) error { return eraDrift(w, traces) },
		"tiered":        func(w io.Writer) error { return tieredAblation(w, traces, *seed) },
		"suite":         func(w io.Writer) error { return workloadSuite(w, *quick, *seed) },
		"consolidation": func(w io.Writer) error { return consolidation(w, traces) },
		"parallel":      func(w io.Writer) error { return parallelAnalysis(w, traces, *shards) },
	}
	for _, name := range sectionNames {
		if !selected[name] {
			continue
		}
		if err := sections[name](stdout); err != nil {
			return fmt.Errorf("section %s: %w", name, err)
		}
	}

	fmt.Fprintf(stdout, "done in %v\n", time.Since(start).Round(time.Second))
	return nil
}

// table1 compares per-hour job and byte rates with Table 1's full-trace
// numbers (the generated window is shorter than the full collection).
func table1(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Table 1: trace summaries (rates per hour; paper values scaled) ==")
	tb := report.NewTable("Workload", "Jobs/hr (paper)", "Jobs/hr (meas)", "Bytes/hr (paper)", "Bytes/hr (meas)")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		p, err := swim.WorkloadProfile(name)
		if err != nil {
			return err
		}
		paper := paperTable1[name]
		hours := p.TraceLength.Hours()
		measHours := rep.Summary.Length.Hours()
		tb.AddRow(name,
			fmt.Sprintf("%.1f", float64(paper.jobs)/hours),
			fmt.Sprintf("%.1f", float64(rep.Summary.Jobs)/measHours),
			units.Bytes(float64(paper.bytes)/hours).String(),
			units.Bytes(float64(rep.Summary.BytesMoved)/measHours).String(),
		)
	}
	return render(w, tb)
}

func figure1(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 1: per-job data size medians ==")
	tb := report.NewTable("Workload", "median input", "median shuffle", "median output")
	var all []*analysis.DataSizes
	for _, name := range swim.Workloads() {
		ds := reports[name].DataSizes
		all = append(all, ds)
		tb.AddRow(name,
			units.Bytes(ds.Input.Median()).String(),
			units.Bytes(ds.Shuffle.Median()).String(),
			units.Bytes(ds.Output.Median()).String())
	}
	if err := render(w, tb); err != nil {
		return err
	}
	in, sh, out := analysis.MedianSpanAcrossWorkloads(all)
	fmt.Fprintf(w, "median spans: input %.1f / shuffle %.1f / output %.1f orders of magnitude\n", in, sh, out)
	fmt.Fprintln(w, "paper:        input 6 / shuffle 8 / output 4")
	fmt.Fprintln(w)
	return nil
}

func figure2(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 2: file access frequency Zipf fits (paper: slope 5/6 = 0.833, straight lines) ==")
	tb := report.NewTable("Workload", "alpha (input)", "R2", "alpha (output)", "R2", "files")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		if rep.InputAccess == nil {
			tb.AddRow(name, "no path data", "", "", "", "")
			continue
		}
		outA, outR := "n/a", ""
		if rep.OutputAccess != nil {
			outA = fmt.Sprintf("%.3f", rep.OutputAccess.Fit.Alpha)
			outR = fmt.Sprintf("%.3f", rep.OutputAccess.Fit.R2)
		}
		tb.AddRow(name,
			fmt.Sprintf("%.3f", rep.InputAccess.Fit.Alpha),
			fmt.Sprintf("%.3f", rep.InputAccess.Fit.R2),
			outA, outR,
			fmt.Sprintf("%d", rep.InputAccess.DistinctFiles))
	}
	return render(w, tb)
}

func figures34(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figures 3-4: access patterns vs file size (paper: 80-1 .. 80-8 rules; 90% of jobs < a few GB) ==")
	tb := report.NewTable("Workload", "80-N input", "80-N output", "p90 accessed input size")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		if rep.InputSizeAccess == nil {
			tb.AddRow(name, "no path data", "", "")
			continue
		}
		outRule := "n/a"
		if rep.OutputSizeAccess != nil {
			outRule = fmt.Sprintf("80-%.1f", rep.OutputSizeAccess.EightyRule())
		}
		tb.AddRow(name,
			fmt.Sprintf("80-%.1f", rep.InputSizeAccess.EightyRule()),
			outRule,
			units.Bytes(rep.InputSizeAccess.JobsCDF.Quantile(0.9)).String())
	}
	return render(w, tb)
}

func figure5(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 5: re-access intervals (paper: 75% within 6 hours) ==")
	tb := report.NewTable("Workload", "within 1min", "within 1hr", "within 6hr")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		if rep.Intervals == nil {
			tb.AddRow(name, "no path data", "", "")
			continue
		}
		iv := rep.Intervals
		tb.AddRow(name,
			report.Percent(iv.FractionWithin(time.Minute)),
			report.Percent(iv.FractionWithin(time.Hour)),
			report.Percent(iv.FractionWithin(6*time.Hour)))
	}
	return render(w, tb)
}

func figure6(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 6: jobs reading pre-existing data (paper: up to 78% for CC-c/d/e) ==")
	tb := report.NewTable("Workload", "re-access input", "re-access output", "total")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		if rep.Reaccess == nil {
			tb.AddRow(name, "no path data", "", "")
			continue
		}
		rf := rep.Reaccess
		out := report.Percent(rf.OutputReaccess)
		if !rf.OutputObservable {
			out = "unobservable"
		}
		tb.AddRow(name,
			report.Percent(rf.InputReaccess), out,
			report.Percent(rf.InputReaccess+rf.OutputReaccess))
	}
	return render(w, tb)
}

func figure7(w io.Writer, reports map[string]*swim.Report, traces map[string]*swim.Trace) error {
	fmt.Fprintln(w, "== Figure 7: weekly behavior (hourly sparklines, first week) ==")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		week := rep.Series
		if w7, err := rep.Series.Week(0); err == nil {
			week = w7
		}
		fmt.Fprintf(w, "%-8s jobs  %s\n", name, report.Sparkline(week.Jobs))
		fmt.Fprintf(w, "%-8s I/O   %s\n", "", report.Sparkline(week.Bytes))
		fmt.Fprintf(w, "%-8s task  %s\n", "", report.Sparkline(week.TaskSeconds))
	}
	// Utilization column via replay of a small workload (full FB replays
	// are left to swimreplay).
	tr := traces["CC-e"]
	res, err := swim.Replay(tr, swim.ReplayOptions{Scheduler: swim.SchedulerFair})
	if err != nil {
		return err
	}
	n := len(res.HourlyOccupancy)
	if n > 7*24 {
		n = 7 * 24
	}
	fmt.Fprintf(w, "%-8s util  %s (CC-e replayed, %d slots)\n", "", report.Sparkline(res.HourlyOccupancy[:n]), res.TotalSlots)
	fmt.Fprintln(w)
	return nil
}

func figure8(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 8: burstiness (paper: peak-to-median 9:1 .. 260:1; FB 31:1 -> 9:1) ==")
	tb := report.NewTable("Workload", "peak:median (meas)", "paper")
	for _, name := range swim.Workloads() {
		rep := reports[name]
		paperVal := "9:1 .. 260:1 range"
		if p := paperTable1[name].p2m; p > 0 {
			paperVal = report.Ratio(p)
		}
		tb.AddRow(name, report.Ratio(rep.PeakToMedian), paperVal)
	}
	// The two sine references of the figure.
	for _, offset := range []float64{2, 20} {
		b, err := stats.Burstiness(stats.SineSeries(14*24, offset))
		if err != nil {
			return err
		}
		tb.AddRow(fmt.Sprintf("sine + %.0f", offset), fmt.Sprintf("%.2f:1", b.PeakToMedian), "reference")
	}
	return render(w, tb)
}

func figure9(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 9: hourly correlations (paper avgs: jobs-bytes 0.21, jobs-task 0.14, bytes-task 0.62) ==")
	tb := report.NewTable("Workload", "jobs-bytes", "jobs-task-s", "bytes-task-s")
	var sums [3]float64
	for _, name := range swim.Workloads() {
		c := reports[name].Correlations
		tb.AddRow(name,
			fmt.Sprintf("%.2f", c.JobsBytes),
			fmt.Sprintf("%.2f", c.JobsTaskSeconds),
			fmt.Sprintf("%.2f", c.BytesTaskSeconds))
		sums[0] += c.JobsBytes
		sums[1] += c.JobsTaskSeconds
		sums[2] += c.BytesTaskSeconds
	}
	n := float64(len(swim.Workloads()))
	tb.AddRow("average",
		fmt.Sprintf("%.2f", sums[0]/n),
		fmt.Sprintf("%.2f", sums[1]/n),
		fmt.Sprintf("%.2f", sums[2]/n))
	return render(w, tb)
}

func figure10(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Figure 10: job name first words (FB-2009 paper: ad 44%, insert 12% of jobs) ==")
	for _, name := range swim.Workloads() {
		na := reports[name].Names
		if na == nil {
			fmt.Fprintf(w, "%s: trace carries no job names\n", name)
			continue
		}
		fmt.Fprintf(w, "%s (top words by job count):\n", name)
		tb := report.NewTable("word", "% jobs", "% bytes", "% task-time")
		for i, g := range na.Groups {
			if i >= 5 && g.Word != "[others]" {
				continue
			}
			tb.AddRow(g.Word, report.Percent(g.JobsFraction),
				report.Percent(g.BytesFraction), report.Percent(g.TaskTimeFraction))
		}
		if err := render(w, tb); err != nil {
			return err
		}
	}
	return nil
}

func table2(w io.Writer, reports map[string]*swim.Report) error {
	fmt.Fprintln(w, "== Table 2: job types recovered by k-means (paper: small jobs > 90% everywhere) ==")
	for _, name := range swim.Workloads() {
		jc := reports[name].Clusters
		fmt.Fprintf(w, "%s (k=%d, small-job fraction %s):\n", name, jc.K, report.Percent(jc.SmallJobFraction))
		tb := report.NewTable("# Jobs", "Input", "Shuffle", "Output", "Duration", "Map t-s", "Reduce t-s", "Label")
		for _, jt := range jc.Types {
			tb.AddRow(fmt.Sprintf("%d", jt.Count),
				jt.Input.String(), jt.Shuffle.String(), jt.Output.String(),
				units.FormatDuration(jt.Duration),
				fmt.Sprintf("%.0f", float64(jt.MapTime)),
				fmt.Sprintf("%.0f", float64(jt.Reduce)),
				jt.Label)
		}
		if err := render(w, tb); err != nil {
			return err
		}
	}
	return nil
}

func swimScaleDown(w io.Writer, traces map[string]*swim.Trace, seed int64) error {
	fmt.Fprintln(w, "== SWIM scale-down (§7): FB-2009 window -> 1/10 cluster, fidelity ==")
	src := traces["FB-2009"]
	syn, fid, err := swim.ScaleDownFidelity(src, swim.SynthesizeOptions{
		TargetLength:   24 * time.Hour,
		SourceMachines: 600,
		TargetMachines: 60,
		Seed:           seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "source: %d jobs over %v; synthetic: %d jobs over %v\n",
		src.Len(), src.Meta.Length, syn.Len(), syn.Meta.Length)
	fmt.Fprintf(w, "fidelity: %v (target: worst excess <= 0, i.e. within sampling noise)\n\n", fid)
	return nil
}

func cacheAblation(w io.Writer, traces map[string]*swim.Trace) error {
	fmt.Fprintln(w, "== Cache policy ablation (§4 implications), CC-e input stream ==")
	tr := traces["CC-e"]
	results, err := swim.CompareCachePolicies(tr, 200*swim.GB, swim.GB)
	if err != nil {
		return err
	}
	tb := report.NewTable("Policy", "hit rate", "byte hit rate", "peak bytes")
	for _, r := range results {
		tb.AddRow(r.Policy, report.Percent(r.HitRate), report.Percent(r.ByteHitRate), r.PeakUsed.String())
	}
	return render(w, tb)
}

func schedulerAblation(w io.Writer, traces map[string]*swim.Trace, seed int64) error {
	fmt.Fprintln(w, "== Scheduler ablation (§6.2 small jobs vs big jobs), CC-b replay ==")
	tr := traces["CC-b"]
	tb := report.NewTable("Scheduler", "median latency", "mean latency", "p99 latency")
	for _, sched := range []swim.SchedulerKind{swim.SchedulerFIFO, swim.SchedulerFair} {
		res, err := swim.Replay(tr, swim.ReplayOptions{Scheduler: sched, Seed: seed})
		if err != nil {
			return err
		}
		tb.AddRow(res.Scheduler.String(),
			fmt.Sprintf("%.0fs", res.MedianLatency()),
			fmt.Sprintf("%.0fs", res.MeanLatency()),
			fmt.Sprintf("%.0fs", res.P99Latency()))
	}
	return render(w, tb)
}

// eraDrift reproduces the §4.1/§6.2 Facebook-evolution comparison: from
// 2009 to 2010 per-job inputs grew by orders of magnitude, outputs shrank,
// and job rate quadrupled.
func eraDrift(w io.Writer, traces map[string]*swim.Trace) error {
	fmt.Fprintln(w, "== Workload drift FB-2009 -> FB-2010 (paper: inputs grew, outputs shrank, job types changed) ==")
	d, err := swim.CompareEras(traces["FB-2009"], traces["FB-2010"])
	if err != nil {
		return err
	}
	tb := report.NewTable("dimension", "median shift (orders of magnitude)", "KS distance")
	tb.AddRow("input", fmt.Sprintf("%+.2f", d.InputMedianShift), fmt.Sprintf("%.2f", d.InputKS))
	tb.AddRow("shuffle", fmt.Sprintf("%+.2f", d.ShuffleMedianShift), fmt.Sprintf("%.2f", d.ShuffleKS))
	tb.AddRow("output", fmt.Sprintf("%+.2f", d.OutputMedianShift), fmt.Sprintf("%.2f", d.OutputKS))
	if err := render(w, tb); err != nil {
		return err
	}
	fmt.Fprintf(w, "job rate ratio: %.1fx (paper: 258 -> 1083 jobs/hr = 4.2x); drift significant: %v\n\n",
		d.JobRateRatio, d.Significant(0.2))
	return nil
}

// tieredAblation evaluates the §6.2 two-tier recommendation against a
// shared cluster on CC-b.
func tieredAblation(w io.Writer, traces map[string]*swim.Trace, seed int64) error {
	fmt.Fprintln(w, "== Two-tier cluster ablation (§6.2 performance/capacity split), CC-b at 40 nodes ==")
	tr := traces["CC-b"]
	shared, err := swim.Replay(tr, swim.ReplayOptions{Nodes: 40, Scheduler: swim.SchedulerFIFO, Seed: seed})
	if err != nil {
		return err
	}
	tiered, err := swim.ReplayTiered(tr, swim.TieredReplayOptions{
		Nodes: 40, PerformanceShare: 0.25, Seed: seed,
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("configuration", "median lat", "p99 lat")
	tb.AddRow("shared FIFO (all jobs)",
		fmt.Sprintf("%.0fs", shared.MedianLatency()),
		fmt.Sprintf("%.0fs", shared.P99Latency()))
	tb.AddRow("tiered, small jobs (25% perf tier)",
		fmt.Sprintf("%.0fs", tiered.Performance.MedianLatency()),
		fmt.Sprintf("%.0fs", tiered.P99SmallLatency()))
	tb.AddRow("tiered, large jobs (75% cap tier)",
		fmt.Sprintf("%.0fs", tiered.Capacity.MedianLatency()),
		fmt.Sprintf("%.0fs", tiered.Capacity.P99Latency()))
	return render(w, tb)
}

// workloadSuite runs the §7 benchmark-suite concept across diverse
// workloads on one 50-node target cluster.
func workloadSuite(w io.Writer, quick bool, seed int64) error {
	fmt.Fprintln(w, "== Workload suite (§7: a benchmark must be a suite, scored on multiple metrics) ==")
	workloads := []string{"CC-b", "CC-c", "CC-e", "FB-2009"}
	window := 7 * 24 * time.Hour
	if quick {
		window = 48 * time.Hour
	}
	res, err := swim.RunSuite(swim.SuiteConfig{
		Workloads:    workloads,
		SourceWindow: window,
		StreamLength: 24 * time.Hour,
		TargetNodes:  50,
		Scheduler:    swim.SchedulerFair,
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	tb := report.NewTable("workload", "jobs", "small p50", "small p99", "large p99", "mean util", "bytes/hr")
	for _, s := range res.Scores {
		tb.AddRow(s.Workload,
			fmt.Sprintf("%d", s.Jobs),
			fmt.Sprintf("%.0fs", s.SmallP50),
			fmt.Sprintf("%.0fs", s.SmallP99),
			fmt.Sprintf("%.0fs", s.LargeP99),
			report.Percent(s.MeanUtilization),
			s.BytesPerHour.String())
	}
	return render(w, tb)
}

// consolidation demonstrates the §5.2 multiplexing effect: merging the
// bursty CC workloads onto one logical cluster smooths the aggregate.
func consolidation(w io.Writer, traces map[string]*swim.Trace) error {
	fmt.Fprintln(w, "== Consolidation (§5.2: multiplexing decreases burstiness) ==")
	names := []string{"CC-a", "CC-b", "CC-d", "CC-e"}
	tb := report.NewTable("workload", "peak:median")
	var parts []*swim.Trace
	for _, name := range names {
		tr := traces[name]
		p2m, err := swim.PeakToMedian(tr)
		if err != nil {
			return err
		}
		tb.AddRow(name, report.Ratio(p2m))
		parts = append(parts, tr)
	}
	merged, err := swim.Consolidate("all-CC", parts...)
	if err != nil {
		return err
	}
	p2m, err := swim.PeakToMedian(merged)
	if err != nil {
		return err
	}
	tb.AddRow("consolidated", report.Ratio(p2m))
	return render(w, tb)
}

// parallelAnalysis measures the shard-parallel streaming analysis
// against the sequential pass on the largest generated trace, verifying
// the merge contract (identical report bytes) while timing the
// scatter/gather speedup.
func parallelAnalysis(w io.Writer, traces map[string]*swim.Trace, shards int) error {
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(w, "== Parallel analysis (mergeable section builders, K=%d shards) ==\n", shards)
	tr := traces["FB-2009"]
	analyze := func(k int) (*swim.Report, time.Duration, error) {
		start := time.Now()
		p, err := core.BuildTracePartial(tr, k, false)
		if err != nil {
			return nil, 0, err
		}
		rep, err := p.Report(0)
		return rep, time.Since(start), err
	}
	seq, seqDur, err := analyze(1)
	if err != nil {
		return err
	}
	par, parDur, err := analyze(shards)
	if err != nil {
		return err
	}
	var a, b bytes.Buffer
	if err := seq.WriteJSON(&a); err != nil {
		return err
	}
	if err := par.WriteJSON(&b); err != nil {
		return err
	}
	agree := "IDENTICAL"
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		agree = "DIVERGED (merge contract violated!)"
	}
	tb := report.NewTable("mode", "wall-clock", "report bytes")
	tb.AddRow("sequential (K=1)", seqDur.Round(time.Millisecond).String(), fmt.Sprintf("%d", a.Len()))
	tb.AddRow(fmt.Sprintf("parallel (K=%d)", shards), parDur.Round(time.Millisecond).String(), fmt.Sprintf("%d", b.Len()))
	if err := render(w, tb); err != nil {
		return err
	}
	fmt.Fprintf(w, "agreement: %s; speedup %.2fx on %d CPUs (%d jobs)\n\n",
		agree, float64(seqDur)/float64(parDur), runtime.GOMAXPROCS(0), tr.Len())
	return nil
}

func render(w io.Writer, tb *report.Table) error {
	if err := tb.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
