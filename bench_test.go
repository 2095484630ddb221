package swim

// One benchmark per table and figure of the paper's evaluation, plus the
// design-choice ablations called out in DESIGN.md. Each benchmark measures
// the cost of regenerating the experiment from a calibrated synthetic
// trace and reports the experiment's headline shape metric via
// b.ReportMetric, so `go test -bench=. -benchmem` both times the pipeline
// and re-derives the paper's numbers. cmd/swimbench prints the full
// tables; EXPERIMENTS.md records paper-vs-measured.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// benchWindow keeps benchmark traces small enough to iterate but long
// enough for weekly structure (Figures 7-9 need >= 1 week).
const benchWindow = 7 * 24 * time.Hour

var (
	benchTraces   = map[string]*Trace{}
	benchTracesMu sync.Mutex
)

// benchTrace memoizes generation so each benchmark times its analysis, not
// repeated trace synthesis.
func benchTrace(b *testing.B, workload string) *Trace {
	b.Helper()
	benchTracesMu.Lock()
	defer benchTracesMu.Unlock()
	if tr, ok := benchTraces[workload]; ok {
		return tr
	}
	tr, err := Generate(GenerateOptions{Workload: workload, Seed: 1, Duration: benchWindow})
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[workload] = tr
	return tr
}

// BenchmarkTable1_TraceSummary regenerates Table 1: per-workload job and
// byte totals from generated traces.
func BenchmarkTable1_TraceSummary(b *testing.B) {
	traces := make([]*Trace, 0, len(Workloads()))
	for _, name := range Workloads() {
		traces = append(traces, benchTrace(b, name))
	}
	b.ResetTimer()
	var jobs int
	for i := 0; i < b.N; i++ {
		jobs = 0
		for _, tr := range traces {
			s := tr.Summarize()
			jobs += s.Jobs
		}
	}
	b.ReportMetric(float64(jobs), "jobs")
}

// BenchmarkTable2_KMeansJobTypes regenerates Table 2 for CC-a: k-means job
// types with elbow k-selection. Reports the recovered small-job fraction
// (paper: > 0.90 for every workload).
func BenchmarkTable2_KMeansJobTypes(b *testing.B) {
	tr := benchTrace(b, "CC-a")
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		jc, err := analysis.ClusterJobs(tr, analysis.ClusterConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		frac = jc.SmallJobFraction
	}
	b.ReportMetric(frac, "small-job-frac")
}

// BenchmarkFigure1_DataSizeCDFs regenerates Figure 1: per-job input,
// shuffle, output size CDFs for all workloads, through the data-size
// builder. Reports the cross-workload median-input span in orders of
// magnitude (paper: 6).
func BenchmarkFigure1_DataSizeCDFs(b *testing.B) {
	traces := make([]*Trace, 0, len(Workloads()))
	runs := make([]*trace.Columns, 0, len(Workloads()))
	for _, name := range Workloads() {
		tr := benchTrace(b, name)
		traces = append(traces, tr)
		runs = append(runs, columnsOf(tr))
	}
	b.ResetTimer()
	var span float64
	for i := 0; i < b.N; i++ {
		all := make([]*analysis.DataSizes, 0, len(traces))
		for k, tr := range traces {
			db := analysis.NewDataSizeBuilder(tr.Meta.Name, false)
			db.ObserveColumns(runs[k])
			ds, err := db.Result()
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, ds)
		}
		span, _, _ = analysis.MedianSpanAcrossWorkloads(all)
	}
	b.ReportMetric(span, "input-median-span")
}

// columnsOf gathers a trace's jobs into one run of columns, the input
// the section builders fold.
func columnsOf(tr *Trace) *trace.Columns {
	var c trace.Columns
	for _, j := range tr.Jobs {
		c.Append(j)
	}
	return &c
}

// BenchmarkFigure2_AccessFrequencyZipf regenerates Figure 2 on FB-2010
// (the largest path-bearing workload). Reports the fitted Zipf exponent
// (paper: 5/6 ≈ 0.833).
func BenchmarkFigure2_AccessFrequencyZipf(b *testing.B) {
	tr := benchTrace(b, "FB-2010")
	b.ResetTimer()
	var alpha float64
	for i := 0; i < b.N; i++ {
		af, err := analysis.InputAccessFrequency(tr)
		if err != nil {
			b.Fatal(err)
		}
		alpha = af.Fit.Alpha
	}
	b.ReportMetric(alpha, "zipf-alpha")
}

// BenchmarkFigure3_InputFileSizeAccess regenerates Figure 3 on CC-d.
// Reports the 80-N rule (paper: N between 1 and 8).
func BenchmarkFigure3_InputFileSizeAccess(b *testing.B) {
	tr := benchTrace(b, "CC-d")
	b.ResetTimer()
	var rule float64
	for i := 0; i < b.N; i++ {
		sa, err := analysis.InputSizeAccess(tr)
		if err != nil {
			b.Fatal(err)
		}
		rule = sa.EightyRule()
	}
	b.ReportMetric(rule, "eighty-N")
}

// BenchmarkFigure4_OutputFileSizeAccess regenerates Figure 4 on CC-b.
func BenchmarkFigure4_OutputFileSizeAccess(b *testing.B) {
	tr := benchTrace(b, "CC-b")
	b.ResetTimer()
	var rule float64
	for i := 0; i < b.N; i++ {
		sa, err := analysis.OutputSizeAccess(tr)
		if err != nil {
			b.Fatal(err)
		}
		rule = sa.EightyRule()
	}
	b.ReportMetric(rule, "eighty-N")
}

// BenchmarkFigure5_ReaccessIntervals regenerates Figure 5 on CC-e.
// Reports the fraction of re-accesses within 6 hours (paper: ~0.75).
func BenchmarkFigure5_ReaccessIntervals(b *testing.B) {
	tr := benchTrace(b, "CC-e")
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		iv, err := analysis.Intervals(tr)
		if err != nil {
			b.Fatal(err)
		}
		frac = iv.FractionWithin(6 * time.Hour)
	}
	b.ReportMetric(frac, "within-6h")
}

// BenchmarkFigure6_ReaccessFractions regenerates Figure 6 on CC-c.
// Reports total re-access fraction (paper: up to ~0.78).
func BenchmarkFigure6_ReaccessFractions(b *testing.B) {
	tr := benchTrace(b, "CC-c")
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		rf, err := analysis.Reaccess(tr)
		if err != nil {
			b.Fatal(err)
		}
		frac = rf.InputReaccess + rf.OutputReaccess
	}
	b.ReportMetric(frac, "reaccess-frac")
}

// BenchmarkFigure7_WeeklyTimeSeries regenerates Figure 7's hourly series
// (submits, I/O, task-time) plus the utilization column via cluster
// replay for CC-e.
func BenchmarkFigure7_WeeklyTimeSeries(b *testing.B) {
	tr := benchTrace(b, "CC-e")
	b.ResetTimer()
	var util float64
	for i := 0; i < b.N; i++ {
		ts, err := analysis.BinHourly(tr)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ts.Week(0); err != nil {
			b.Fatal(err)
		}
		res, err := Replay(tr, ReplayOptions{Scheduler: SchedulerFair, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		util = res.HourlyOccupancy[0]
	}
	b.ReportMetric(util, "hour0-slots")
}

// BenchmarkFigure8_Burstiness regenerates Figure 8 across all workloads
// plus the sine references. Reports FB-2009's peak-to-median (paper: 31).
func BenchmarkFigure8_Burstiness(b *testing.B) {
	traces := make([]*Trace, 0, len(Workloads()))
	for _, name := range Workloads() {
		traces = append(traces, benchTrace(b, name))
	}
	fbIdx := 5 // FB-2009 position in Workloads() order
	b.ResetTimer()
	var fb float64
	for i := 0; i < b.N; i++ {
		for k, tr := range traces {
			ts, err := analysis.BinHourly(tr)
			if err != nil {
				b.Fatal(err)
			}
			curve, err := ts.BurstinessOf()
			if err != nil {
				b.Fatal(err)
			}
			if k == fbIdx {
				fb = curve.PeakToMedian
			}
		}
		for _, offset := range []float64{2, 20} {
			if _, err := stats.Burstiness(stats.SineSeries(7*24, offset)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(fb, "fb09-peak-to-median")
}

// BenchmarkFigure9_TimeSeriesCorrelation regenerates Figure 9 across all
// workloads. Reports the average bytes↔task-time correlation (paper: 0.62,
// the strongest pair).
func BenchmarkFigure9_TimeSeriesCorrelation(b *testing.B) {
	traces := make([]*Trace, 0, len(Workloads()))
	for _, name := range Workloads() {
		traces = append(traces, benchTrace(b, name))
	}
	b.ResetTimer()
	var avg float64
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, tr := range traces {
			ts, err := analysis.BinHourly(tr)
			if err != nil {
				b.Fatal(err)
			}
			c, err := ts.Correlate()
			if err != nil {
				b.Fatal(err)
			}
			sum += c.BytesTaskSeconds
		}
		avg = sum / float64(len(traces))
	}
	b.ReportMetric(avg, "bytes-task-corr")
}

// BenchmarkFigure10_JobNameAnalysis regenerates Figure 10 on FB-2009,
// through the names builder.
// Reports the top word's job share (paper: "ad" at 0.44).
func BenchmarkFigure10_JobNameAnalysis(b *testing.B) {
	tr := benchTrace(b, "FB-2009")
	run := columnsOf(tr)
	b.ResetTimer()
	var top float64
	for i := 0; i < b.N; i++ {
		nb := analysis.NewNamesBuilder(tr.Meta.Name)
		nb.ObserveColumns(run)
		na, err := nb.Result(8)
		if err != nil {
			b.Fatal(err)
		}
		top = na.Groups[0].JobsFraction
	}
	b.ReportMetric(top, "top-word-frac")
}

// BenchmarkSWIM_ScaleDownFidelity regenerates the §7 SWIM experiment:
// sample FB-2009 down to one day at 1/10 cluster scale and score fidelity.
// Reports the worst K-S excess over the sampling-noise floor (target <= 0).
func BenchmarkSWIM_ScaleDownFidelity(b *testing.B) {
	src := benchTrace(b, "FB-2009")
	b.ResetTimer()
	var excess float64
	for i := 0; i < b.N; i++ {
		syn, err := synth.Synthesize(src, synth.Config{
			TargetLength:   24 * time.Hour,
			SourceMachines: 600,
			TargetMachines: 60,
			Seed:           int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		fid, err := synth.Compare(src, syn)
		if err != nil {
			b.Fatal(err)
		}
		excess = fid.WorstExcess()
	}
	b.ReportMetric(excess, "worst-ks-excess")
}

// BenchmarkCachePolicies is the §4 ablation: LRU vs LFU vs FIFO vs
// size-threshold admission on CC-e's input stream. Reports the
// size-threshold policy's hit rate.
func BenchmarkCachePolicies(b *testing.B) {
	tr := benchTrace(b, "CC-e")
	b.ResetTimer()
	var hit float64
	for i := 0; i < b.N; i++ {
		results, err := cache.Compare(tr, []cache.Policy{
			cache.NewLRU(100 * GB),
			cache.NewLFU(100 * GB),
			cache.NewFIFO(100 * GB),
			cache.NewSizeThresholdLRU(100*GB, GB),
		})
		if err != nil {
			b.Fatal(err)
		}
		hit = results[3].HitRate
	}
	b.ReportMetric(hit, "sizethresh-hit-rate")
}

// BenchmarkReplaySchedulers is the §6 ablation: FIFO vs fair scheduling of
// the CC-b mix on the simulated cluster. Reports the fair-scheduler p99
// latency advantage (FIFO p99 / fair p99).
func BenchmarkReplaySchedulers(b *testing.B) {
	tr := benchTrace(b, "CC-b")
	b.ResetTimer()
	var advantage float64
	for i := 0; i < b.N; i++ {
		fifo, err := Replay(tr, ReplayOptions{Nodes: 75, Scheduler: SchedulerFIFO, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fair, err := Replay(tr, ReplayOptions{Nodes: 75, Scheduler: SchedulerFair, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if p := fair.P99Latency(); p > 0 {
			advantage = fifo.P99Latency() / p
		}
	}
	b.ReportMetric(advantage, "fifo/fair-p99")
}

// BenchmarkTieredCluster is the §6.2 extension ablation: the two-tier
// performance/capacity cluster vs a shared FIFO cluster on CC-b. Reports
// how many times faster the small-job p99 is under tiering.
func BenchmarkTieredCluster(b *testing.B) {
	tr := benchTrace(b, "CC-b")
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		shared, err := Replay(tr, ReplayOptions{Nodes: 40, Scheduler: SchedulerFIFO, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		tiered, err := ReplayTiered(tr, TieredReplayOptions{Nodes: 40, PerformanceShare: 0.25, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if p := tiered.P99SmallLatency(); p > 0 {
			speedup = shared.P99Latency() / p
		}
	}
	b.ReportMetric(speedup, "small-p99-speedup")
}

// BenchmarkEraDrift is the §4.1/§6.2 extension: FB-2009 vs FB-2010 drift.
// Reports the input median shift in orders of magnitude (paper: "several").
func BenchmarkEraDrift(b *testing.B) {
	fb09 := benchTrace(b, "FB-2009")
	fb10 := benchTrace(b, "FB-2010")
	b.ResetTimer()
	var shift float64
	for i := 0; i < b.N; i++ {
		d, err := CompareEras(fb09, fb10)
		if err != nil {
			b.Fatal(err)
		}
		shift = d.InputMedianShift
	}
	b.ReportMetric(shift, "input-shift-orders")
}

// BenchmarkWorkloadSuite is the §7 extension: the multi-workload benchmark
// suite on a 50-node target. Reports mean utilization of the first
// workload's stream.
func BenchmarkWorkloadSuite(b *testing.B) {
	b.ResetTimer()
	var util float64
	for i := 0; i < b.N; i++ {
		res, err := RunSuite(SuiteConfig{
			Workloads:    []string{"CC-e"},
			SourceWindow: 48 * time.Hour,
			StreamLength: 12 * time.Hour,
			TargetNodes:  50,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		util = res.Scores[0].MeanUtilization
	}
	b.ReportMetric(util, "mean-util")
}

// BenchmarkCacheOptimalityGap measures real policies against the
// clairvoyant upper bound on CC-e. Reports LRU hit rate as a fraction of
// optimal.
func BenchmarkCacheOptimalityGap(b *testing.B) {
	tr := benchTrace(b, "CC-e")
	b.ResetTimer()
	var frac float64
	for i := 0; i < b.N; i++ {
		results, err := CompareCachePoliciesWithOptimal(tr, 100*GB, GB)
		if err != nil {
			b.Fatal(err)
		}
		var lru, opt float64
		for _, r := range results {
			switch r.Policy {
			case "LRU":
				lru = r.HitRate
			case "Clairvoyant":
				opt = r.HitRate
			}
		}
		if opt > 0 {
			frac = lru / opt
		}
	}
	b.ReportMetric(frac, "lru/optimal")
}

// BenchmarkLocalityReplay measures the locality-aware replay of CC-e on a
// populated simulated DFS. Reports the achieved map-task locality rate.
func BenchmarkLocalityReplay(b *testing.B) {
	tr := benchTrace(b, "CC-e")
	p, err := WorkloadProfile("CC-e")
	if err != nil {
		b.Fatal(err)
	}
	fs, err := NewSimulatedFS(tr, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := ReplayWithLocality(tr, fs, ReplayOptions{
			Nodes: p.Machines, Scheduler: SchedulerFair, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.LocalityRate()
	}
	b.ReportMetric(rate, "locality-rate")
}

// BenchmarkConsolidation measures the §5.2 multiplexing experiment.
// Reports the smoothing factor: worst individual peak-to-median over the
// consolidated trace's.
func BenchmarkConsolidation(b *testing.B) {
	var parts []*Trace
	var worst float64
	for _, name := range []string{"CC-a", "CC-b", "CC-d", "CC-e"} {
		tr := benchTrace(b, name)
		p2m, err := PeakToMedian(tr)
		if err != nil {
			b.Fatal(err)
		}
		if p2m > worst {
			worst = p2m
		}
		parts = append(parts, tr)
	}
	b.ResetTimer()
	var smoothing float64
	for i := 0; i < b.N; i++ {
		merged, err := Consolidate("all-CC", parts...)
		if err != nil {
			b.Fatal(err)
		}
		p2m, err := PeakToMedian(merged)
		if err != nil {
			b.Fatal(err)
		}
		smoothing = worst / p2m
	}
	b.ReportMetric(smoothing, "smoothing-factor")
}

// BenchmarkGenerate measures raw trace synthesis throughput (jobs/op is
// implicit in the window; this is the substrate every experiment pays).
// The P=1 vs P=GOMAXPROCS variants quantify the sharded generator's
// speedup on a multi-week FB-2009 trace — the same seed produces the
// identical trace in every variant, so they time the same work.
func BenchmarkGenerate(b *testing.B) {
	const window = 3 * 7 * 24 * time.Hour
	pars := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pars = append(pars, n)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("P=%d", par), func(b *testing.B) {
			var jobs int
			for i := 0; i < b.N; i++ {
				tr, err := Generate(GenerateOptions{
					Workload:    "FB-2009",
					Seed:        1,
					Duration:    window,
					Parallelism: par,
				})
				if err != nil {
					b.Fatal(err)
				}
				if tr.Len() == 0 {
					b.Fatal("empty trace")
				}
				jobs = tr.Len()
			}
			b.ReportMetric(float64(jobs), "jobs")
		})
	}
}

// BenchmarkAnalyzeFull measures the full per-workload analysis suite
// (everything cmd/swimanalyze does) on a week of CC-c.
func BenchmarkAnalyzeFull(b *testing.B) {
	tr := benchTrace(b, "CC-c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(tr, AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
