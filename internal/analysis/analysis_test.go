package analysis

import (
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
	"repro/internal/units"
)

// genTrace memoizes generated traces across tests in this package — the
// analyses are read-only over them.
var traceCache = map[string]*trace.Trace{}

func genTrace(t testing.TB, name string, dur time.Duration, seed int64) *trace.Trace {
	t.Helper()
	key := name + dur.String() + string(rune(seed))
	if tr, ok := traceCache[key]; ok {
		return tr
	}
	p, err := profile.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: seed, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	traceCache[key] = tr
	return tr
}

func TestDataSizeCDFs(t *testing.T) {
	tr := genTrace(t, "CC-b", 72*time.Hour, 1)
	ds, err := dataSizeCDFs(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Input.Len() != tr.Len() || ds.Shuffle.Len() != tr.Len() || ds.Output.Len() != tr.Len() {
		t.Error("CDF sample sizes should equal job count")
	}
	// CC-b is dominated by tiny jobs (centroid 4.6 KB input): median input
	// must be in the KB range, far below the mean.
	med := ds.Input.Median()
	if med > 1e6 {
		t.Errorf("CC-b median input = %v bytes, want KB-scale", med)
	}
	if _, err := dataSizeCDFs(trace.New(trace.Meta{Name: "e"})); err == nil {
		t.Error("empty trace should error")
	}
}

func TestMedianSpanAcrossWorkloads(t *testing.T) {
	// Generate the two extremes: CC-b (KB-scale medians) and CC-c
	// (GB-scale medians); the cross-workload span should be several orders
	// of magnitude (paper: 6 for input).
	var all []*DataSizes
	for _, name := range []string{"CC-b", "CC-c", "CC-e", "FB-2010"} {
		ds, err := dataSizeCDFs(genTrace(t, name, 72*time.Hour, 2))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ds)
	}
	in, _, out := MedianSpanAcrossWorkloads(all)
	if in < 4 {
		t.Errorf("median input span = %v orders, want >= 4 (paper: 6)", in)
	}
	if out < 1 {
		t.Errorf("median output span = %v orders, want >= 1 (paper: 4)", out)
	}
}

func TestInputAccessFrequencyZipf(t *testing.T) {
	tr := genTrace(t, "CC-c", 14*24*time.Hour, 3)
	af, err := InputAccessFrequency(tr)
	if err != nil {
		t.Fatal(err)
	}
	if af.DistinctFiles < 100 {
		t.Fatalf("only %d distinct files", af.DistinctFiles)
	}
	if af.Fit.Ranks < 10 {
		t.Fatalf("Zipf fit covered only %d ranks", af.Fit.Ranks)
	}
	// Paper: slope ≈ 5/6 ≈ 0.83; accept the neighborhood since the fit is
	// over a finite synthetic population.
	if af.Fit.Alpha < 0.4 || af.Fit.Alpha > 1.4 {
		t.Errorf("Zipf alpha = %v, want ~0.83 (paper: 5/6)", af.Fit.Alpha)
	}
	// "approximately straight lines": strong log-log linearity.
	if af.Fit.R2 < 0.8 {
		t.Errorf("log-log R2 = %v, want > 0.8", af.Fit.R2)
	}
	// Frequencies sorted descending.
	for i := 1; i < len(af.Frequencies); i++ {
		if af.Frequencies[i] > af.Frequencies[i-1] {
			t.Fatal("frequencies not sorted")
		}
	}
}

func TestOutputAccessFrequency(t *testing.T) {
	tr := genTrace(t, "CC-d", 7*24*time.Hour, 4)
	af, err := OutputAccessFrequency(tr)
	if err != nil {
		t.Fatal(err)
	}
	if af.DistinctFiles < 10 {
		t.Errorf("only %d distinct output files", af.DistinctFiles)
	}
}

func TestAccessFrequencyNoPathsErrors(t *testing.T) {
	tr := genTrace(t, "FB-2009", 24*time.Hour, 5) // no paths in FB-2009
	if _, err := InputAccessFrequency(tr); err == nil {
		t.Error("FB-2009 should have no path data")
	}
}

func TestInputSizeAccessEightyRule(t *testing.T) {
	tr := genTrace(t, "CC-c", 14*24*time.Hour, 6)
	sa, err := InputSizeAccess(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §4.2: 80% of jobs go to less than 10% of stored bytes
	// (80-1 to 80-8 rules).
	rule := sa.EightyRule()
	if rule > 25 {
		t.Errorf("80-N rule: N = %v%%, want small (paper: 1-8%%)", rule)
	}
	// 90% of jobs access files smaller than a few GB.
	q90 := sa.JobsCDF.Quantile(0.9)
	if q90 > 100e9 {
		t.Errorf("90th pct accessed file size = %v, want < ~tens of GB", q90)
	}
	// Bytes CDF monotone, ends at 1.
	last := sa.BytesCDF[len(sa.BytesCDF)-1]
	if last.Y < 0.999 {
		t.Errorf("bytes CDF ends at %v, want 1", last.Y)
	}
	for i := 1; i < len(sa.BytesCDF); i++ {
		if sa.BytesCDF[i].Y < sa.BytesCDF[i-1].Y || sa.BytesCDF[i].X <= sa.BytesCDF[i-1].X {
			t.Fatal("bytes CDF not monotone")
		}
	}
	if sa.BytesFractionAt(0) != 0 {
		t.Error("BytesFractionAt(0) should be 0")
	}
}

func TestOutputSizeAccess(t *testing.T) {
	tr := genTrace(t, "CC-b", 7*24*time.Hour, 7)
	sa, err := OutputSizeAccess(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sa.DistinctFiles == 0 || sa.TotalStored == 0 {
		t.Error("expected output files")
	}
	fb := genTrace(t, "FB-2010", 4*time.Hour, 7)
	if _, err := OutputSizeAccess(fb); err == nil {
		t.Error("FB-2010 has no output paths; should error")
	}
}

func TestReaccessFractions(t *testing.T) {
	for _, c := range []struct {
		name    string
		minFrac float64
	}{
		{"CC-c", 0.5}, {"CC-d", 0.5}, {"CC-e", 0.5}, {"CC-b", 0.1},
	} {
		tr := genTrace(t, c.name, 7*24*time.Hour, 8)
		rf, err := Reaccess(tr)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		total := rf.InputReaccess + rf.OutputReaccess
		if total < c.minFrac {
			t.Errorf("%s: total re-access fraction %v, want >= %v", c.name, total, c.minFrac)
		}
		if total > 0.95 {
			t.Errorf("%s: implausible re-access fraction %v", c.name, total)
		}
		if !rf.OutputObservable {
			t.Errorf("%s should carry output paths", c.name)
		}
	}
	// FB-2010: input paths only — output reuse not observable.
	fb := genTrace(t, "FB-2010", 4*time.Hour, 8)
	rf, err := Reaccess(fb)
	if err != nil {
		t.Fatal(err)
	}
	if rf.OutputObservable {
		t.Error("FB-2010 output paths should be unobservable")
	}
	if rf.OutputReaccess != 0 {
		t.Error("FB-2010 output re-access should be 0 (unobservable)")
	}
}

func TestIntervalsTemporalLocality(t *testing.T) {
	tr := genTrace(t, "CC-e", 7*24*time.Hour, 9)
	iv, err := Intervals(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: "75% of the re-accesses take place within 6 hours". Check a
	// relaxed version of the shape: a clear majority within 6 hours.
	frac := iv.FractionWithin(6 * time.Hour)
	if frac < 0.5 {
		t.Errorf("re-accesses within 6h = %v, want majority (paper: 0.75)", frac)
	}
	if iv.OutputInput == nil {
		t.Error("CC-e should have output->input intervals")
	}
	// No-path trace errors.
	fb09 := genTrace(t, "FB-2009", 24*time.Hour, 9)
	if _, err := Intervals(fb09); err == nil {
		t.Error("FB-2009 should error (no paths)")
	}
}

func TestBinHourlyAndWeek(t *testing.T) {
	tr := genTrace(t, "CC-b", 9*24*time.Hour, 10)
	ts, err := BinHourly(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Hours() < 9*24 {
		t.Fatalf("hours = %d, want >= 216", ts.Hours())
	}
	var jobsSum float64
	for _, v := range ts.Jobs {
		jobsSum += v
	}
	if int(jobsSum) != tr.Len() {
		t.Errorf("binned jobs = %v, trace has %d", jobsSum, tr.Len())
	}
	week, err := ts.Week(0)
	if err != nil {
		t.Fatal(err)
	}
	if week.Hours() != 7*24 {
		t.Errorf("week hours = %d", week.Hours())
	}
	if _, err := ts.Week(5); err == nil {
		t.Error("week beyond trace should error")
	}
	if _, err := ts.Week(-1); err == nil {
		t.Error("negative week should error")
	}
	if _, err := BinHourly(trace.New(trace.Meta{Name: "e"})); err == nil {
		t.Error("empty trace should error")
	}
}

func TestBurstinessOrdering(t *testing.T) {
	// FB-2010 multiplexes many organizations: the paper reports its
	// peak-to-median fell to 9:1 vs FB-2009's 31:1, with CC workloads
	// ranging up to 260:1. Check the ordering FB-2010 < CC-a.
	fb10, err := BinHourly(genTrace(t, "FB-2010", 14*24*time.Hour, 11))
	if err != nil {
		t.Fatal(err)
	}
	cca, err := BinHourly(genTrace(t, "CC-a", 14*24*time.Hour, 11))
	if err != nil {
		t.Fatal(err)
	}
	bFB, err := fb10.BurstinessOf()
	if err != nil {
		t.Fatal(err)
	}
	bCC, err := cca.BurstinessOf()
	if err != nil {
		t.Fatal(err)
	}
	if bFB.PeakToMedian >= bCC.PeakToMedian {
		t.Errorf("FB-2010 peak/median %v should be far below CC-a %v",
			bFB.PeakToMedian, bCC.PeakToMedian)
	}
	if bFB.PeakToMedian < 2 || bFB.PeakToMedian > 100 {
		t.Errorf("FB-2010 peak/median = %v, want O(10)", bFB.PeakToMedian)
	}
	if bCC.PeakToMedian < 20 {
		t.Errorf("CC-a peak/median = %v, want large (paper: up to 260)", bCC.PeakToMedian)
	}
}

func TestCorrelationsShape(t *testing.T) {
	// Figure 9's key finding: bytes <-> task-time correlation is by far the
	// strongest of the three pairs.
	ts, err := BinHourly(genTrace(t, "FB-2010", 14*24*time.Hour, 12))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ts.Correlate()
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesTaskSeconds <= c.JobsBytes || c.BytesTaskSeconds <= c.JobsTaskSeconds {
		t.Errorf("bytes-tasktime corr %v should dominate jobs-bytes %v and jobs-tasktime %v",
			c.BytesTaskSeconds, c.JobsBytes, c.JobsTaskSeconds)
	}
	if c.BytesTaskSeconds < 0.3 {
		t.Errorf("bytes-tasktime corr = %v, want strong (paper avg: 0.62)", c.BytesTaskSeconds)
	}
}

func TestDiurnalStrengthsComputed(t *testing.T) {
	ts, err := BinHourly(genTrace(t, "FB-2010", 14*24*time.Hour, 13))
	if err != nil {
		t.Fatal(err)
	}
	jobs, bytes, tasks, err := ts.DiurnalStrengths()
	if err != nil {
		t.Fatal(err)
	}
	if jobs <= 0 || bytes <= 0 || tasks <= 0 {
		t.Error("diurnal strengths should be positive")
	}
	// FB-2010 has the strongest configured diurnal; its job-submission
	// series should show clear daily periodicity.
	if jobs < 1.5 {
		t.Errorf("FB-2010 diurnal strength = %v, want visible (> 1.5)", jobs)
	}
}

func TestFirstWord(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"INSERT overwrite table x(Stage-1)", "insert"},
		{"PigLatin:job_000123-4", "piglatin"},
		{"oozie:launcher:T=map-reduce:W=wf-00001", "oozie"},
		{"ad_hoc_query 12", "ad"},
		{"123start now", "start"},
		{"", ""},
		{"...", ""},
		{"Ad4Clicks", "ad"},
	}
	for _, c := range cases {
		if got := FirstWord(c.in); got != c.want {
			t.Errorf("FirstWord(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestJobNames(t *testing.T) {
	tr := genTrace(t, "FB-2009", 72*time.Hour, 14)
	na, err := jobNames(tr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(na.Groups) == 0 {
		t.Fatal("no name groups")
	}
	// "the top handful of words account for a dominant majority of jobs"
	if frac := na.TopKJobsFraction(5); frac < 0.6 {
		t.Errorf("top-5 words cover %v of jobs, want dominant majority", frac)
	}
	// FB-2009: 'ad' should be the most frequent first word (~44%).
	if na.Groups[0].Word != "ad" {
		t.Errorf("top word = %q, want ad", na.Groups[0].Word)
	}
	if na.Groups[0].JobsFraction < 0.3 || na.Groups[0].JobsFraction > 0.6 {
		t.Errorf("ad fraction = %v, want ~0.44", na.Groups[0].JobsFraction)
	}
	// Fractions sum to ~1 with [others].
	var sum float64
	for _, g := range na.Groups {
		sum += g.JobsFraction
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("jobs fractions sum to %v", sum)
	}
	// Data-centric words dominate the bytes panel: 'from' should carry a
	// far higher bytes share than jobs share (paper: 27% of I/O from 'from'
	// jobs).
	var fromGroup *NameGroup
	for i := range na.Groups {
		if na.Groups[i].Word == "from" {
			fromGroup = &na.Groups[i]
		}
	}
	if fromGroup == nil {
		t.Fatal("no 'from' group in FB-2009 names")
	}
	if fromGroup.BytesFraction < fromGroup.JobsFraction {
		t.Errorf("'from' bytes share %v should exceed jobs share %v",
			fromGroup.BytesFraction, fromGroup.JobsFraction)
	}
	// FB-2010 has no names.
	if _, err := jobNames(genTrace(t, "FB-2010", 4*time.Hour, 14), 5); err == nil {
		t.Error("FB-2010 should error (no names)")
	}
}

func TestClusterJobsRecoversStructure(t *testing.T) {
	tr := genTrace(t, "CC-a", 14*24*time.Hour, 15)
	jc, err := ClusterJobs(tr, ClusterConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if jc.K < 2 {
		t.Errorf("k = %d, want >= 2 for CC-a's 4-cluster mixture", jc.K)
	}
	// Small jobs dominate (paper: >90% in every workload).
	if jc.SmallJobFraction < 0.85 {
		t.Errorf("small-job fraction = %v, want > 0.85", jc.SmallJobFraction)
	}
	if jc.Types[0].Label != "Small jobs" {
		t.Errorf("dominant cluster label = %q, want Small jobs", jc.Types[0].Label)
	}
	// Counts should roughly sum to the trace size.
	total := 0
	for _, jt := range jc.Types {
		total += jt.Count
	}
	if total < tr.Len()*9/10 || total > tr.Len()*11/10 {
		t.Errorf("cluster counts sum to %d, trace has %d", total, tr.Len())
	}
}

func TestClusterJobsSampling(t *testing.T) {
	tr := genTrace(t, "CC-b", 7*24*time.Hour, 16)
	jc, err := ClusterJobs(tr, ClusterConfig{Seed: 2, MaxJobs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, jt := range jc.Types {
		total += jt.Count
	}
	// Counts are rescaled to the full trace.
	if total < tr.Len()*8/10 || total > tr.Len()*12/10 {
		t.Errorf("rescaled counts sum to %d, trace has %d", total, tr.Len())
	}
}

func TestClusterJobsErrors(t *testing.T) {
	tr := trace.New(trace.Meta{Name: "x"})
	if _, err := ClusterJobs(tr, ClusterConfig{}); err == nil {
		t.Error("empty trace should error")
	}
}

func TestLabelJobType(t *testing.T) {
	cases := []struct {
		jt   JobType
		want string
	}{
		{JobType{Input: 50 * units.MB, Duration: 30 * time.Second}, "Small jobs"},
		{JobType{Input: units.Bytes(1.2e12), Output: 27 * units.GB, Duration: 2 * time.Hour, MapTime: 400000}, "Map only, huge"},
		{JobType{Input: 50 * units.GB, Output: 60 * units.GB, Duration: 8 * time.Hour, MapTime: 60000}, "Map only transform, 8 hrs"},
		{JobType{Input: 3 * units.TB, Output: 200, Duration: 5 * time.Minute, MapTime: 137077}, "Map only summary, 5 min"},
		{JobType{Input: 633 * units.GB, Shuffle: units.Bytes(2.9e12), Output: 332 * units.GB, Duration: 11 * time.Minute, MapTime: 1, Reduce: 1}, "Expand and aggregate"},
		{JobType{Input: 4700 * units.GB, Shuffle: 374 * units.MB, Output: 24 * units.MB, Duration: 9 * time.Minute, MapTime: 1, Reduce: 1}, "Aggregate, 9 min"},
		{JobType{Input: 166 * units.GB, Shuffle: 180 * units.GB, Output: 118 * units.GB, Duration: 31 * time.Minute, MapTime: 1, Reduce: 1}, "Transform, 31 min"},
		{JobType{Input: 273 * units.GB, Shuffle: 185 * units.GB, Output: 21 * units.MB, Duration: 4 * time.Hour, MapTime: 1, Reduce: 1}, "Transform and aggregate"},
	}
	for _, c := range cases {
		if got := labelJobType(c.jt); got != c.want {
			t.Errorf("labelJobType(%+v) = %q, want %q", c.jt, got, c.want)
		}
	}
}

func TestCompareMixturesIdentity(t *testing.T) {
	tr := genTrace(t, "CC-a", 7*24*time.Hour, 17)
	jc, err := ClusterJobs(tr, ClusterConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d := CompareMixtures(jc, jc); d != 0 {
		t.Errorf("self-distance = %v, want 0", d)
	}
}
