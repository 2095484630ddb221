package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/gen"
	"repro/internal/profile"
	"repro/internal/trace"
)

func genTrace(t *testing.T, name string, dur time.Duration) *trace.Trace {
	t.Helper()
	p, err := profile.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gen.Generate(gen.Config{Profile: p, Seed: 5, Duration: dur})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeCompleteWorkload(t *testing.T) {
	tr := genTrace(t, "CC-e", 7*24*time.Hour)
	rep, err := Analyze(tr, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataSizes == nil || rep.Series == nil || rep.Clusters == nil {
		t.Fatal("mandatory analyses missing")
	}
	if rep.InputAccess == nil || rep.OutputAccess == nil || rep.Reaccess == nil {
		t.Error("CC-e carries paths; access analyses should be present")
	}
	if rep.Names == nil {
		t.Error("CC-e carries names")
	}
	if rep.PeakToMedian <= 1 {
		t.Errorf("peak-to-median = %v", rep.PeakToMedian)
	}
	if rep.Summary.Jobs != tr.Len() {
		t.Errorf("summary jobs = %d, want %d", rep.Summary.Jobs, tr.Len())
	}
}

// TestAnalyzeFillsHeaderFromSpan: a trace whose header carries only its
// name, as a CSV round trip leaves it, analyzes as the same jobs under
// the header their span fills in — start at the first submit, length to
// the last finish — in Analyze and in BinHourly alike.
func TestAnalyzeFillsHeaderFromSpan(t *testing.T) {
	tr := genTrace(t, "CC-b", 48*time.Hour)
	var csv bytes.Buffer
	if err := trace.WriteCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	nameOnly, err := trace.ReadCSV(&csv, trace.Meta{Name: tr.Meta.Name})
	if err != nil {
		t.Fatal(err)
	}
	filled := &trace.Trace{Meta: nameOnly.Meta, Jobs: nameOnly.Jobs}
	start, end := nameOnly.Span()
	filled.Meta.Start, filled.Meta.Length = start, end.Sub(start)

	got, err := analysis.BinHourly(nameOnly)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.BinHourly(filled)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Start.Equal(want.Start) || !slices.Equal(got.Jobs, want.Jobs) || !slices.Equal(got.Bytes, want.Bytes) ||
		!slices.Equal(got.TaskSeconds, want.TaskSeconds) || !slices.Equal(got.TaskSecondsSpread, want.TaskSecondsSpread) {
		t.Errorf("BinHourly of the name-only header differs from the filled-in one: %d bins from %v, want %d from %v",
			got.Hours(), got.Start, want.Hours(), want.Start)
	}

	rep, err := Analyze(nameOnly, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := Analyze(filled, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := reportBytes(t, rep), reportBytes(t, wantRep); !bytes.Equal(a, b) {
		t.Errorf("Analyze of the name-only header differs from the filled-in one (first diff at byte %d of %d)", firstDiff(a, b), len(b))
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	if _, err := Analyze(trace.New(trace.Meta{Name: "x"}), AnalyzeOptions{}); err == nil {
		t.Error("empty trace should error")
	}
}

func TestReportRenderSections(t *testing.T) {
	tr := genTrace(t, "CC-b", 7*24*time.Hour)
	rep, err := Analyze(tr, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Workload CC-b", "Figure 1", "Figure 2", "Figure 3", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
		"Figure 10", "Table 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunStudySubset(t *testing.T) {
	st, err := RunStudy(StudyConfig{
		Window:    3 * 24 * time.Hour,
		Seed:      1,
		Workloads: []string{"CC-a", "CC-e"},
		Analyze:   AnalyzeOptions{SkipClustering: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Traces) != 2 || len(st.Reports) != 2 {
		t.Fatalf("study size: %d traces, %d reports", len(st.Traces), len(st.Reports))
	}
	for _, name := range []string{"CC-a", "CC-e"} {
		if st.Traces[name] == nil || st.Reports[name] == nil {
			t.Fatalf("missing %s", name)
		}
	}
}

func TestRunStudyUnknownWorkload(t *testing.T) {
	if _, err := RunStudy(StudyConfig{Workloads: []string{"nope"}}); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestStudyAggregate(t *testing.T) {
	st, err := RunStudy(StudyConfig{
		Window: 7 * 24 * time.Hour,
		Seed:   2,
		// A fast but diverse subset: tiny-job CC-b vs GB-job CC-c plus a
		// Facebook workload.
		Workloads: []string{"CC-b", "CC-c", "CC-e"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cw, err := st.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	// CC-b (KB medians) vs CC-c (GB medians): spans must be wide.
	if cw.InputSpan < 4 {
		t.Errorf("input span = %v, want >= 4 orders", cw.InputSpan)
	}
	// Figure 9 structure.
	if cw.AvgBytesTask <= cw.AvgJobsBytes || cw.AvgBytesTask <= cw.AvgJobsTask {
		t.Errorf("bytes-task corr %v should dominate %v / %v",
			cw.AvgBytesTask, cw.AvgJobsBytes, cw.AvgJobsTask)
	}
	// Burstiness range is ordered and positive.
	if cw.MinPeakToMedian <= 1 || cw.MaxPeakToMedian < cw.MinPeakToMedian {
		t.Errorf("burstiness range [%v, %v] malformed", cw.MinPeakToMedian, cw.MaxPeakToMedian)
	}
	// Small jobs dominate in each clustered workload (paper: >90%).
	for name, f := range cw.SmallJobFractions {
		if f < 0.85 {
			t.Errorf("%s small-job fraction %v < 0.85", name, f)
		}
	}
	if len(cw.SmallJobFractions) != 3 {
		t.Errorf("expected 3 small-job fractions, got %d", len(cw.SmallJobFractions))
	}
}

func TestAggregateEmptyStudy(t *testing.T) {
	st := &Study{}
	if _, err := st.Aggregate(); err == nil {
		t.Error("empty study should error")
	}
	st2 := &Study{Workloads: []string{"CC-a"}, Reports: map[string]*Report{"CC-a": nil}}
	st2.Reports = map[string]*Report{"x": {}}
	st2.Workloads = []string{"missing"}
	if _, err := st2.Aggregate(); err == nil {
		t.Error("missing report should error")
	}
}
