package swim

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// Re-exported analysis result types.
type (
	// DataSizes holds the per-job input/shuffle/output CDFs (Figure 1).
	DataSizes = analysis.DataSizes
	// AccessFrequency is the Zipf rank-frequency analysis (Figure 2).
	AccessFrequency = analysis.AccessFrequency
	// SizeAccess relates jobs and stored bytes to file size (Figures 3-4).
	SizeAccess = analysis.SizeAccess
	// ReaccessIntervals holds temporal-locality CDFs (Figure 5).
	ReaccessIntervals = analysis.ReaccessIntervals
	// ReaccessFractions counts jobs re-reading pre-existing data (Figure 6).
	ReaccessFractions = analysis.ReaccessFractions
	// TimeSeries is the hourly-binned workload view (Figures 7-9).
	TimeSeries = analysis.TimeSeries
	// Correlations holds the pairwise hourly correlations (Figure 9).
	Correlations = analysis.Correlations
	// NameAnalysis is the job-name first-word breakdown (Figure 10).
	NameAnalysis = analysis.NameAnalysis
	// JobClusters is the recovered job-type table (Table 2).
	JobClusters = analysis.JobClusters
	// ClusterConfig tunes the Table-2 clustering.
	ClusterConfig = analysis.ClusterConfig

	// Report bundles every analysis of the paper that applies to one
	// trace; see core.Report for field semantics.
	Report = core.Report
	// AnalyzeOptions tunes Analyze.
	AnalyzeOptions = core.AnalyzeOptions

	// Study is a cross-industry comparison over several workloads.
	Study = core.Study
	// StudyConfig controls RunStudy.
	StudyConfig = core.StudyConfig
	// CrossWorkload aggregates study-level findings (median spans,
	// correlation averages, burstiness extremes, small-job fractions).
	CrossWorkload = core.CrossWorkload
)

// Analyze runs the full measurement methodology of the paper over a trace
// and returns every figure and table that the trace's fields permit.
// Fields of the Report are nil when the trace lacks the required data
// (paths, names), mirroring the per-workload gaps in the original study.
func Analyze(t *Trace, opts AnalyzeOptions) (*Report, error) {
	return core.Analyze(t, opts)
}

// AnalyzeSource runs the streaming analysis over a job stream: the
// Table-1 summary, Figure 1 data sizes, the Figures 7–9 hourly series,
// and the Figure 10 name breakdown. By default it is a single
// sequential pass in memory independent of trace length; with
// opts.Shards > 1 the stream is collected and analyzed shard-parallel,
// producing bytes identical to the sequential report at any shard count
// (see core.AnalyzeSource for the exact contract).
func AnalyzeSource(src Source, opts AnalyzeOptions) (*Report, error) {
	return core.AnalyzeSource(src, opts)
}

// AnalyzeFrom streams a trace file through AnalyzeSource without loading
// it into memory — the companion to GenerateTo for paper-length traces.
// CSV files need meta supplied; it is ignored for JSONL. For the
// analyses that need the whole trace, LoadTrace and Analyze instead.
func AnalyzeFrom(path string, meta Meta, opts AnalyzeOptions) (*Report, error) {
	src, err := OpenTrace(path, meta)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return core.AnalyzeSource(src, opts)
}

// RunStudy generates and analyzes every requested workload, reproducing
// the paper's cross-industry comparison; Aggregate() on the result yields
// the summary-section numbers (median spans, correlation averages,
// burstiness range, small-job dominance).
func RunStudy(cfg StudyConfig) (*Study, error) {
	return core.RunStudy(cfg)
}
