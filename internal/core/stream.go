package core

import (
	"fmt"

	"repro/internal/trace"
)

func errNeedsLength() error {
	return fmt.Errorf("core: streaming analysis needs metadata with a positive trace length (collect the trace and use Analyze for span-derived traces)")
}

// AnalyzeSource runs the measurement methodology over a streamed trace.
// It computes every analysis that does not need random access over the
// whole job set — the sections of Partial.Report:
//
//   - the Table-1 summary,
//   - Figure 1 data-size distributions (exact by default; fixed-memory
//     sketches with opts.SketchDataSizes),
//   - the Figures 7–9 hourly series with burstiness and correlations,
//   - the Figure 10 job-name breakdown.
//
// By default the stream is analyzed in a single sequential pass: memory
// is O(trace hours + name vocabulary), independent of job count (plus
// 24 B/job for exact Figure 1 unless opts.SketchDataSizes). With
// opts.Shards > 1 the stream is collected and analyzed shard-parallel —
// same report bytes, wall-clock divided across CPUs, at the cost of
// holding the job set in memory. Table-2 k-means and the path-based
// Figures 2–6 are left nil: collect the stream and run Analyze for them.
// The report's sections are identical to the same sections of Analyze on
// the collected trace, which finalizes the same partial aggregate.
func AnalyzeSource(src trace.Source, opts AnalyzeOptions) (*Report, error) {
	var p *Partial
	var err error
	switch {
	case opts.Shards <= 1:
		p, err = BuildPartial(src, opts.SketchDataSizes)
	case src.Meta().Length <= 0:
		err = errNeedsLength() // before the stream is drained
	default:
		var shards []trace.Source
		if shards, err = trace.Split(src, opts.Shards); err == nil {
			p, err = mergeShardPartials(shards, opts.SketchDataSizes)
		}
	}
	if err != nil {
		return nil, err
	}
	return p.Report(opts.TopNames)
}
