package core

import (
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/trace"
)

// Partial is the mergeable partial aggregate behind every streamed
// report: the Table-1 summary accumulator, the Figure 1 data-size
// builder, the Figures 7–9 hourly series builder, and the Figure 10
// name builder, bundled under one Observe/Merge/Report lifecycle.
//
// The merge contract: Observe-ing a job stream in shards and Merge-ing
// the shard partials — in any grouping — produces a Report() whose
// JSON() bytes are identical to observing the whole stream in one
// sequential partial. Counts and byte totals accumulate in integers,
// fractional task-time in exact sums (stats.ExactSum), and histogram
// bins in integers, so there is no floating-point order dependence to
// break that guarantee. The shard-parallel analysis path and the
// serving layer's ingest-time aggregation are both built on it.
//
// A partial that will be shared (the store's frozen per-trace
// aggregates) is frozen once, where it is published, and treated as
// immutable from then on: Report is read-only and safe to call
// concurrently, Observe, Freeze and merging INTO the partial are not.
type Partial struct {
	meta   trace.Meta
	sketch bool
	n      int
	sum    *trace.SummaryAccumulator
	ds     *analysis.DataSizeBuilder
	ts     *analysis.TimeSeriesBuilder
	nb     *analysis.NamesBuilder
}

// NewPartial starts an empty partial aggregate for a trace with the
// given metadata. The metadata must carry a positive length (hourly
// binning needs the horizon up front); sketch selects fixed-memory
// quantile sketches for Figure 1, as AnalyzeOptions.SketchDataSizes
// does.
func NewPartial(meta trace.Meta, sketch bool) (*Partial, error) {
	if meta.Length <= 0 {
		return nil, errNeedsLength()
	}
	tsb, err := analysis.NewTimeSeriesBuilder(meta.Name, meta.Start, meta.Length)
	if err != nil {
		return nil, err
	}
	return &Partial{
		meta:   meta,
		sketch: sketch,
		sum:    trace.NewSummaryAccumulator(meta),
		ds:     analysis.NewDataSizeBuilder(meta.Name, sketch),
		ts:     tsb,
		nb:     analysis.NewNamesBuilder(meta.Name),
	}, nil
}

// Observe folds one job into every section builder.
func (p *Partial) Observe(j *trace.Job) {
	p.n++
	p.sum.Observe(j)
	p.ds.Observe(j)
	p.ts.Observe(j)
	p.nb.Observe(j)
}

// ObserveColumns folds a run of jobs held as columns — a decoded colseg
// block's kept rows — into every section builder, in row order, without
// materializing a job. The partial reports exactly the bytes Observe-ing
// the same jobs gives. The task-time exact sums accumulate per call in
// block-local accumulators, so their expansions, and with them the
// snapshot bytes, differ from a per-job build's; partials built this way
// snapshot identically to each other when built from the same runs.
func (p *Partial) ObserveColumns(c *trace.Columns) {
	p.n += c.Len()
	p.sum.ObserveColumns(c)
	p.ds.ObserveColumns(c)
	p.ts.ObserveColumns(c)
	p.nb.ObserveColumns(c)
}

// Jobs returns the number of jobs observed (including merged-in ones).
func (p *Partial) Jobs() int { return p.n }

// Meta returns the trace metadata the partial was built for.
func (p *Partial) Meta() trace.Meta { return p.meta }

// Sketch reports whether Figure 1 accumulates in sketch mode.
func (p *Partial) Sketch() bool { return p.sketch }

// Freeze readies the partial for sharing: it sorts the exact Figure 1
// values observed since the last Freeze into a new immutable run
// (merging runs of similar size into fresh ones, see
// analysis.DataSizeBuilder), so every Report wraps the runs without
// copying or sorting and a Merge of two frozen partials is a linear
// merge. It is a no-op in sketch mode and on a frozen partial. Observe
// after Freeze is allowed on a private partial (the live-append session
// refreezes every batch, at O(batch log N)); it never disturbs Reports
// or clones taken before. The builders themselves never freeze.
func (p *Partial) Freeze() { p.ds.Freeze() }

// Merge folds other partials into this one. All must describe the same
// trace metadata and Figure 1 mode; section builders enforce their own
// agreement contracts. The arguments are not modified and share no
// memory with the receiver afterwards, so shared frozen partials can be
// merged into a fresh receiver (NewPartial). If the receiver and every
// argument are frozen, their sorted Figure 1 columns merge linearly into
// columns reserved once for all of them, and the result is frozen too.
func (p *Partial) Merge(os ...*Partial) error {
	ds := make([]*analysis.DataSizeBuilder, len(os))
	for i, o := range os {
		if p.sketch != o.sketch {
			return fmt.Errorf("core: cannot merge exact and sketch partial aggregates")
		}
		if err := p.sum.Merge(o.sum); err != nil {
			return err
		}
		if err := p.ts.Merge(o.ts); err != nil {
			return err
		}
		if err := p.nb.Merge(o.nb); err != nil {
			return err
		}
		ds[i] = o.ds
		p.n += o.n
	}
	return p.ds.Merge(ds...)
}

// Report finalizes the aggregate into the streamed-analysis report:
// Table 1, Figure 1, Figures 7–9 with burstiness and correlations, and
// Figure 10 (topNames words; 0 means the default 8). Finalization is
// read-only — a frozen partial can serve concurrent Report calls — and
// repeatable. The returned report shares the partial's distribution
// state in sketch mode and, on a frozen partial, its immutable sorted
// runs; callers must not mutate it, nor Observe into a sketch-mode
// partial while the report is in use. An unfrozen exact partial copies
// and sorts its columns on every call.
func (p *Partial) Report(topNames int) (*Report, error) {
	if p.n == 0 {
		return nil, fmt.Errorf("core: cannot analyze an empty trace")
	}
	if topNames == 0 {
		topNames = 8
	}
	rep := &Report{Summary: p.sum.Summary()}
	ds, err := p.ds.Result()
	if err != nil {
		return nil, err
	}
	rep.DataSizes = ds
	series := p.ts.Series()
	rep.Series = series
	if b, err := series.BurstinessOf(); err == nil {
		rep.PeakToMedian = b.PeakToMedian
	}
	if c, err := series.Correlate(); err == nil {
		rep.Correlations = c
	}
	if na, err := p.nb.Result(topNames); err == nil {
		rep.Names = na
	}
	return rep, nil
}

// BuildPartial drains a job stream into a fresh partial aggregate.
func BuildPartial(src trace.Source, sketch bool) (*Partial, error) {
	p, err := NewPartial(src.Meta(), sketch)
	if err != nil {
		return nil, err
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			return p, nil
		}
		if err != nil {
			return nil, err
		}
		p.Observe(j)
	}
}
