package trace

import (
	"fmt"
	"io"
	"time"
)

// The streaming layer: a Trace held fully in memory is convenient for the
// random-access analyses (k-means clustering, file-popularity maps), but
// the paper's traces are months long — FB-2009 alone spans six months and
// >1.1M jobs — and holding every record defeats production-scale runs.
// Source and Sink are the job-stream contract the generator, the codecs,
// and the streaming analyses share: jobs flow one at a time, in submit
// order, with the Table-1 metadata known up front.

// Source yields the jobs of one workload trace in submit order. Next
// returns io.EOF after the final job. Implementations are not safe for
// concurrent use.
type Source interface {
	// Meta returns the trace metadata. For formats that carry no
	// metadata (CSV), it is whatever the caller supplied at open time.
	Meta() Meta
	// Next returns the next job, or (nil, io.EOF) when the stream is
	// exhausted. The returned Job is owned by the caller.
	Next() (*Job, error)
}

// Sink receives the jobs of one workload trace in submit order. Begin is
// called exactly once, before the first Write. Implementations that
// buffer (file writers) expose a Close/Flush of their own; Sink itself is
// only the per-job hot path.
type Sink interface {
	Begin(meta Meta) error
	Write(j *Job) error
}

// SliceSource adapts an in-memory Trace to the Source interface.
type SliceSource struct {
	t *Trace
	i int
}

// NewSliceSource returns a Source yielding t's jobs in stored order.
func NewSliceSource(t *Trace) *SliceSource { return &SliceSource{t: t} }

// Meta returns the trace metadata.
func (s *SliceSource) Meta() Meta { return s.t.Meta }

// Next yields the next job or io.EOF.
func (s *SliceSource) Next() (*Job, error) {
	if s.i >= len(s.t.Jobs) {
		return nil, io.EOF
	}
	j := s.t.Jobs[s.i]
	s.i++
	return j, nil
}

// WindowSource filters an underlying Source to the jobs submitted in
// [from, to) — the exact-boundary pass over a scan the storage layer
// has already pruned conservatively at segment and block granularity.
// Meta reports the window's own metadata (start = from, length =
// to−from), so downstream partial builders bin relative to the window.
// Close forwards to the underlying source when it has one.
type WindowSource struct {
	src      Source
	meta     Meta
	from, to int64 // UnixNano bounds
}

// NewWindowSource wraps src with the [from, to) submit-time filter,
// presenting meta as the stream's metadata.
func NewWindowSource(src Source, meta Meta, from, to time.Time) *WindowSource {
	return &WindowSource{src: src, meta: meta, from: from.UnixNano(), to: to.UnixNano()}
}

// Meta returns the window's metadata.
func (w *WindowSource) Meta() Meta { return w.meta }

// Next yields the next in-window job or io.EOF.
func (w *WindowSource) Next() (*Job, error) {
	for {
		j, err := w.src.Next()
		if err != nil {
			return nil, err
		}
		ns := j.SubmitTime.UnixNano()
		if ns >= w.from && ns < w.to {
			return j, nil
		}
	}
}

// Close abandons the underlying stream when it is closable.
func (w *WindowSource) Close() error {
	if cl, ok := w.src.(io.Closer); ok {
		return cl.Close()
	}
	return nil
}

// CollectSink materializes a streamed trace. The zero value is ready to
// use; Trace() returns the accumulated result.
type CollectSink struct {
	t *Trace
}

// Begin records the metadata.
func (c *CollectSink) Begin(meta Meta) error {
	c.t = New(meta)
	return nil
}

// Write appends the job.
func (c *CollectSink) Write(j *Job) error {
	if c.t == nil {
		c.t = New(Meta{})
	}
	c.t.Add(j)
	return nil
}

// Trace returns the collected trace (never nil).
func (c *CollectSink) Trace() *Trace {
	if c.t == nil {
		c.t = New(Meta{})
	}
	return c.t
}

// Collect drains a Source into an in-memory Trace.
func Collect(src Source) (*Trace, error) {
	t := New(src.Meta())
	for {
		j, err := src.Next()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Add(j)
	}
}

// Copy streams every job from src into dst (calling Begin first) and
// returns the number of jobs copied.
func Copy(dst Sink, src Source) (int, error) {
	if err := dst.Begin(src.Meta()); err != nil {
		return 0, err
	}
	n := 0
	for {
		j, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(j); err != nil {
			return n, err
		}
		n++
	}
}

// SummaryAccumulator computes a Table-1 Summary row incrementally, so a
// streamed trace can be summarized without materializing it. It produces
// exactly what Trace.Summarize produces on the materialized equivalent.
type SummaryAccumulator struct {
	s Summary
}

// NewSummaryAccumulator starts a summary for the given metadata.
func NewSummaryAccumulator(meta Meta) *SummaryAccumulator {
	return &SummaryAccumulator{s: Summary{
		Name:     meta.Name,
		Machines: meta.Machines,
		Length:   meta.Length,
	}}
}

// Observe folds one job into the summary.
func (a *SummaryAccumulator) Observe(j *Job) {
	a.s.Jobs++
	a.s.BytesMoved += j.TotalBytes()
}

// ObserveColumns folds a run of jobs held as columns into the summary.
func (a *SummaryAccumulator) ObserveColumns(c *Columns) {
	a.s.Jobs += c.Len()
	for i := range c.InputBytes {
		a.s.BytesMoved += c.InputBytes[i] + c.ShuffleBytes[i] + c.OutputBytes[i]
	}
}

// Merge folds another accumulator into this one. Both must describe the
// same trace (name, machines, length); the counters are integers, so
// merging per-shard summaries in any order is exactly the sequential
// result. The argument is not modified.
func (a *SummaryAccumulator) Merge(o *SummaryAccumulator) error {
	if a.s.Name != o.s.Name || a.s.Machines != o.s.Machines || a.s.Length != o.s.Length {
		return fmt.Errorf("trace: cannot merge summaries of different traces (%q/%d/%v vs %q/%d/%v)",
			a.s.Name, a.s.Machines, a.s.Length, o.s.Name, o.s.Machines, o.s.Length)
	}
	a.s.Jobs += o.s.Jobs
	a.s.BytesMoved += o.s.BytesMoved
	return nil
}

// Summary returns the accumulated Table-1 row.
func (a *SummaryAccumulator) Summary() Summary { return a.s }

// RestoreSummaryAccumulator rebuilds an accumulator from a previously
// captured Summary — the durable-snapshot path: counters are plain
// integers, so Summary() is the accumulator's complete state.
func RestoreSummaryAccumulator(s Summary) *SummaryAccumulator {
	return &SummaryAccumulator{s: s}
}
