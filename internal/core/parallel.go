package core

import (
	"runtime"
	"sync"

	"repro/internal/trace"
)

// The shard-parallel execution path: scatter a trace into K contiguous
// ordered shards, build one Partial per shard on a bounded worker pool,
// and merge the partials in deterministic shard order. Because every
// section builder is an exact mergeable aggregate (see Partial), the
// merged report's JSON() bytes are identical to the sequential
// AnalyzeSource result at any shard count — the agreement is gated by
// TestParallelAnalyzeByteIdentical on the FB-2009 golden trace, and
// BenchmarkParallelAnalyze records the K=1 vs K=NumCPU speedup.

// shardCount resolves opts.Shards: 0 means one shard per available CPU.
func shardCount(opts AnalyzeOptions) int {
	k := opts.Shards
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// AnalyzeSourceParallel is the scatter/gather form of AnalyzeSource: it
// drains src, splits the jobs into opts.Shards contiguous shards
// (default: one per CPU), analyzes them concurrently, and merges the
// shard partials in shard order. The report is byte-identical to the
// sequential AnalyzeSource at any shard count; the cost is holding the
// job set in memory while the shards run (like Materialize), so the
// sequential path remains the choice for paper-length traces that must
// stream in constant memory. Materialize mode collects and runs the
// full Analyze, exactly as AnalyzeSource does — the materialized-only
// analyses (Figures 2–6, Table 2) are not sharded.
func AnalyzeSourceParallel(src trace.Source, opts AnalyzeOptions) (*Report, error) {
	if opts.Materialize {
		t, err := trace.Collect(src)
		if err != nil {
			return nil, err
		}
		return Analyze(t, opts)
	}
	k := shardCount(opts)
	if k == 1 {
		return analyzeStream(src, opts)
	}
	if src.Meta().Length <= 0 {
		return nil, errNeedsLength()
	}
	shards, err := trace.Split(src, k)
	if err != nil {
		return nil, err
	}
	p, err := mergeShardPartials(shards, opts.SketchDataSizes)
	if err != nil {
		return nil, err
	}
	return p.Report(opts.TopNames)
}

// AnalyzeTraceParallel runs the shard-parallel streaming analysis over
// an in-memory trace without copying jobs — the form the serving layer
// uses on stored snapshots.
func AnalyzeTraceParallel(t *trace.Trace, opts AnalyzeOptions) (*Report, error) {
	p, err := BuildTracePartial(t, shardCount(opts), opts.SketchDataSizes)
	if err != nil {
		return nil, err
	}
	return p.Report(opts.TopNames)
}

// BuildTracePartial builds the full-trace partial aggregate with k
// parallel shards (k < 1 selects one per CPU). The result is identical
// to a sequential BuildPartial over the same trace; the serving layer
// calls this at ingest time to precompute the frozen per-trace
// aggregate cold reports merge from.
func BuildTracePartial(t *trace.Trace, k int, sketch bool) (*Partial, error) {
	if k < 1 {
		k = runtime.GOMAXPROCS(0)
	}
	if k == 1 {
		return BuildPartial(trace.NewSliceSource(t), sketch)
	}
	shards, err := trace.SplitTrace(t, k)
	if err != nil {
		return nil, err
	}
	return mergeShardPartials(shards, sketch)
}

// mergeShardPartials analyzes the shards on a worker pool bounded by
// the CPU count and merges the per-shard partials in shard order.
func mergeShardPartials(shards []trace.Source, sketch bool) (*Partial, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(shards) {
		workers = len(shards)
	}
	parts := make([]*Partial, len(shards))
	errs := make([]error, len(shards))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				parts[i], errs[i] = BuildPartial(shards[i], sketch)
			}
		}()
	}
	for i := range shards {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		if err := merged.Merge(p); err != nil {
			return nil, err
		}
	}
	return merged, nil
}
