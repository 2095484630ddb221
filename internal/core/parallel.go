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
// BuildPartial's at any shard count — the agreement is gated by
// TestParallelAnalyzeByteIdentical on the FB-2009 golden trace, and
// BenchmarkParallelAnalyze records the K=1 vs K=NumCPU speedup.

// BuildTracePartial builds the full-trace partial aggregate with k
// parallel shards (k < 1 selects one per CPU). The result is identical
// to a sequential BuildPartial over the same trace. Analyze finalizes
// one, and the serving layer builds one at ingest time to precompute
// the frozen per-trace aggregate cold reports merge from.
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
