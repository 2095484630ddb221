package trace

import (
	"fmt"
	"io"
)

// Shard splitting: the scatter half of the shard-parallel analysis
// path. A trace is partitioned into K contiguous, ordered shards — the
// i-th shard holds the i-th run of jobs in stored (submit) order — and
// every shard Source carries the full trace's metadata, so per-shard
// analysis builders (hourly binning in particular) line up on the same
// origin and can be merged in shard order.

// shardSource yields one contiguous run of jobs under the parent
// trace's metadata.
type shardSource struct {
	meta Meta
	jobs []*Job
	i    int
}

// Meta returns the parent trace's metadata, not shard-local bounds:
// shard analyses must agree on the trace origin and length to merge.
func (s *shardSource) Meta() Meta { return s.meta }

// Next yields the next job or io.EOF.
func (s *shardSource) Next() (*Job, error) {
	if s.i >= len(s.jobs) {
		return nil, io.EOF
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// SplitTrace partitions an in-memory trace into k contiguous ordered
// shards sharing its metadata. Job pointers are shared, not copied;
// shard sizes differ by at most one (the first t.Len()%k shards are one
// longer), so the partition is a deterministic function of (t.Len(), k).
// k exceeding the job count yields trailing empty shards, which merge as
// neutral elements.
func SplitTrace(t *Trace, k int) ([]Source, error) {
	if k < 1 {
		return nil, fmt.Errorf("trace: cannot split into %d shards", k)
	}
	out := make([]Source, k)
	n := t.Len()
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + n/k
		if i < n%k {
			hi++
		}
		out[i] = &shardSource{meta: t.Meta, jobs: t.Jobs[lo:hi]}
		lo = hi
	}
	return out, nil
}

// Split drains src and partitions its jobs into k contiguous ordered
// shards. It trades memory for parallelism — the whole job set is held
// while the shards are analyzed, like Collect — so callers that cannot
// afford that should stay on the sequential streaming path.
func Split(src Source, k int) ([]Source, error) {
	if k < 1 {
		return nil, fmt.Errorf("trace: cannot split into %d shards", k)
	}
	t, err := Collect(src)
	if err != nil {
		return nil, err
	}
	return SplitTrace(t, k)
}
