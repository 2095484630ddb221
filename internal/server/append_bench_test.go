package server

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// BenchmarkAppendIngest prices the live-ingest path: the same two-week
// trace committed through the durable store as one upload ("oneshot"),
// as eight appended batches ("batched" — eight manifest commits,
// aggregate refreezes, and fingerprint extensions on one open
// generation), and as one batch per 15-minute slot ("live", the shape
// of the live-append workload's feed: over a thousand small batches, so
// any per-batch cost that grows with the trace shows). The
// batched/oneshot ratio is the overhead of incremental durability,
// barred by BENCH_APPEND.json's append_overhead gate; live/oneshot is
// recorded as live_append_overhead.
func BenchmarkAppendIngest(b *testing.B) {
	tr := genTrace(b, "CC-b", 1, 14*24*time.Hour)
	tr.Sort()
	newDisk := func(b *testing.B) (*Server, string) {
		b.Helper()
		dir := b.TempDir()
		s, err := New(Config{DataDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return s, dir
	}
	b.Run("oneshot", func(b *testing.B) {
		s, _ := newDisk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("bench-%d", i)
			if _, err := s.store.Put(name, cloneTrace(tr)); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.store.Delete(name) // keep the store at one live trace
			b.StartTimer()
		}
	})
	// appendAll appends the batches to a fresh name per iteration and
	// reports the partial snapshot bytes the first iteration committed
	// per appended job: every snapshot file a batch's commit names,
	// counted once.
	appendAll := func(b *testing.B, batches [][]*trace.Job) {
		s, dir := newDisk(b)
		snapshots := map[string]int64{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("bench-%d", i)
			for _, batch := range batches {
				src := trace.NewSliceSource(trSlice(tr, batch))
				if _, _, _, err := s.store.Append(name, src); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.StopTimer()
					files, _ := filepath.Glob(filepath.Join(dir, "traces", name, "*.partial"))
					for _, f := range files {
						if st, err := os.Stat(f); err == nil {
							snapshots[filepath.Base(f)] = st.Size()
						}
					}
					b.StartTimer()
				}
			}
			b.StopTimer()
			s.store.Delete(name)
			b.StartTimer()
		}
		var total int64
		for _, size := range snapshots {
			total += size
		}
		b.ReportMetric(float64(total)/float64(tr.Len()), "snapshot-B/job")
	}
	b.Run("batched", func(b *testing.B) { appendAll(b, splitBatches(tr, 8)) })
	b.Run("live", func(b *testing.B) { appendAll(b, slotBatches(tr, 15*time.Minute)) })
}

// slotBatches cuts a sorted trace into one batch per slot of submit
// time; an empty slot rides with the next batch.
func slotBatches(tr *trace.Trace, slot time.Duration) [][]*trace.Job {
	var batches [][]*trace.Job
	i := 0
	for end := tr.Meta.Start.Add(slot); i < len(tr.Jobs); end = end.Add(slot) {
		k := i
		for k < len(tr.Jobs) && tr.Jobs[k].SubmitTime.Before(end) {
			k++
		}
		if k > i {
			batches = append(batches, tr.Jobs[i:k])
			i = k
		}
	}
	return batches
}

// BenchmarkWindowedReport is the rolling-window companion datapoint: a
// cold report over the whole 14-day trace ("full") versus a cold report
// over a narrow 6-hour slice ("window"). The trace is spilled (hot tier
// of one job), but the spill carries its frozen partial, so "full" is
// an ingest-partial finalize that reads no segment; only "window" scans
// the disk, where segment submit spans and colseg zone maps prune most
// of it before a job is decoded. The cache is purged between iterations
// so every request pays its finalize or its pruned scan. Since frozen
// partials finalize without sorting, "full" is the cheaper arm, and the
// recorded window_speedup sits below 1.
func BenchmarkWindowedReport(b *testing.B) {
	cfg := Config{DataDir: b.TempDir(), MaxTotalJobs: 1, SegmentJobs: 2000}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	tr := genTrace(b, "CC-b", 1, 14*24*time.Hour)
	tr.Sort()
	ingestTrace(b, ts, "bench", tr)

	start := tr.Meta.Start.UTC()
	run := func(b *testing.B, url string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			get(b, url)
			b.StopTimer()
			s.cache.InvalidatePrefix("") // evict between iterations
			b.StartTimer()
		}
	}
	b.Run("full", func(b *testing.B) {
		run(b, ts.URL+"/v1/traces/bench/report")
	})
	b.Run("window", func(b *testing.B) {
		from, to := start.Add(7*24*time.Hour), start.Add(7*24*time.Hour+6*time.Hour)
		run(b, fmt.Sprintf("%s/v1/traces/bench/report?from=%d&to=%d", ts.URL, from.Unix(), to.Unix()))
	})
}
